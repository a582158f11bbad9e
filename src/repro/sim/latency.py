"""Reproducible latency distributions for the hardware models.

PCIe random DMA read latency (Figure 3b) is modelled as a base (cached)
latency plus a uniform spread capturing host DRAM access, refresh, and
response reordering.  All models draw from a seeded :class:`random.Random`
so simulations are deterministic.  Every parameter check is written so
that NaN fails it.
"""

from __future__ import annotations

import random
from typing import Optional


class LatencyModel:
    """Base class: ``sample()`` returns a latency in nanoseconds."""

    def sample(self) -> float:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Always the same latency."""

    def __init__(self, latency_ns: float) -> None:
        if not latency_ns >= 0:
            raise ValueError("latency must be non-negative")
        self.latency_ns = latency_ns

    def sample(self) -> float:
        return self.latency_ns

    def mean(self) -> float:
        return self.latency_ns

    def __repr__(self) -> str:
        return f"ConstantLatency({self.latency_ns} ns)"


class UniformLatency(LatencyModel):
    """Uniform in ``[base, base + spread]``.

    With ``base=800`` and ``spread=500`` this reproduces the shape of the
    paper's Figure 3b DMA-read-latency CDF (mean ~1050 ns, i.e. 800 ns cached
    latency + 250 ns average random-access penalty).
    """

    def __init__(
        self, base_ns: float, spread_ns: float, seed: Optional[int] = 0
    ) -> None:
        if not (base_ns >= 0 and spread_ns >= 0):
            raise ValueError("latency parameters must be non-negative")
        self.base_ns = base_ns
        self.spread_ns = spread_ns
        self._rng = random.Random(seed)

    def sample(self) -> float:
        return self.base_ns + self._rng.random() * self.spread_ns

    def mean(self) -> float:
        return self.base_ns + self.spread_ns / 2.0

    def __repr__(self) -> str:
        return f"UniformLatency({self.base_ns}+U[0,{self.spread_ns}] ns)"


class ExponentialLatency(LatencyModel):
    """Base plus an exponential tail - used for queueing-like jitter."""

    def __init__(
        self, base_ns: float, tail_mean_ns: float, seed: Optional[int] = 0
    ) -> None:
        if not (base_ns >= 0 and tail_mean_ns >= 0):
            raise ValueError("latency parameters must be non-negative")
        self.base_ns = base_ns
        self.tail_mean_ns = tail_mean_ns
        self._rng = random.Random(seed)

    def sample(self) -> float:
        if self.tail_mean_ns == 0:
            return self.base_ns
        return self.base_ns + self._rng.expovariate(1.0 / self.tail_mean_ns)

    def mean(self) -> float:
        return self.base_ns + self.tail_mean_ns

    def __repr__(self) -> str:
        return f"ExponentialLatency({self.base_ns}+Exp({self.tail_mean_ns}) ns)"
