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


class UniformLatency:
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
