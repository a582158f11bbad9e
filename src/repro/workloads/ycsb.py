"""YCSB-style workload generation (section 5.2).

A workload is a GET/PUT mix over a key popularity distribution.  The paper
reports PUT ratios of 0 % (100 % GET), 5 %, 50 % and 100 % under both
uniform and long-tail (Zipf 0.99) key popularity - the axes of Figures 16
and 17.

Every draw is a scalar ``random.Random`` call: the key sampler's, one
``random()`` coin per op from the generator's own stream, and the
keyspace's per-index value streams.  No workload imports numpy: the Zipf
table is pure Python too (:mod:`repro.workloads.zipf`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List

from repro.core.operations import KVOperation
from repro.workloads.keyspace import KeySpace
from repro.workloads.zipf import UniformSampler, ZipfSampler


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one benchmark workload."""

    #: Fraction of operations that are PUTs (the rest are GETs).
    put_ratio: float = 0.0
    #: "uniform" or "zipf" (the paper's long-tail, skew 0.99).
    distribution: str = "uniform"
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.put_ratio <= 1.0:
            raise ValueError(f"put ratio must be in [0, 1]: {self.put_ratio}")
        if self.distribution not in ("uniform", "zipf"):
            raise ValueError(f"unknown distribution: {self.distribution}")

    @property
    def name(self) -> str:
        dist = "long-tail" if self.distribution == "zipf" else "uniform"
        return f"{dist}/{int(self.put_ratio * 100)}%PUT"


class YCSBGenerator:
    """Generates operation streams over a :class:`KeySpace`."""

    def __init__(self, keyspace: KeySpace, spec: WorkloadSpec) -> None:
        self.keyspace = keyspace
        self.spec = spec
        if spec.distribution == "zipf":
            self.sampler = ZipfSampler(keyspace.count, seed=spec.seed)
        else:
            self.sampler = UniformSampler(keyspace.count, seed=spec.seed)
        self._rng = random.Random(spec.seed ^ 0x5CB)

    def load_phase(self) -> Iterator[KVOperation]:
        """PUTs inserting the whole corpus (benchmark preparation)."""
        for index in range(self.keyspace.count):
            key, value = self.keyspace.pair(index)
            yield KVOperation.put(key, value)

    def operations(self, count: int) -> List[KVOperation]:
        """The measurement phase: ``count`` GET/PUT ops, as a list."""
        return list(self.stream(count))

    def stream(self, count: int) -> Iterator[KVOperation]:
        """:meth:`operations`, each op drawn as it is pulled.

        An op is a sampler draw, a GET/PUT coin and (for a PUT) the key's
        corpus value.  The sampler and the coins are the generator's own
        ``random.Random`` streams and a value is a pure function of its
        key index, so pulling ops lazily, interleaved with anything else,
        draws exactly what building the list up front does.
        """
        sample = self.sampler.sample
        coin = self._rng.random
        ratio = self.spec.put_ratio
        key, value = self.keyspace.key, self.keyspace.value
        make_put, make_get = KVOperation.put, KVOperation.get
        for seq in range(count):
            index = sample()
            if coin() < ratio:
                yield make_put(key(index), value(index), seq=seq)
            else:
                yield make_get(key(index), seq=seq)
