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

from repro.constants import ZIPF_SKEW
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
    zipf_skew: float = ZIPF_SKEW
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.put_ratio <= 1.0:
            raise ValueError(f"put ratio must be in [0, 1]: {self.put_ratio}")
        if self.distribution not in ("uniform", "zipf"):
            raise ValueError(f"unknown distribution: {self.distribution}")
        if not self.zipf_skew >= 0:
            raise ValueError(f"zipf skew must be >= 0: {self.zipf_skew}")

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
            self.sampler = ZipfSampler(
                keyspace.count, skew=spec.zipf_skew, seed=spec.seed
            )
        else:
            self.sampler = UniformSampler(keyspace.count, seed=spec.seed)
        self._rng = random.Random(spec.seed ^ 0x5CB)

    def load_phase(self) -> Iterator[KVOperation]:
        """PUTs inserting the whole corpus (benchmark preparation)."""
        for index in range(self.keyspace.count):
            key, value = self.keyspace.pair(index)
            yield KVOperation.put(key, value)

    def operations(self, count: int) -> List[KVOperation]:
        """The measurement phase: ``count`` GET/PUT ops.

        Generated column by column: the key indices, then the GET/PUT
        coins, then the keys and the PUT values, each a scalar loop.  The
        result is the historical per-op loop's (same sampler and coin
        streams, each consumed in the same order) because the two
        generators are independent streams.
        """
        if count <= 0:
            return []
        indices = self.sampler.sample_many(count)
        coin = self._rng.random
        ratio = self.spec.put_ratio
        is_put = [coin() < ratio for __ in range(count)]
        keys = self.keyspace.keys_many(indices)
        put_values = iter(self.keyspace.values_many(
            [index for index, put in zip(indices, is_put) if put]
        ))
        make_put = KVOperation.put
        make_get = KVOperation.get
        ops: List[KVOperation] = []
        append = ops.append
        for seq, (key, put) in enumerate(zip(keys, is_put)):
            if put:
                append(make_put(key, next(put_values), seq=seq))
            else:
                append(make_get(key, seq=seq))
        return ops


#: The four PUT ratios Figures 16/17 sweep.
PAPER_PUT_RATIOS = (0.0, 0.05, 0.5, 1.0)


def paper_workloads(seed: int = 0) -> List[WorkloadSpec]:
    """The eight (distribution, put-ratio) combinations of Figure 16."""
    specs = []
    for distribution in ("uniform", "zipf"):
        for put_ratio in PAPER_PUT_RATIOS:
            specs.append(
                WorkloadSpec(
                    put_ratio=put_ratio, distribution=distribution, seed=seed
                )
            )
    return specs
