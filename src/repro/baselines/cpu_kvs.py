"""Analytic CPU key-value store model (sections 2.2, 5.2, Table 3).

The paper measures, on its testbed CPU:

- random 64 B DRAM access: 110 ns, ~29.3 M accesses/s per core,
- ~5.5 M KV ops/s per core when hash computation interleaves with memory
  access (the instruction window is too small to overlap them),
- ~7.9 M KV ops/s per core with software batching/prefetching.

This model turns those constants into per-system throughput estimates used
as Table 3's CPU rows and as the "tens of CPU cores" equivalence claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import constants
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CPUKVSModel:
    """Throughput/latency model of a CPU-based KVS server."""

    cores: int = 16
    #: Per-core op rate without batching (ops/s).
    ops_per_core: float = constants.CPU_CORE_KV_OPS
    #: Per-core op rate with batching (ops/s).
    ops_per_core_batched: float = constants.CPU_CORE_KV_OPS_BATCHED
    #: Scheduling/buffering latency floor and tail (ns) - CPU KVS "often
    #: have large fluctuations under heavy load".
    base_latency_ns: float = 20_000.0
    tail_latency_ns: float = 100_000.0

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ConfigurationError("cores must be positive")

    def throughput(self, batched: bool = True) -> float:
        """Aggregate ops/s across all cores."""
        per_core = self.ops_per_core_batched if batched else self.ops_per_core
        return self.cores * per_core

    def cores_for_throughput(self, target_ops: float) -> float:
        """CPU cores equivalent to a target op rate (the '36 cores' claim)."""
        return target_ops / self.ops_per_core

    def latency_percentile(self, pct: float) -> float:
        """Crude latency model: linear rise toward the tail."""
        if not 0 <= pct <= 100:
            raise ValueError("percentile out of range")
        return self.base_latency_ns + (
            (self.tail_latency_ns - self.base_latency_ns) * (pct / 100.0) ** 4
        )
