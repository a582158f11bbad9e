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

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ConfigurationError("cores must be positive")

    def cores_for_throughput(self, target_ops: float) -> float:
        """CPU cores equivalent to a target op rate (the '36 cores' claim)."""
        return target_ops / self.ops_per_core
