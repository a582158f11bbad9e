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

from repro import constants


class CPUKVSModel:
    """Throughput/latency model of a CPU-based KVS server."""

    #: Per-core op rate without batching (ops/s).
    ops_per_core = constants.CPU_CORE_KV_OPS

    def cores_for_throughput(self, target_ops: float) -> float:
        """CPU cores equivalent to a target op rate (the '36 cores' claim)."""
        return target_ops / self.ops_per_core
