"""Baseline systems the paper compares against.

- :mod:`~repro.baselines.slotted` - the inline-key bucket and slab value
  record both hash tables share.
- :mod:`~repro.baselines.cuckoo` - MemC3-style bucketized cuckoo hashing.
- :mod:`~repro.baselines.hopscotch` - FaRM-style chain-associative
  hopscotch hashing.
- :mod:`~repro.baselines.cpu_kvs` - analytic CPU key-value store model
  (per-core throughput, batching) built on the paper's measurements.
- :mod:`~repro.baselines.rdma` - one-sided / two-sided RDMA KVS models.

The two hash tables are real implementations over counted memory images
(Figure 11 compares *measured* accesses per operation); the CPU and RDMA
models are analytic, parameterized by the constants the paper measured on
its testbed (sections 2.2, 5.1.3, Table 3).
"""

from repro.baselines.cpu_kvs import CPUKVSModel
from repro.baselines.cuckoo import CuckooHashTable
from repro.baselines.hopscotch import HopscotchHashTable
from repro.baselines.rdma import OneSidedRDMAModel, TwoSidedRDMAModel

__all__ = [
    "CPUKVSModel",
    "CuckooHashTable",
    "HopscotchHashTable",
    "OneSidedRDMAModel",
    "TwoSidedRDMAModel",
]
