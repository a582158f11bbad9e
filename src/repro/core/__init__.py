"""The KV processor: the paper's primary contribution.

Subpackage layout follows Figure 4:

- :mod:`~repro.core.operations` - KV-Direct operation set (Table 1).
- :mod:`~repro.core.hashindex` - the 64 B bucket codec (Figure 5), which
  queries and edits a bucket as its bytes.
- :mod:`~repro.core.hashtable` - chained hash table with inline KVs.
- :mod:`~repro.core.slab` / :mod:`~repro.core.slab_host` - slab memory
  allocator split across NIC and host daemon (Figure 8).
- :mod:`~repro.core.ooo` - out-of-order execution engine (reservation
  station, data forwarding).
- :mod:`~repro.core.vector` - vector UPDATE/REDUCE/FILTER and the
  user-defined function registry.
- :mod:`~repro.core.processor` - the timed pipeline tying it together.
- :mod:`~repro.core.store` - :class:`~repro.core.store.KVDirectStore`,
  the public API.
"""

from repro.core.operations import KVOperation, KVResult, OpType

__all__ = [
    "KVOperation",
    "KVResult",
    "OpType",
]
