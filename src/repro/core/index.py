"""The pluggable index interface of the memory path.

The store's data structures were historically hard-wired to the chained
hash table.  :class:`Index` extracts the contract the rest of the system
actually depends on - lookup / insert / delete / scan, each executing
against the shared :class:`~repro.dram.host.MemoryImage` so its memory
accesses land in the same counted (and, inside the pipeline, traced)
stream the PCIe/NIC-DRAM models replay.  Determinism is part of the
contract: for a given store state and operation, an index must issue the
same access sequence every time, because the golden traces and profile
exports are byte-compared across runs.

Two implementations exist:

- :class:`~repro.core.hashtable.HashTable` - the paper's chained hash
  table.  Lookup/insert/delete only; scan raises
  :class:`~repro.errors.UnsupportedOperation` (a hash table has no key
  order).
- :class:`CompositeIndex` - the hash table plus an optional
  :class:`~repro.core.ordered.OrderedIndex` kept in sync on every
  insert/delete.  This is what :class:`~repro.core.store.KVDirectStore`
  routes through; with the ordered side disabled (the default) it is a
  zero-cost veneer over the hash table, preserving byte-identical
  behaviour.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional

from repro.core.hashing import fnv1a64
from repro.core.operations import ScanEntry
from repro.errors import SimulationError, UnsupportedOperation
from repro.sim.stats import Counter, RunningStats


class Index(ABC):
    """What the memory path requires of a KV index.

    Every method executes functionally against the backing memory image;
    the *modeled* cost of an operation is exactly the deterministic
    sequence of counted ``memory.read``/``memory.write`` calls it makes,
    which the pipeline's memory stage captures with
    ``memory.start_trace()`` and replays through the DMA/cache models.

    ``h`` on the point operations is ``fnv1a64(key)`` for a caller that
    already computed it (the pipeline hashes a key once, at issue); left
    out, the index hashes the key itself.
    """

    @abstractmethod
    def lookup(self, key: bytes, h: Optional[int] = None) -> Optional[bytes]:
        """Value of ``key``, or None."""

    @abstractmethod
    def insert(
        self, key: bytes, value: bytes, h: Optional[int] = None
    ) -> bool:
        """Insert or replace a pair; returns True."""

    @abstractmethod
    def delete(self, key: bytes, h: Optional[int] = None) -> bool:
        """Remove ``key``; returns whether it existed."""

    @abstractmethod
    def scan(
        self, start: bytes, count: int, with_values: bool = True
    ) -> List[ScanEntry]:
        """Up to ``count`` entries with key >= ``start``, ascending.

        Entries are ``(key, value)`` pairs when ``with_values`` (RANGE)
        and ``(key, None)`` otherwise (SCAN).  Raises
        :class:`~repro.errors.UnsupportedOperation` when the index keeps
        no key order.
        """


class CompositeIndex(Index):
    """Hash table plus an optional ordered sidecar, kept consistent.

    Point operations go straight to the hash table; when an
    :class:`~repro.core.ordered.OrderedIndex` is attached, inserts of
    *new* keys (detected via the table's key count - replacements don't
    touch the ordered structure) and deletes of existing keys maintain
    it, and scans walk it, probing the hash table for values on RANGE.
    """

    def __init__(self, table, ordered=None) -> None:
        self.table = table
        self.ordered = ordered
        #: Memory accesses per scan op (the ordered analogue of the
        #: table's get/put/delete cost stats).
        self.scan_cost = RunningStats()
        self.counters = Counter()

    def lookup(self, key: bytes, h: Optional[int] = None) -> Optional[bytes]:
        return self.table.get(key, h)

    def insert(
        self, key: bytes, value: bytes, h: Optional[int] = None
    ) -> bool:
        table = self.table
        if self.ordered is None:
            return table.put(key, value, h)
        if h is None:
            h = fnv1a64(key)
        before = table.count
        ok = table.put(key, value, h)
        if table.count != before:
            self.ordered.insert(key, h)
        return ok

    def delete(self, key: bytes, h: Optional[int] = None) -> bool:
        existed = self.table.delete(key, h)
        if existed and self.ordered is not None:
            self.ordered.delete(key)
        return existed

    def scan(
        self, start: bytes, count: int, with_values: bool = True
    ) -> List[ScanEntry]:
        if self.ordered is None:
            raise UnsupportedOperation(
                "RANGE/SCAN require an ordered index; this store is "
                "hash-only (config.ordered_index is off)"
            )
        memory = self.table.memory
        before = memory.accesses
        keys, hashes = self.ordered.scan(start, count)
        if with_values:
            # Each value is one probe of the hash table, with the hash the
            # ordered index kept for the key.
            values = list(map(self.table.probe, keys, hashes))
            if None in values:
                raise SimulationError(
                    f"ordered index out of sync: key "
                    f"{keys[values.index(None)]!r} has no hash-table record"
                )
        else:
            values = [None] * len(keys)
        entries: List[ScanEntry] = list(zip(keys, values))
        self.scan_cost.record(memory.accesses - before)
        self.counters["ranges" if with_values else "scans"] += 1
        return entries
