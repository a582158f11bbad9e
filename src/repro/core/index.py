"""The store's index: the hash table plus an optional ordered sidecar.

:class:`CompositeIndex` is the one index class.  Every operation on it -
lookup / insert / delete / scan - executes against the shared
:class:`~repro.dram.host.MemoryImage`, so its memory accesses land in the
same counted (and, inside the pipeline, traced) stream the PCIe/NIC-DRAM
models replay.  For a given store state and operation it issues the same
access sequence every time: the golden traces and profile exports are
byte-compared across runs.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.hashing import fnv1a64
from repro.core.operations import ScanEntry
from repro.errors import SimulationError, UnsupportedOperation
from repro.sim.stats import Counter, RunningStats


class CompositeIndex:
    """The :class:`~repro.core.hashtable.HashTable` plus an optional
    :class:`~repro.core.ordered.OrderedIndex`, kept consistent.

    Point operations go straight to the hash table: ``lookup(key, h=None)``
    *is* the table's ``get``, and without the ordered sidecar ``insert``
    and ``delete`` are its ``put`` and ``delete`` too - bound once, at
    construction, so an index call is one frame, not a forwarding one.
    When the sidecar is attached, inserts of *new* keys (detected via the
    table's key count - replacements don't touch the ordered structure)
    and deletes of existing keys maintain it, and scans walk it, probing
    the hash table for values on RANGE.  Without it, scans raise
    :class:`~repro.errors.UnsupportedOperation` and every other operation
    makes exactly the hash table's accesses.

    ``h`` on the point operations is ``fnv1a64(key)`` for a caller that
    already computed it; left out, the index hashes the key itself.
    """

    def __init__(self, table, ordered=None) -> None:
        self.table = table
        self.ordered = ordered
        #: Memory accesses per scan op (the ordered analogue of the
        #: table's get/put/delete cost stats).
        self.scan_cost = RunningStats()
        self.counters = Counter()
        self.lookup = table.get
        if ordered is None:
            self.insert = table.put
            self.delete = table.delete

    # -- point writes with the ordered sidecar attached ----------------------

    def insert(
        self, key: bytes, value: bytes, h: Optional[int] = None
    ) -> bool:
        table = self.table
        if h is None:
            h = fnv1a64(key)
        before = table.count
        ok = table.put(key, value, h)
        if table.count != before:
            self.ordered.insert(key, h)
        return ok

    def delete(self, key: bytes, h: Optional[int] = None) -> bool:
        existed = self.table.delete(key, h)
        if existed:
            self.ordered.delete(key)
        return existed

    def scan(
        self, start: bytes, count: int, with_values: bool = True
    ) -> List[ScanEntry]:
        """Up to ``count`` entries with key >= ``start``, ascending:
        ``(key, value)`` pairs when ``with_values`` (RANGE), ``(key,
        None)`` otherwise (SCAN)."""
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
