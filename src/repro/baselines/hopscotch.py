"""FaRM-style chain-associative hopscotch hashing (Figure 11 baseline).

A key lives within a *neighborhood* of H consecutive buckets starting at
its home bucket (the :mod:`~repro.baselines.slotted` layout); FaRM reads
the whole neighborhood in one RDMA read, so a GET costs one index access
plus one value access.  Inserting into a full neighborhood linearly probes
for a free slot and *bubbles* it back toward the home bucket, one
displacement at a time - cheap at low utilization, "significantly worse in
PUT" at high utilization.  If bubbling cannot bring the slot within reach,
FaRM falls back to chaining an overflow block, hence "chain-associative".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.baselines.slotted import (
    BUCKET_BYTES,
    EMPTY,
    SLOTS_PER_BUCKET,
    Slot,
    SlottedTable,
    decode_slots,
)
from repro.core.hashing import fnv1a64
from repro.core.slab import SlabAllocator
from repro.dram.host import MemoryImage
from repro.errors import ConfigurationError

#: Neighborhood size in buckets.  FaRM's hopscotch neighborhood is ~8
#: *slots*; with 4 slots per bucket that is 2 buckets (one 128 B read).
NEIGHBORHOOD = 2

#: How far past the neighborhood linear probing may search.
MAX_PROBE = 512


class HopscotchHashTable(SlottedTable):
    """Hopscotch hash with neighborhood reads and chained overflow."""

    def __init__(
        self,
        memory: MemoryImage,
        allocator: SlabAllocator,
        num_buckets: int,
    ) -> None:
        if num_buckets < NEIGHBORHOOD:
            raise ConfigurationError(
                "table must be at least one neighborhood long"
            )
        super().__init__(memory, allocator, num_buckets)
        #: Overflow chains: home bucket -> list of (key, pointer, block)
        #: entries stored in slab-allocated 64 B blocks (modelled per-block).
        self._chains: Dict[int, List[Tuple[bytes, int, int]]] = {}

    def _home(self, key: bytes) -> int:
        return fnv1a64(key) % self.num_buckets

    def _read_neighborhood(self, home: int) -> List[Slot]:
        """One contiguous read covering the whole neighborhood."""
        span = min(NEIGHBORHOOD, self.num_buckets - home)
        raw = self.memory.read(self._addr(home), span * BUCKET_BYTES)
        if span < NEIGHBORHOOD:  # wraparound tail
            raw += self.memory.read(
                self._addr(0), (NEIGHBORHOOD - span) * BUCKET_BYTES
            )
        return decode_slots(raw)

    def _set_slot(self, bucket: int, index: int, slot: Slot) -> None:
        """Re-read ``bucket`` and write it back with one slot changed."""
        slots = self._read_bucket(bucket)
        slots[index] = slot
        self._write_bucket(bucket, slots)

    def _set_neighbor(self, home: int, i: int, slot: Slot) -> None:
        """Set slot ``i`` of the neighborhood starting at ``home``."""
        self._set_slot(home + i // SLOTS_PER_BUCKET, i % SLOTS_PER_BUCKET, slot)

    def _get(self, key: bytes) -> Optional[bytes]:
        home = self._home(key)
        for slot_key, pointer in self._read_neighborhood(home):
            if slot_key == key:
                return self._read_value(pointer)[0]
        for chain_key, pointer, __block in self._chains.get(home, []):
            # Each chained overflow block costs one additional read.
            self.memory.read(self._addr(home), BUCKET_BYTES)
            if chain_key == key:
                return self._read_value(pointer)[0]
        return None

    def _put(self, key: bytes, value: bytes) -> Optional[int]:
        home = self._home(key)
        slots = self._read_neighborhood(home)
        for i, (slot_key, pointer) in enumerate(slots):
            if slot_key == key:
                new_pointer, replaced = self._rewrite_value(pointer, value)
                if new_pointer != pointer:
                    self._set_neighbor(home, i, (key, new_pointer))
                return replaced
        chain = self._chains.get(home, [])
        for entry_index, (chain_key, pointer, block) in enumerate(chain):
            self.memory.read(self._addr(home), BUCKET_BYTES)
            if chain_key == key:
                # A chained record always moves.
                old_value, old_cls = self._read_value(pointer)
                chain[entry_index] = (key, self._write_value(value), block)
                self.allocator.free(pointer * 32, old_cls)
                return len(old_value)
        # New key: free slot inside the neighborhood?
        pointer = self._write_value(value)
        if EMPTY in slots:
            self._set_neighbor(home, slots.index(EMPTY), (key, pointer))
            return None
        # Hopscotch displacement: probe forward for a free slot, bubble back.
        if not self._hopscotch_insert(home, key, pointer):
            # Neighborhood hopelessly full: chain an overflow block.
            self._chain_insert(home, key, pointer)
        return None

    def _hopscotch_insert(self, home: int, key: bytes, pointer: int) -> bool:
        """Linear-probe for a free slot, then bubble it into reach."""
        for distance in range(NEIGHBORHOOD, MAX_PROBE):
            free_bucket = (home + distance) % self.num_buckets
            slots = self._read_bucket(free_bucket)
            if EMPTY in slots:
                free_slot = slots.index(EMPTY)
                break
        else:
            return False
        # Bubble the free slot backwards until it is within the
        # neighborhood of `home`.
        while self._distance(home, free_bucket) >= NEIGHBORHOOD:
            moved = self._bubble(free_bucket, free_slot)
            if moved is None:
                return False
            free_bucket, free_slot = moved
        self._set_slot(free_bucket, free_slot, (key, pointer))
        return True

    def _bubble(
        self, free_bucket: int, free_slot: int
    ) -> Optional[Tuple[int, int]]:
        """Move into the free slot an entry from the H-1 buckets before it
        whose own neighborhood still covers it; returns the slot it left."""
        for back in range(NEIGHBORHOOD - 1, 0, -1):
            candidate = (free_bucket - back) % self.num_buckets
            slots = self._read_bucket(candidate)
            for i, (slot_key, slot_pointer) in enumerate(slots):
                if slot_key is None:
                    continue
                key_home = self._home(slot_key)
                if self._distance(key_home, free_bucket) < NEIGHBORHOOD:
                    self._set_slot(
                        free_bucket, free_slot, (slot_key, slot_pointer)
                    )
                    slots[i] = EMPTY
                    self._write_bucket(candidate, slots)
                    self.counters["bubbles"] += 1
                    return candidate, i
        return None

    def _chain_insert(self, home: int, key: bytes, pointer: int) -> None:
        """Append to the home bucket's overflow chain (one block write)."""
        block = self.allocator.alloc_class(1)  # 64 B overflow block
        self.memory.write(self._addr(home), b"")  # chain pointer update
        self.memory.write(block, bytes(64))
        self._chains.setdefault(home, []).append((key, pointer, block))
        self.counters["chained"] += 1

    def _distance(self, start: int, bucket: int) -> int:
        return (bucket - start) % self.num_buckets
