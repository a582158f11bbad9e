"""MemC3-style bucketized cuckoo hash table (Figure 11 baseline).

Each key has two candidate buckets (two independent hashes) in the
:mod:`~repro.baselines.slotted` layout, so a GET costs one or two bucket
reads plus one value read, and an insert into a full pair of buckets
triggers cuckoo displacement (a random-walk of kick-outs), which is where
the "large fluctuations in memory access times per PUT" under high
utilization come from.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.baselines.slotted import EMPTY, SLOTS_PER_BUCKET, Slot, SlottedTable
from repro.core.hashing import fnv1a64
from repro.core.slab import SlabAllocator
from repro.dram.host import MemoryImage
from repro.errors import CapacityError, ConfigurationError

#: Upper bound on cuckoo displacement path length before declaring full.
MAX_KICKS = 128


class CuckooHashTable(SlottedTable):
    """Bucketized 2-choice cuckoo hash with slab-allocated values."""

    def __init__(
        self,
        memory: MemoryImage,
        allocator: SlabAllocator,
        num_buckets: int,
    ) -> None:
        if num_buckets < 2:
            raise ConfigurationError("need at least two cuckoo buckets")
        super().__init__(memory, allocator, num_buckets)
        self._rng = random.Random(0)

    def _buckets_of(self, key: bytes) -> Tuple[int, int]:
        h = fnv1a64(key)
        b1 = h % self.num_buckets
        b2 = (h >> 32) % self.num_buckets
        if b2 == b1:
            b2 = (b1 + 1) % self.num_buckets
        return b1, b2

    def _get(self, key: bytes) -> Optional[bytes]:
        for bucket in self._buckets_of(key):
            for slot_key, pointer in self._read_bucket(bucket):
                if slot_key == key:
                    return self._read_value(pointer)[0]
        return None

    def _put(self, key: bytes, value: bytes) -> Optional[int]:
        b1, b2 = self._buckets_of(key)
        slots1 = self._read_bucket(b1)
        replaced = self._try_replace(b1, slots1, key, value)
        if replaced is not None:
            return replaced
        slots2 = self._read_bucket(b2)
        replaced = self._try_replace(b2, slots2, key, value)
        if replaced is not None:
            return replaced
        # New key: write the value record once, then find an index slot.
        pointer = self._write_value(value)
        for bucket, slots in ((b1, slots1), (b2, slots2)):
            if self._fill_free(bucket, slots, key, pointer):
                return None
        # Both buckets full: cuckoo displacement random walk.
        self._displace(b1 if self._rng.random() < 0.5 else b2, key, pointer)
        return None

    def _try_replace(
        self, bucket: int, slots: List[Slot], key: bytes, value: bytes
    ) -> Optional[int]:
        for i, (slot_key, pointer) in enumerate(slots):
            if slot_key == key:
                new_pointer, replaced = self._rewrite_value(pointer, value)
                if new_pointer != pointer:
                    slots[i] = (key, new_pointer)
                    self._write_bucket(bucket, slots)
                return replaced
        return None

    def _fill_free(
        self, bucket: int, slots: List[Slot], key: bytes, pointer: int
    ) -> bool:
        """Put ``(key, pointer)`` in the first empty slot, if any."""
        if EMPTY not in slots:
            return False
        slots[slots.index(EMPTY)] = (key, pointer)
        self._write_bucket(bucket, slots)
        return True

    def _displace(self, bucket: int, key: bytes, pointer: int) -> None:
        """Kick a random victim to its alternate bucket, repeatedly."""
        for __ in range(MAX_KICKS):
            slots = self._read_bucket(bucket)
            if self._fill_free(bucket, slots, key, pointer):
                return
            victim_index = self._rng.randrange(SLOTS_PER_BUCKET)
            victim_key, victim_pointer = slots[victim_index]
            slots[victim_index] = (key, pointer)
            self._write_bucket(bucket, slots)
            self.counters["kicks"] += 1
            v1, v2 = self._buckets_of(victim_key)
            bucket = v2 if bucket == v1 else v1
            key, pointer = victim_key, victim_pointer
        raise CapacityError(
            f"cuckoo displacement exceeded {MAX_KICKS} kicks (table full)"
        )
