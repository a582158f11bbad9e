"""MemC3-style bucketized cuckoo hash table (Figure 11 baseline).

Each key has two candidate buckets (two independent hashes); each 64 B
bucket holds four slots.  Per the paper's comparison setup, "keys are
inlined and can be compared in parallel, while the values are stored in
dynamically allocated slabs" - so a GET costs one or two bucket reads plus
one value read, and an insert into a full pair of buckets triggers cuckoo
displacement (a random-walk of kick-outs), which is where the "large
fluctuations in memory access times per PUT" under high utilization come
from.
"""

from __future__ import annotations

import random
import struct
from typing import List, Optional, Tuple

from repro.core.hashing import fnv1a64
from repro.core.slab import SlabAllocator
from repro.core.slab_host import class_for_size, class_size
from repro.dram.host import MemoryImage
from repro.errors import CapacityError, ConfigurationError, KeyTooLargeError
from repro.sim.stats import Counter, RunningStats

#: Slots per 64 B bucket (as in MemC3).
SLOTS_PER_BUCKET = 4

#: Bytes per slot: 11 B inlined key + 1 B key length + 4 B value pointer.
SLOT_BYTES = 16

#: Largest key the inline-key layout supports.
MAX_INLINE_KEY = 11

BUCKET_BYTES = SLOTS_PER_BUCKET * SLOT_BYTES

#: Upper bound on cuckoo displacement path length before declaring full.
MAX_KICKS = 128

_PTR = struct.Struct("<I")


class CuckooHashTable:
    """Bucketized 2-choice cuckoo hash with slab-allocated values."""

    def __init__(
        self,
        memory: MemoryImage,
        allocator: SlabAllocator,
        num_buckets: int,
        base: int = 0,
        seed: int = 0,
    ) -> None:
        if num_buckets < 2:
            raise ConfigurationError("need at least two cuckoo buckets")
        self.memory = memory
        self.allocator = allocator
        self.num_buckets = num_buckets
        self.base = base
        self._rng = random.Random(seed)
        self.counters = Counter()
        self.count = 0
        self.stored_bytes = 0
        self.get_cost = RunningStats()
        self.put_cost = RunningStats()

    # -- hashing ---------------------------------------------------------------

    def _buckets_of(self, key: bytes) -> Tuple[int, int]:
        h = fnv1a64(key)
        b1 = h % self.num_buckets
        b2 = (h >> 32) % self.num_buckets
        if b2 == b1:
            b2 = (b1 + 1) % self.num_buckets
        return b1, b2

    def _addr(self, bucket: int) -> int:
        return self.base + bucket * BUCKET_BYTES

    # -- slot codec ---------------------------------------------------------------

    @staticmethod
    def _pack_slot(key: bytes, pointer: int) -> bytes:
        return (
            bytes([len(key)])
            + key.ljust(MAX_INLINE_KEY, b"\x00")
            + _PTR.pack(pointer)
        )

    @staticmethod
    def _unpack_slot(raw: bytes) -> Tuple[Optional[bytes], int]:
        klen = raw[0]
        if klen == 0:
            return None, 0
        key = raw[1 : 1 + klen]
        (pointer,) = _PTR.unpack(raw[1 + MAX_INLINE_KEY : SLOT_BYTES])
        return key, pointer

    def _read_bucket(self, bucket: int) -> List[Tuple[Optional[bytes], int]]:
        raw = self.memory.read(self._addr(bucket), BUCKET_BYTES)
        return [
            self._unpack_slot(raw[i * SLOT_BYTES : (i + 1) * SLOT_BYTES])
            for i in range(SLOTS_PER_BUCKET)
        ]

    def _write_bucket(
        self, bucket: int, slots: List[Tuple[Optional[bytes], int]]
    ) -> None:
        raw = b"".join(
            self._pack_slot(key, pointer) if key else bytes(SLOT_BYTES)
            for key, pointer in slots
        )
        self.memory.write(self._addr(bucket), raw)

    # -- value records ----------------------------------------------------------------

    def _read_value(self, pointer: int) -> Tuple[bytes, int]:
        """Returns (value, slab class).  Pointer is addr // 32."""
        addr = pointer * 32
        header = self.memory.peek(addr, 3)
        vlen, cls = struct.unpack("<HB", header)
        raw = self.memory.read(addr, class_size(cls))
        return raw[3 : 3 + vlen], cls

    def _write_value(self, value: bytes) -> Tuple[int, int]:
        cls = class_for_size(len(value) + 3)
        addr = self.allocator.alloc_class(cls)
        self.memory.write(addr, struct.pack("<HB", len(value), cls) + value)
        return addr // 32, cls

    # -- operations -----------------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        self._check_key(key)
        before = self.memory.accesses
        value = self._get(key)
        self.get_cost.record(self.memory.accesses - before)
        return value

    def _get(self, key: bytes) -> Optional[bytes]:
        b1, b2 = self._buckets_of(key)
        for bucket in (b1, b2):
            for slot_key, pointer in self._read_bucket(bucket):
                if slot_key == key:
                    value, __ = self._read_value(pointer)
                    return value
        return None

    def put(self, key: bytes, value: bytes) -> bool:
        self._check_key(key)
        before = self.memory.accesses
        replaced = self._put(key, value)
        self.put_cost.record(self.memory.accesses - before)
        if replaced is None:
            self.count += 1
            self.stored_bytes += len(key) + len(value)
        else:
            self.stored_bytes += len(value) - replaced
        return True

    def _put(self, key: bytes, value: bytes) -> Optional[int]:
        b1, b2 = self._buckets_of(key)
        slots1 = self._read_bucket(b1)
        # Existing key in bucket 1?
        replaced = self._try_replace(b1, slots1, key, value)
        if replaced is not None:
            return replaced
        slots2 = self._read_bucket(b2)
        replaced = self._try_replace(b2, slots2, key, value)
        if replaced is not None:
            return replaced
        # New key: write the value record once, then find an index slot.
        pointer, __ = self._write_value(value)
        for bucket, slots in ((b1, slots1), (b2, slots2)):
            for i, (slot_key, __ptr) in enumerate(slots):
                if slot_key is None:
                    slots[i] = (key, pointer)
                    self._write_bucket(bucket, slots)
                    return None
        # Both buckets full: cuckoo displacement random walk.
        self._displace(b1 if self._rng.random() < 0.5 else b2, key, pointer)
        return None

    def _try_replace(
        self, bucket: int, slots, key: bytes, value: bytes
    ) -> Optional[int]:
        for i, (slot_key, pointer) in enumerate(slots):
            if slot_key != key:
                continue
            old_value, old_cls = self._read_value(pointer)
            new_cls = class_for_size(len(value) + 3)
            if new_cls == old_cls:
                addr = pointer * 32
                self.memory.write(
                    addr, struct.pack("<HB", len(value), new_cls) + value
                )
            else:
                new_pointer, __ = self._write_value(value)
                self.allocator.free(pointer * 32, old_cls)
                slots[i] = (key, new_pointer)
                self._write_bucket(bucket, slots)
            return len(old_value)
        return None

    def _displace(self, bucket: int, key: bytes, pointer: int) -> None:
        """Kick a random victim to its alternate bucket, repeatedly."""
        for __ in range(MAX_KICKS):
            slots = self._read_bucket(bucket)
            for i, (slot_key, __ptr) in enumerate(slots):
                if slot_key is None:
                    slots[i] = (key, pointer)
                    self._write_bucket(bucket, slots)
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

    def delete(self, key: bytes) -> bool:
        self._check_key(key)
        for bucket in self._buckets_of(key):
            slots = self._read_bucket(bucket)
            for i, (slot_key, pointer) in enumerate(slots):
                if slot_key == key:
                    value, cls = self._read_value(pointer)
                    slots[i] = (None, 0)
                    self._write_bucket(bucket, slots)
                    self.allocator.free(pointer * 32, cls)
                    self.count -= 1
                    self.stored_bytes -= len(key) + len(value)
                    return True
        return False

    # -- misc --------------------------------------------------------------------------------

    @staticmethod
    def _check_key(key: bytes) -> None:
        if not key:
            raise KeyTooLargeError("key must be non-empty")
        if len(key) > MAX_INLINE_KEY:
            raise KeyTooLargeError(
                f"cuckoo baseline inlines keys up to {MAX_INLINE_KEY} B"
            )

    def __len__(self) -> int:
        return self.count

    def utilization(self, total_memory: Optional[int] = None) -> float:
        total = total_memory if total_memory is not None else self.memory.size
        return self.stored_bytes / total if total else 0.0
