"""The slotted store both Figure 11 baselines share.

The paper gives MemC3 and FaRM one layout: "keys are inlined and can be
compared in parallel, while the values are stored in dynamically allocated
slabs".  Here that is a 64 B bucket of four 16 B slots - 1 B key length,
11 B inlined key, 4 B pointer to the value record (its address // 32) -
and a ``[vlen u16][class u8][value]`` record in a slab.  A subclass says
only where a key may live: :class:`~repro.baselines.cuckoo.CuckooHashTable`
(two choices, displacement) and
:class:`~repro.baselines.hopscotch.HopscotchHashTable` (a neighborhood,
bubbling, overflow chains).  Both count what Figure 11 plots: memory
accesses per GET and per PUT.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from repro.constants import SLAB_SIZES
from repro.core.slab import SlabAllocator
from repro.core.slab_host import HostSlabManager, class_for_size, class_size
from repro.dram.host import MemoryImage
from repro.errors import KeyTooLargeError
from repro.sim.stats import Counter, RunningStats

#: Slots per 64 B bucket (as in MemC3).
SLOTS_PER_BUCKET = 4

#: Bytes per slot: 1 B key length + 11 B inlined key + 4 B value pointer.
SLOT_BYTES = 16

#: Largest key the inline-key layout supports.
MAX_INLINE_KEY = 11

BUCKET_BYTES = SLOTS_PER_BUCKET * SLOT_BYTES

_PTR = struct.Struct("<I")

#: A value record's header: value length, slab class.
_RECORD = struct.Struct("<HB")

#: Largest value a record holds: one whole slab less the header.
MAX_VALUE = SLAB_SIZES[-1] - _RECORD.size

#: A decoded slot: ``(key, pointer)``, or :data:`EMPTY`.
Slot = Tuple[Optional[bytes], int]
EMPTY: Slot = (None, 0)


def decode_slots(raw: bytes) -> List[Slot]:
    """The slots of one or more consecutive buckets' bytes."""
    slots: List[Slot] = []
    for at in range(0, len(raw), SLOT_BYTES):
        klen = raw[at]
        if klen == 0:
            slots.append(EMPTY)
        else:
            (pointer,) = _PTR.unpack_from(raw, at + 1 + MAX_INLINE_KEY)
            slots.append((raw[at + 1 : at + 1 + klen], pointer))
    return slots


class SlottedTable:
    """Inline-key buckets over slab-allocated value records.

    A subclass implements ``_get(key)`` and ``_put(key, value)`` (the
    replaced value's length, or ``None`` for a new key).
    """

    def __init__(
        self,
        memory: MemoryImage,
        allocator: SlabAllocator,
        num_buckets: int,
    ) -> None:
        self.memory = memory
        self.allocator = allocator
        self.num_buckets = num_buckets
        self.counters = Counter()
        self.count = 0
        self.stored_bytes = 0
        self.get_cost = RunningStats()
        self.put_cost = RunningStats()

    @classmethod
    def over(cls, memory_size: int, index_bytes: int) -> "SlottedTable":
        """A table over a fresh ``memory_size`` B image: the index first,
        ``index_bytes`` rounded down to whole buckets, the slabs after it."""
        num_buckets = index_bytes // BUCKET_BYTES
        index_bytes = num_buckets * BUCKET_BYTES
        memory = MemoryImage(memory_size)
        host = HostSlabManager(base=index_bytes, size=memory_size - index_bytes)
        return cls(memory, SlabAllocator(host), num_buckets)

    # -- buckets ------------------------------------------------------------

    def _addr(self, bucket: int) -> int:
        return (bucket % self.num_buckets) * BUCKET_BYTES

    def _read_bucket(self, bucket: int) -> List[Slot]:
        return decode_slots(self.memory.read(self._addr(bucket), BUCKET_BYTES))

    def _write_bucket(self, bucket: int, slots: List[Slot]) -> None:
        raw = b"".join(
            bytes([len(key)]) + key.ljust(MAX_INLINE_KEY, b"\x00")
            + _PTR.pack(pointer) if key else bytes(SLOT_BYTES)
            for key, pointer in slots
        )
        self.memory.write(self._addr(bucket), raw)

    # -- value records ------------------------------------------------------

    def _read_value(self, pointer: int) -> Tuple[bytes, int]:
        """``(value, slab class)`` of the record at ``pointer``."""
        addr = pointer * 32
        vlen, cls = _RECORD.unpack(self.memory.peek(addr, _RECORD.size))
        raw = self.memory.read(addr, class_size(cls))
        return raw[3 : 3 + vlen], cls

    def _write_value(self, value: bytes) -> int:
        """Allocate and write a record; returns its pointer."""
        cls = class_for_size(len(value) + _RECORD.size)
        addr = self.allocator.alloc_class(cls)
        self.memory.write(addr, _RECORD.pack(len(value), cls) + value)
        return addr // 32

    def _rewrite_value(self, pointer: int, value: bytes) -> Tuple[int, int]:
        """Store ``value`` in place of the record at ``pointer``: in place
        while its slab class still fits, else in a new record (the old one
        freed).  Returns ``(pointer, old value length)``."""
        old_value, old_cls = self._read_value(pointer)
        cls = class_for_size(len(value) + _RECORD.size)
        if cls == old_cls:
            self.memory.write(pointer * 32, _RECORD.pack(len(value), cls) + value)
            return pointer, len(old_value)
        new_pointer = self._write_value(value)
        self.allocator.free(pointer * 32, old_cls)
        return new_pointer, len(old_value)

    # -- operations ---------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        self._check_key(key)
        before = self.memory.accesses
        value = self._get(key)
        self.get_cost.record(self.memory.accesses - before)
        return value

    def put(self, key: bytes, value: bytes) -> bool:
        self._check_key(key)
        if len(value) > MAX_VALUE:
            raise KeyTooLargeError(
                f"value of {len(value)} B exceeds the {MAX_VALUE} B a "
                f"{SLAB_SIZES[-1]} B slab record holds"
            )
        before = self.memory.accesses
        replaced = self._put(key, value)
        self.put_cost.record(self.memory.accesses - before)
        if replaced is None:
            self.count += 1
            self.stored_bytes += len(key) + len(value)
        else:
            self.stored_bytes += len(value) - replaced
        return True

    def _check_key(self, key: bytes) -> None:
        if not key:
            raise KeyTooLargeError("key must be non-empty")
        if len(key) > MAX_INLINE_KEY:
            raise KeyTooLargeError(
                f"{type(self).__name__} inlines keys up to {MAX_INLINE_KEY} B"
            )
