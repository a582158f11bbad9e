"""The decoded bucket object the hash index used before it worked on the
line's bytes, kept verbatim as ``RefBucket``: the reference the byte codec
of :mod:`repro.core.hashindex` is compared against, answer for answer and
byte for byte (``tests/test_hashindex.py``), and the decode the reference
table walks of ``tests/test_hashtable.py`` use."""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Tuple

from repro.constants import (
    BUCKET_SIZE,
    POINTER_BITS,
    SECONDARY_HASH_BITS,
    SLOT_SIZE,
    SLOTS_PER_BUCKET,
)
from repro.core.hashindex import INLINE_HEADER, SLOT_AREA, pack_slot
from repro.errors import KVDirectError

_SECONDARY_MASK = (1 << SECONDARY_HASH_BITS) - 1
_POINTER_MASK = (1 << POINTER_BITS) - 1


def unpack_slot(word: int) -> Tuple[int, int]:
    """Unpack a slot word into (pointer, secondary hash)."""
    return word >> SECONDARY_HASH_BITS, word & _SECONDARY_MASK


def inline_slots_needed(kv_size: int) -> int:
    """Hash slots an inline KV of ``kv_size = klen + vlen`` bytes occupies."""
    if kv_size < 0:
        raise KVDirectError(f"negative KV size: {kv_size}")
    # Never below one slot: the header alone is two bytes.
    return -(-(kv_size + INLINE_HEADER) // SLOT_SIZE)


#: slot area, slab types, used, start, chain, reserved
_BUCKET = struct.Struct(f"<{SLOT_AREA}sIHHIH")
_SLOT_BITS = SLOT_SIZE * 8
_SLOT_WORD_MASK = (1 << _SLOT_BITS) - 1
#: The bitmap bits that name a slot.
_SLOTS_MASK = (1 << SLOTS_PER_BUCKET) - 1
#: Slot index of a one-bit bitmap (what ``x & -x`` leaves).
_SLOT_OF_BIT = {1 << index: index for index in range(SLOTS_PER_BUCKET)}
_NO_SLAB_TYPES = [0] * SLOTS_PER_BUCKET
_EMPTY_SLOT_AREA = bytes(SLOT_AREA)


class RefBucket:
    """A decoded, mutable 64 B hash bucket."""

    __slots__ = (
        "slot_bytes",
        "slab_types",
        "inline_used",
        "inline_start",
        "chain_ptr",
    )

    def __init__(self) -> None:
        self.slot_bytes = bytearray(SLOT_AREA)
        self.slab_types: List[int] = [0] * SLOTS_PER_BUCKET
        self.inline_used = 0
        self.inline_start = 0
        self.chain_ptr = 0

    # -- codec ---------------------------------------------------------------

    @classmethod
    def unpack(cls, data: bytes) -> "RefBucket":
        try:
            area, types, used, start, chain, __ = _BUCKET.unpack(data)
        except struct.error:
            raise KVDirectError(
                f"bucket must be {BUCKET_SIZE} bytes, got {len(data)}"
            ) from None
        bucket = cls.__new__(cls)
        bucket.slot_bytes = bytearray(area)
        bucket.slab_types = [
            types & 7, types >> 3 & 7, types >> 6 & 7, types >> 9 & 7,
            types >> 12 & 7, types >> 15 & 7, types >> 18 & 7,
            types >> 21 & 7, types >> 24 & 7, types >> 27 & 7,
        ] if types else [0] * SLOTS_PER_BUCKET
        bucket.inline_used = used
        bucket.inline_start = start
        bucket.chain_ptr = chain & _POINTER_MASK
        return bucket

    def pack(self) -> bytes:
        types_word = 0
        if self.slab_types != _NO_SLAB_TYPES:
            for i, slab_type in enumerate(self.slab_types):
                if not 0 <= slab_type <= 0x7:
                    raise KVDirectError(
                        f"slab type out of range: {slab_type}"
                    )
                types_word |= slab_type << (3 * i)
        if self.chain_ptr > _POINTER_MASK:
            raise KVDirectError(f"chain pointer out of range: {self.chain_ptr}")
        return _BUCKET.pack(
            self.slot_bytes,
            types_word,
            self.inline_used,
            self.inline_start,
            self.chain_ptr,
            0,
        )

    @classmethod
    def empty_bytes(cls) -> bytes:
        return bytes(BUCKET_SIZE)

    # -- slot access -----------------------------------------------------------

    def slot_word(self, index: int) -> int:
        self._check_slot(index)
        offset = index * SLOT_SIZE
        return int.from_bytes(self.slot_bytes[offset : offset + SLOT_SIZE], "little")

    def set_slot_word(self, index: int, word: int) -> None:
        self._check_slot(index)
        if word < 0 or word >= 1 << (SLOT_SIZE * 8):
            raise KVDirectError(f"slot word out of range: {word}")
        offset = index * SLOT_SIZE
        self.slot_bytes[offset : offset + SLOT_SIZE] = word.to_bytes(
            SLOT_SIZE, "little"
        )

    def _check_slot(self, index: int) -> None:
        if not 0 <= index < SLOTS_PER_BUCKET:
            raise IndexError(f"slot index {index} outside bucket")

    def is_inline_slot(self, index: int) -> bool:
        self._check_slot(index)
        return bool(self.inline_used & (1 << index))

    def is_free(self, index: int) -> bool:
        """A slot is free if it holds neither a pointer nor inline data."""
        return not self.is_inline_slot(index) and self.slot_word(index) == 0

    def free_slots(self) -> int:
        return sum(self.is_free(i) for i in range(SLOTS_PER_BUCKET))

    def find_free_run(self, length: int) -> Optional[int]:
        """First index of ``length`` contiguous free slots, if any."""
        if length <= 0 or length > SLOTS_PER_BUCKET:
            return None
        # Occupied: holds inline data, or a non-zero word.
        occupied = self.inline_used
        area = int.from_bytes(self.slot_bytes, "little")
        bit = 1
        while area:
            if area & _SLOT_WORD_MASK:
                occupied |= bit
            area >>= _SLOT_BITS
            bit <<= 1
        free = ~occupied & _SLOTS_MASK
        # Bit i survives k shifts iff slots i..i+k are all free.
        runs = free
        for shift in range(1, length):
            runs &= free >> shift
        return _SLOT_OF_BIT[runs & -runs] if runs else None

    # -- pointer slots ---------------------------------------------------------

    def pointer_slots(self) -> List[Tuple[int, int, int]]:
        """(slot index, pointer, secondary hash) of each occupied slot."""
        found = []
        area = int.from_bytes(self.slot_bytes, "little")
        inline = self.inline_used
        index = 0
        while area:
            word = area & _SLOT_WORD_MASK
            if word and not inline >> index & 1:
                found.append(
                    (index, word >> SECONDARY_HASH_BITS, word & _SECONDARY_MASK)
                )
            area >>= _SLOT_BITS
            index += 1
        return found

    def set_pointer(
        self, index: int, pointer: int, secondary: int, slab_type: int
    ) -> None:
        if self.is_inline_slot(index):
            raise KVDirectError(f"slot {index} holds inline data")
        self.set_slot_word(index, pack_slot(pointer, secondary))
        self.slab_types[index] = slab_type

    def clear_slot(self, index: int) -> None:
        self.set_slot_word(index, 0)
        self.slab_types[index] = 0

    # -- inline KVs --------------------------------------------------------------

    def inline_spans(self) -> Iterator[Tuple[int, int]]:
        """Yield (start slot, slot count) for each stored inline KV."""
        i = 0
        while i < SLOTS_PER_BUCKET:
            if self.inline_start & (1 << i):
                j = i + 1
                while (
                    j < SLOTS_PER_BUCKET
                    and (self.inline_used & (1 << j))
                    and not (self.inline_start & (1 << j))
                ):
                    j += 1
                yield i, j - i
                i = j
            else:
                i += 1

    def read_inline(self, start: int) -> Tuple[bytes, bytes]:
        """Read the inline KV beginning at ``start``; returns (key, value)."""
        if not self.inline_start & (1 << start):
            raise KVDirectError(f"slot {start} does not begin an inline KV")
        slot_bytes = self.slot_bytes
        offset = start * SLOT_SIZE
        data_start = offset + INLINE_HEADER
        value_start = data_start + slot_bytes[offset]
        return (
            bytes(slot_bytes[data_start:value_start]),
            bytes(slot_bytes[value_start : value_start + slot_bytes[offset + 1]]),
        )

    def write_inline(self, start: int, key: bytes, value: bytes) -> None:
        """Store an inline KV at ``start``; caller ensured the run is free."""
        size = len(key) + len(value)
        nslots = inline_slots_needed(size)
        if start < 0 or start + nslots > SLOTS_PER_BUCKET:
            raise KVDirectError("inline KV does not fit the bucket")
        if len(key) > 255 or len(value) > 255:
            raise KVDirectError("inline key/value length must fit one byte")
        offset = start * SLOT_SIZE
        record = bytes([len(key), len(value)]) + key + value
        padded = record.ljust(nslots * SLOT_SIZE, b"\x00")
        self.slot_bytes[offset : offset + nslots * SLOT_SIZE] = padded
        run = ((1 << nslots) - 1) << start
        self.inline_used |= run
        self.inline_start = self.inline_start & ~run | 1 << start
        self.slab_types[start : start + nslots] = [0] * nslots

    def erase_inline(self, start: int) -> None:
        """Remove the inline KV beginning at ``start``."""
        if not self.inline_start & (1 << start):
            raise KVDirectError(f"slot {start} does not begin an inline KV")
        offset = start * SLOT_SIZE
        slot_bytes = self.slot_bytes
        nslots = inline_slots_needed(slot_bytes[offset] + slot_bytes[offset + 1])
        if start + nslots > SLOTS_PER_BUCKET:  # lengths that overrun the area
            nslots = SLOTS_PER_BUCKET - start
        slot_bytes[offset : offset + nslots * SLOT_SIZE] = bytes(
            nslots * SLOT_SIZE
        )
        run = ((1 << nslots) - 1) << start
        self.inline_used &= ~run
        self.inline_start &= ~run

    def find_inline(self, key: bytes) -> Optional[int]:
        """Start slot of the inline KV with this key, if present."""
        starts = self.inline_start & _SLOTS_MASK
        slot_bytes = self.slot_bytes
        klen = len(key)
        while starts:
            low = starts & -starts
            starts ^= low
            start = _SLOT_OF_BIT[low]
            offset = start * SLOT_SIZE
            if slot_bytes[offset] == klen:
                data_start = offset + INLINE_HEADER
                if slot_bytes[data_start : data_start + klen] == key:
                    return start
        return None

    def has_no_entries(self) -> bool:
        """No inline KVs and no pointer slots (chain pointer ignored)."""
        return self.inline_used == 0 and self.slot_bytes == _EMPTY_SLOT_AREA

    def is_empty(self) -> bool:
        return self.chain_ptr == 0 and self.has_no_entries()
