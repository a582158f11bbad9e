"""The 64-byte hash bucket, queried and edited as its bytes (Figure 5).

Each bucket is one 64 B line::

    bytes  0..49   10 hash slots x 5 bytes
    bytes 50..53   10 x 3-bit slab type        (30 of 32 bits)
    bytes 54..55   inline "used" bitmap        (10 of 16 bits)
    bytes 56..57   inline "start" bitmap       (10 of 16 bits)
    bytes 58..61   chain pointer to next bucket (31 of 32 bits)
    bytes 62..63   reserved

A *pointer slot* packs a 31-bit pointer (32 B-granularity address into the
KV storage) and a 9-bit secondary hash into its 40 bits.  An *inline KV*
re-purposes a contiguous run of slots as raw bytes holding
``[klen u8][vlen u8][key][value]``; the two bitmaps mark which slots hold
inline data and where each inline KV begins (the paper's "bitmap marking
the beginning and end of inline KV pairs").

The secondary hash lets lookups skip non-matching pointer slots without
fetching the pointed-to KV; the full key is still compared after the fetch,
"at the cost of one additional memory access" on the 1/512 false-positive
path.

The hardware decides a bucket in one clock: the ten slots, the two bitmaps
and the secondary hashes are evaluated side by side, on the line as it
arrived.  So does this model.  A bucket is never decoded into an object:
the queries take the line as ``memory.read`` / ``memory.peek`` return it
and look at the bytes they need - the slots the start bitmap names (one
table lookup per bitmap value) begin the inline KVs to compare, the slots
outside the used bitmap are the ones that may hold pointers, and a slot's
secondary hash is its low nine bits - so a query is one frame whatever
the bucket holds.

A bucket is copied only to be changed.  :func:`edit` returns a
``bytearray`` of the line normalised as every stored bucket is - reserved
bytes zero, bits 30..31 of the slab-type word and bit 31 of the chain word
clear - and the edits change it in place for the caller to write back.  A
line that is only read is never normalised.  Bitmap bits 10..15 are carried
through untouched and never looked at, as a walk over ten slots never
looks at them.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from repro.constants import (
    BUCKET_SIZE,
    POINTER_BITS,
    SECONDARY_HASH_BITS,
    SLOT_SIZE,
    SLOTS_PER_BUCKET,
)
from repro.errors import KVDirectError

#: Bytes of slot area per bucket.
SLOT_AREA = SLOTS_PER_BUCKET * SLOT_SIZE

#: Granularity of slab pointers (bytes per pointer unit).
POINTER_GRANULARITY = 32

#: Per-inline-KV header: 1-byte key length + 1-byte value length.
INLINE_HEADER = 2

_SECONDARY_MASK = (1 << SECONDARY_HASH_BITS) - 1
_POINTER_MASK = (1 << POINTER_BITS) - 1
#: Byte offsets of the slab-type word, the two bitmaps and the chain word.
_TYPES, _USED, _START, _CHAIN = 50, 54, 56, 58
#: slab types, used, start: the words an inline or pointer edit rewrites.
_META = struct.Struct("<IHH")
#: The bitmap bits that name a slot.
_SLOTS_MASK = (1 << SLOTS_PER_BUCKET) - 1
#: (slot index, first byte) of each slot.
_SLOT_AT = tuple((i, i * SLOT_SIZE) for i in range(SLOTS_PER_BUCKET))
#: The ``_SLOT_AT`` entries of the slots a ten-bit bitmap names, in order.
_SLOTS_OF = tuple(
    tuple(at for at in _SLOT_AT if bits >> at[0] & 1)
    for bits in range(1 << SLOTS_PER_BUCKET)
)
_FREE_SLOT = bytes(SLOT_SIZE)
_EMPTY_SLOT_AREA = bytes(SLOT_AREA)


def pack_slot(pointer: int, secondary: int) -> int:
    """Pack a 31-bit pointer and 9-bit secondary hash into a slot word."""
    if not 0 <= pointer <= _POINTER_MASK:
        raise KVDirectError(f"pointer out of range: {pointer}")
    if not 0 <= secondary <= _SECONDARY_MASK:
        raise KVDirectError(f"secondary hash out of range: {secondary}")
    return (pointer << SECONDARY_HASH_BITS) | secondary


def max_inline_kv_size() -> int:
    """Largest klen + vlen that fits a whole bucket's slot area."""
    return SLOT_AREA - INLINE_HEADER


# -- queries: any 64 B line, read only ---------------------------------------


def find_inline(line: bytes, key: bytes) -> Optional[int]:
    """Start slot of the inline KV with this key, if present."""
    starts = line[_START] | line[_START + 1] << 8
    for slot, offset in _SLOTS_OF[starts & _SLOTS_MASK]:
        end = offset + INLINE_HEADER + line[offset]
        if end <= SLOT_AREA and line[offset + INLINE_HEADER : end] == key:
            return slot
    return None


def read_inline(line: bytes, start: int) -> Tuple[bytes, bytes]:
    """Read the inline KV beginning at ``start``; returns (key, value)."""
    if not (line[_START] | line[_START + 1] << 8) & (1 << start):
        raise KVDirectError(f"slot {start} does not begin an inline KV")
    area = line[:SLOT_AREA]
    offset = start * SLOT_SIZE
    data = offset + INLINE_HEADER
    value = data + area[offset]
    return (
        bytes(area[data:value]),
        bytes(area[value : value + area[offset + 1]]),
    )


def inline_spans(line: bytes) -> List[Tuple[int, int]]:
    """(start slot, slot count) of each stored inline KV."""
    used = line[_USED] | line[_USED + 1] << 8
    starts = line[_START] | line[_START + 1] << 8
    spans = []
    i = 0
    while i < SLOTS_PER_BUCKET:
        if starts >> i & 1:
            j = i + 1
            while (
                j < SLOTS_PER_BUCKET and used >> j & 1 and not starts >> j & 1
            ):
                j += 1
            spans.append((i, j - i))
            i = j
        else:
            i += 1
    return spans


def pointer_slots(
    line: bytes, secondary: Optional[int] = None
) -> List[Tuple[int, int, int]]:
    """(slot index, pointer, slab type) of each pointer slot - a non-zero
    word outside the used bitmap - in slot order; with ``secondary``, of
    those whose secondary hash it is."""
    found = []
    if line[:SLOT_AREA] == _EMPTY_SLOT_AREA:
        return found
    used = line[_USED] | line[_USED + 1] << 8
    for slot, offset in _SLOTS_OF[~used & _SLOTS_MASK]:
        if (
            secondary is not None
            and line[offset] | (line[offset + 1] & 1) << 8 != secondary
        ) or line[offset : offset + SLOT_SIZE] == _FREE_SLOT:
            continue
        found.append((
            slot,
            line[offset + 1] >> 1 | line[offset + 2] << 7
            | line[offset + 3] << 15 | line[offset + 4] << 23,
            (line[_TYPES] | line[_TYPES + 1] << 8 | line[_TYPES + 2] << 16
             | line[_TYPES + 3] << 24) >> 3 * slot & 7,
        ))
    return found


def find_free_run(line: bytes, length: int) -> Optional[int]:
    """First index of ``length`` contiguous free slots - neither inline
    data nor a non-zero word - if any."""
    if not 0 < length <= SLOTS_PER_BUCKET:
        return None
    free = ~(line[_USED] | line[_USED + 1] << 8) & _SLOTS_MASK
    if line[:SLOT_AREA] != _EMPTY_SLOT_AREA:
        for slot, offset in _SLOTS_OF[free]:
            if line[offset : offset + SLOT_SIZE] != _FREE_SLOT:
                free ^= 1 << slot
    # Bit i survives k shifts iff slots i..i+k are all free.
    runs = free
    for shift in range(1, length):
        runs &= free >> shift
    return _SLOTS_OF[runs][0][0] if runs else None


def chain_ptr(line: bytes) -> int:
    """Pointer (32 B units) to the next bucket of the chain; 0 ends it."""
    return (
        line[_CHAIN] | line[_CHAIN + 1] << 8 | line[_CHAIN + 2] << 16
        | (line[_CHAIN + 3] & 0x7F) << 24
    )


def has_no_entries(line: bytes) -> bool:
    """No inline KVs and no pointer slots (chain pointer ignored)."""
    return (
        not line[_USED] and not line[_USED + 1]
        and line[:SLOT_AREA] == _EMPTY_SLOT_AREA
    )


# -- edits: a bytearray from edit(), changed in place ------------------------


def edit(line: bytes) -> bytearray:
    """A copy of ``line`` to change, normalised as a stored bucket is."""
    if len(line) != BUCKET_SIZE:
        raise KVDirectError(
            f"bucket must be {BUCKET_SIZE} bytes, got {len(line)}"
        )
    bucket = bytearray(line)
    bucket[_TYPES + 3] &= 0x3F
    bucket[_CHAIN + 3] &= 0x7F
    bucket[62] = bucket[63] = 0
    return bucket


def write_inline(
    bucket: bytearray, start: int, key: bytes, value: bytes
) -> None:
    """Store an inline KV at ``start``; caller ensured the run is free."""
    klen, vlen = len(key), len(value)
    nslots = -(-(klen + vlen + INLINE_HEADER) // SLOT_SIZE)
    if start < 0 or start + nslots > SLOTS_PER_BUCKET:
        raise KVDirectError("inline KV does not fit the bucket")
    if klen > 255 or vlen > 255:
        raise KVDirectError("inline key/value length must fit one byte")
    offset = start * SLOT_SIZE
    pad = nslots * SLOT_SIZE - INLINE_HEADER - klen - vlen
    bucket[offset : offset + nslots * SLOT_SIZE] = (
        bytes((klen, vlen)) + key + value + bytes(pad)
    )
    run = ((1 << nslots) - 1) << start
    types, used, starts = _META.unpack_from(bucket, _TYPES)
    _META.pack_into(
        bucket, _TYPES, types & ~(((1 << 3 * nslots) - 1) << 3 * start),
        used | run, starts & ~run | 1 << start,
    )


def erase_inline(bucket: bytearray, start: int) -> None:
    """Remove the inline KV beginning at ``start``."""
    types, used, starts = _META.unpack_from(bucket, _TYPES)
    if not starts & (1 << start):
        raise KVDirectError(f"slot {start} does not begin an inline KV")
    offset = start * SLOT_SIZE
    nslots = -(-(bucket[offset] + bucket[offset + 1] + INLINE_HEADER)
               // SLOT_SIZE)
    if start + nslots > SLOTS_PER_BUCKET:  # lengths that overrun the area
        nslots = SLOTS_PER_BUCKET - start
    bucket[offset : offset + nslots * SLOT_SIZE] = bytes(nslots * SLOT_SIZE)
    run = ((1 << nslots) - 1) << start
    _META.pack_into(bucket, _TYPES, types, used & ~run, starts & ~run)


def set_pointer(
    bucket: bytearray, index: int, pointer: int, secondary: int, slab_type: int
) -> None:
    """Point slot ``index`` at a slab record of class ``slab_type``."""
    if not 0 <= index < SLOTS_PER_BUCKET:
        raise IndexError(f"slot index {index} outside bucket")
    types, used, starts = _META.unpack_from(bucket, _TYPES)
    if used & (1 << index):
        raise KVDirectError(f"slot {index} holds inline data")
    word = pack_slot(pointer, secondary)
    if not 0 <= slab_type <= 0x7:
        raise KVDirectError(f"slab type out of range: {slab_type}")
    offset = index * SLOT_SIZE
    bucket[offset : offset + SLOT_SIZE] = word.to_bytes(SLOT_SIZE, "little")
    types = types & ~(0x7 << 3 * index) | slab_type << 3 * index
    _META.pack_into(bucket, _TYPES, types, used, starts)


def clear_slot(bucket: bytearray, index: int) -> None:
    """Zero slot ``index`` and its slab type."""
    if not 0 <= index < SLOTS_PER_BUCKET:
        raise IndexError(f"slot index {index} outside bucket")
    offset = index * SLOT_SIZE
    bucket[offset : offset + SLOT_SIZE] = _FREE_SLOT
    types, used, starts = _META.unpack_from(bucket, _TYPES)
    _META.pack_into(bucket, _TYPES, types & ~(0x7 << 3 * index), used, starts)


def set_chain(bucket: bytearray, pointer: int) -> None:
    """Chain the bucket to the one at ``pointer`` (32 B units; 0 = none)."""
    if not 0 <= pointer <= _POINTER_MASK:
        raise KVDirectError(f"chain pointer out of range: {pointer}")
    bucket[_CHAIN : _CHAIN + 4] = pointer.to_bytes(4, "little")
