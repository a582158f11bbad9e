"""Unit tests for the 64 B bucket codec (Figure 5)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.constants import BUCKET_SIZE, SLOTS_PER_BUCKET
from repro.core.hashindex import (
    Bucket,
    inline_slots_needed,
    max_inline_kv_size,
    pack_slot,
    unpack_slot,
)
from repro.errors import KVDirectError


class TestSlotWords:
    def test_pack_unpack_roundtrip(self):
        word = pack_slot(pointer=123456, secondary=321)
        assert unpack_slot(word) == (123456, 321)

    def test_limits(self):
        max_ptr = (1 << 31) - 1
        max_sec = (1 << 9) - 1
        assert unpack_slot(pack_slot(max_ptr, max_sec)) == (max_ptr, max_sec)

    def test_out_of_range_rejected(self):
        with pytest.raises(KVDirectError):
            pack_slot(1 << 31, 0)
        with pytest.raises(KVDirectError):
            pack_slot(0, 1 << 9)
        with pytest.raises(KVDirectError):
            pack_slot(-1, 0)

    @given(st.integers(0, (1 << 31) - 1), st.integers(0, 511))
    def test_roundtrip_property(self, pointer, secondary):
        assert unpack_slot(pack_slot(pointer, secondary)) == (pointer, secondary)

    def test_slot_word_fits_five_bytes(self):
        word = pack_slot((1 << 31) - 1, 511)
        assert word < 1 << 40


class TestInlineSizing:
    def test_small_kv(self):
        # 2 B header + 8 B KV = 10 B -> 2 slots
        assert inline_slots_needed(8) == 2

    def test_exact_slot(self):
        assert inline_slots_needed(3) == 1  # 2 + 3 = 5
        assert inline_slots_needed(4) == 2  # 2 + 4 = 6

    def test_max(self):
        assert inline_slots_needed(max_inline_kv_size()) == SLOTS_PER_BUCKET

    def test_negative_rejected(self):
        with pytest.raises(KVDirectError):
            inline_slots_needed(-1)


class TestBucketCodec:
    def test_empty_roundtrip(self):
        bucket = Bucket()
        assert Bucket.unpack(bucket.pack()).pack() == bucket.pack()
        assert bucket.pack() == Bucket.empty_bytes()

    def test_size(self):
        assert len(Bucket().pack()) == BUCKET_SIZE

    def test_pointer_roundtrip(self):
        bucket = Bucket()
        bucket.set_pointer(3, pointer=999, secondary=77, slab_type=4)
        decoded = Bucket.unpack(bucket.pack())
        slots = list(decoded.pointer_slots())
        assert slots == [(3, 999, 77)]
        assert decoded.slab_types[3] == 4

    def test_chain_pointer_roundtrip(self):
        bucket = Bucket()
        bucket.chain_ptr = (1 << 31) - 1
        assert Bucket.unpack(bucket.pack()).chain_ptr == (1 << 31) - 1

    def test_bad_length_rejected(self):
        with pytest.raises(KVDirectError):
            Bucket.unpack(b"\x00" * 63)

    def test_bad_slab_type_rejected(self):
        bucket = Bucket()
        bucket.slab_types[0] = 8
        with pytest.raises(KVDirectError):
            bucket.pack()


class TestInlineKVs:
    def test_write_read(self):
        bucket = Bucket()
        bucket.write_inline(0, b"key", b"value")
        assert bucket.read_inline(0) == (b"key", b"value")

    def test_find_inline(self):
        bucket = Bucket()
        bucket.write_inline(0, b"aa", b"11")
        bucket.write_inline(2, b"bb", b"2222")
        assert bucket.find_inline(b"aa") == 0
        assert bucket.find_inline(b"bb") == 2
        assert bucket.find_inline(b"cc") is None

    def test_spans(self):
        bucket = Bucket()
        bucket.write_inline(0, b"aa", b"11")  # 6 B -> 2 slots
        bucket.write_inline(2, b"b", b"")  # 3 B -> 1 slot
        assert list(bucket.inline_spans()) == [(0, 2), (2, 1)]

    def test_erase(self):
        bucket = Bucket()
        bucket.write_inline(0, b"key", b"value")
        bucket.erase_inline(0)
        assert bucket.find_inline(b"key") is None
        assert bucket.free_slots() == SLOTS_PER_BUCKET
        assert bucket.is_empty()

    def test_codec_roundtrip_with_inline(self):
        bucket = Bucket()
        bucket.write_inline(4, b"hello", b"world!")
        decoded = Bucket.unpack(bucket.pack())
        assert decoded.read_inline(4) == (b"hello", b"world!")
        assert decoded.find_inline(b"hello") == 4

    def test_inline_and_pointer_coexist(self):
        bucket = Bucket()
        bucket.write_inline(0, b"aaa", b"bbb")  # 8 B -> 2 slots
        bucket.set_pointer(5, 1234, 56, 2)
        decoded = Bucket.unpack(bucket.pack())
        assert decoded.find_inline(b"aaa") == 0
        assert list(decoded.pointer_slots()) == [(5, 1234, 56)]

    def test_overflow_rejected(self):
        bucket = Bucket()
        with pytest.raises(KVDirectError):
            bucket.write_inline(9, b"long-key", b"long-value")

    def test_read_non_start_rejected(self):
        bucket = Bucket()
        bucket.write_inline(0, b"abcd", b"efgh")
        with pytest.raises(KVDirectError):
            bucket.read_inline(1)

    def test_full_bucket_inline(self):
        bucket = Bucket()
        key, value = b"k" * 8, b"v" * 40  # 48 B + 2 header = 50 B = 10 slots
        bucket.write_inline(0, key, value)
        assert bucket.read_inline(0) == (key, value)
        assert bucket.free_slots() == 0


class TestFreeRuns:
    def test_empty_bucket(self):
        assert Bucket().find_free_run(10) == 0
        assert Bucket().find_free_run(1) == 0

    def test_after_occupancy(self):
        bucket = Bucket()
        bucket.set_pointer(0, 1, 1, 0)
        bucket.write_inline(4, b"ab", b"cd")  # slots 4-5
        assert bucket.find_free_run(3) == 1
        assert bucket.find_free_run(4) == 6
        assert bucket.find_free_run(5) is None

    def test_zero_length(self):
        assert Bucket().find_free_run(0) is None
        assert Bucket().find_free_run(11) is None

    def test_is_free(self):
        bucket = Bucket()
        bucket.set_pointer(2, 5, 5, 0)
        assert not bucket.is_free(2)
        assert bucket.is_free(3)
        bucket.clear_slot(2)
        assert bucket.is_free(2)

    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(1, 1 << 30)),
            max_size=10,
        )
    )
    def test_free_count_consistency(self, placements):
        bucket = Bucket()
        for slot, pointer in placements:
            if bucket.is_free(slot):
                bucket.set_pointer(slot, pointer, 0, 0)
        occupied = len(list(bucket.pointer_slots()))
        assert bucket.free_slots() == SLOTS_PER_BUCKET - occupied


class TestWireLayoutStability:
    """The 64 B bucket byte layout is a stable on-'disk' format: these
    tests pin the exact byte positions so refactors cannot silently
    change the memory image."""

    def test_slot_bytes_little_endian(self):
        bucket = Bucket()
        bucket.set_slot_word(0, 0x0102030405)
        packed = bucket.pack()
        assert packed[0:5] == bytes([0x05, 0x04, 0x03, 0x02, 0x01])

    def test_slot_positions(self):
        bucket = Bucket()
        bucket.set_slot_word(9, 0xFF)
        packed = bucket.pack()
        assert packed[45] == 0xFF  # slot 9 starts at byte 45
        assert packed[46:50] == b"\x00\x00\x00\x00"

    def test_slab_types_at_byte_50(self):
        bucket = Bucket()
        bucket.slab_types[0] = 0b101
        bucket.slab_types[1] = 0b011
        packed = bucket.pack()
        # 3-bit fields LSB-first within a u32 at byte 50.
        assert packed[50] == 0b101 | (0b011 << 3)

    def test_inline_bitmaps_at_bytes_54_56(self):
        bucket = Bucket()
        bucket.write_inline(2, b"ab", b"c")  # one slot at index 2
        packed = bucket.pack()
        assert packed[54] == 1 << 2  # used bitmap
        assert packed[56] == 1 << 2  # start bitmap

    def test_chain_pointer_at_byte_58(self):
        bucket = Bucket()
        bucket.chain_ptr = 0x0A0B0C0D
        packed = bucket.pack()
        assert packed[58:62] == bytes([0x0D, 0x0C, 0x0B, 0x0A])

    def test_reserved_tail_zero(self):
        bucket = Bucket()
        bucket.write_inline(0, b"k", b"v")
        bucket.chain_ptr = 123
        assert bucket.pack()[62:64] == b"\x00\x00"


# -- the bitmap forms against the slot walk they replaced ---------------------

import struct

from repro.constants import SLOT_SIZE
from repro.core.hashindex import SLOT_AREA

_REF_META = struct.Struct("<IHHIH")


class SlotWalkBucket(Bucket):
    """The per-slot bodies as they were before the bitmap forms - ``is_free
    -> is_inline_slot -> _check_slot -> slot_word`` per slot, a decode by
    slices - kept verbatim as a test-only reference."""

    __slots__ = ()

    @classmethod
    def unpack(cls, data):
        if len(data) != BUCKET_SIZE:
            raise KVDirectError(
                f"bucket must be {BUCKET_SIZE} bytes, got {len(data)}"
            )
        bucket = cls()
        bucket.slot_bytes = bytearray(data[:SLOT_AREA])
        types_word, used, start, chain, __ = _REF_META.unpack(data[SLOT_AREA:])
        bucket.slab_types = [
            (types_word >> (3 * i)) & 0x7 for i in range(SLOTS_PER_BUCKET)
        ]
        bucket.inline_used = used
        bucket.inline_start = start
        bucket.chain_ptr = chain & ((1 << 31) - 1)
        return bucket

    def pack(self):
        types_word = 0
        for i, slab_type in enumerate(self.slab_types):
            if not 0 <= slab_type <= 0x7:
                raise KVDirectError(f"slab type out of range: {slab_type}")
            types_word |= slab_type << (3 * i)
        if self.chain_ptr > (1 << 31) - 1:
            raise KVDirectError(f"chain pointer out of range: {self.chain_ptr}")
        return bytes(self.slot_bytes) + _REF_META.pack(
            types_word, self.inline_used, self.inline_start, self.chain_ptr, 0
        )

    def find_free_run(self, length):
        if length <= 0 or length > SLOTS_PER_BUCKET:
            return None
        run = 0
        for i in range(SLOTS_PER_BUCKET):
            run = run + 1 if self.is_free(i) else 0
            if run == length:
                return i - length + 1
        return None

    def pointer_slots(self):
        for i in range(SLOTS_PER_BUCKET):
            if self.is_inline_slot(i):
                continue
            word = self.slot_word(i)
            if word:
                pointer, secondary = unpack_slot(word)
                yield i, pointer, secondary

    def write_inline(self, start, key, value):
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
        for i in range(start, start + nslots):
            self.inline_used |= 1 << i
            self.inline_start &= ~(1 << i)
            self.slab_types[i] = 0
        self.inline_start |= 1 << start

    def erase_inline(self, start):
        key, value = self.read_inline(start)
        nslots = inline_slots_needed(len(key) + len(value))
        offset = start * SLOT_SIZE
        self.slot_bytes[offset : offset + nslots * SLOT_SIZE] = bytes(
            nslots * SLOT_SIZE
        )
        for i in range(start, start + nslots):
            self.inline_used &= ~(1 << i)
            self.inline_start &= ~(1 << i)

    def find_inline(self, key):
        for start, __ in self.inline_spans():
            offset = start * SLOT_SIZE
            klen = self.slot_bytes[offset]
            if klen != len(key):
                continue
            data_start = offset + 2
            if self.slot_bytes[data_start : data_start + klen] == key:
                return start
        return None

    def has_no_entries(self):
        return self.inline_used == 0 and all(
            self.slot_word(i) == 0 for i in range(SLOTS_PER_BUCKET)
        )


def assert_same_answers(bucket, reference, keys=()):
    """Every query of the bitmap forms against the slot walk's."""
    assert bytes(bucket.slot_bytes) == bytes(reference.slot_bytes)
    assert bucket.slab_types == reference.slab_types
    assert bucket.inline_used == reference.inline_used
    assert bucket.inline_start == reference.inline_start
    assert bucket.chain_ptr == reference.chain_ptr
    assert bucket.pack() == reference.pack()
    for length in range(-1, SLOTS_PER_BUCKET + 2):
        assert bucket.find_free_run(length) == reference.find_free_run(length)
    assert bucket.pointer_slots() == list(reference.pointer_slots())
    assert list(bucket.inline_spans()) == list(reference.inline_spans())
    assert bucket.has_no_entries() == reference.has_no_entries()
    assert bucket.is_empty() == reference.is_empty()
    assert bucket.free_slots() == reference.free_slots()
    # Every key any slot could be read as holding, plus the caller's.
    area = bytes(bucket.slot_bytes)
    candidates = list(keys) + [
        area[5 * i + 2 : 5 * i + 2 + area[5 * i]]
        for i in range(SLOTS_PER_BUCKET)
    ]
    for key in candidates:
        assert bucket.find_inline(key) == reference.find_inline(key)


#: One slot of raw bytes: free (zero) half the time, so free runs, empty
#: buckets and sparse pointer slots all come up.
raw_slots = st.lists(
    st.one_of(st.just(bytes(5)), st.binary(min_size=5, max_size=5)),
    min_size=SLOTS_PER_BUCKET, max_size=SLOTS_PER_BUCKET,
)
#: Bitmaps with and without the six bits no slot owns.
bitmaps = st.one_of(st.integers(0, 0x3FF), st.integers(0, 0xFFFF), st.just(0))


class TestBitmapFormsMatchTheSlotWalk:
    @given(raw_slots, st.integers(0, 2**32 - 1), bitmaps, bitmaps,
           st.integers(0, 2**32 - 1), st.integers(0, 2**16 - 1))
    def test_any_64_bytes(self, slots, types, used, start, chain, reserved):
        """Raw images, valid or not: bitmap bits 10..15, slab-type bits
        30..31, chain bit 31 and the reserved tail are ignored or dropped
        exactly as the slot walk ignores or drops them."""
        data = b"".join(slots) + _REF_META.pack(
            types, used, start, chain, reserved
        )
        bucket, reference = Bucket.unpack(data), SlotWalkBucket.unpack(data)
        assert_same_answers(bucket, reference)
        # The stray bitmap bits ride through pack() untouched.
        assert bucket.pack()[54:58] == data[54:58]
        for slot in range(SLOTS_PER_BUCKET):
            if not start >> slot & 1:
                continue
            assert bucket.read_inline(slot) == reference.read_inline(slot)
            erased, erased_reference = (
                cls.unpack(data) for cls in (Bucket, SlotWalkBucket)
            )
            erased.erase_inline(slot)
            erased_reference.erase_inline(slot)
            assert_same_answers(erased, erased_reference)

    @given(st.lists(st.tuples(
        st.sampled_from(("inline", "pointer", "erase", "clear", "chain")),
        st.binary(min_size=1, max_size=12), st.binary(max_size=30),
        st.integers(0, 2**31 - 1), st.integers(0, 511), st.integers(0, 7),
    ), max_size=25))
    def test_random_mixes_built_through_the_api(self, steps):
        """Inline KVs, pointer slots, frees and chain pointers, applied in
        lockstep: same placement decisions, same bytes after every step."""
        bucket, reference = Bucket(), SlotWalkBucket()
        keys = []
        for action, key, value, pointer, secondary, slab_type in steps:
            if action == "inline":
                if len(key) + len(value) > max_inline_kv_size():
                    continue
                run = bucket.find_free_run(
                    inline_slots_needed(len(key) + len(value))
                )
                if run is None or bucket.find_inline(key) is not None:
                    continue
                bucket.write_inline(run, key, value)
                reference.write_inline(run, key, value)
                keys.append(key)
            elif action == "pointer":
                run = bucket.find_free_run(1)
                if run is None or not (pointer or secondary):
                    continue
                bucket.set_pointer(run, pointer, secondary, slab_type)
                reference.set_pointer(run, pointer, secondary, slab_type)
            elif action == "erase":
                spans = list(bucket.inline_spans())
                if not spans:
                    continue
                start = spans[pointer % len(spans)][0]
                bucket.erase_inline(start)
                reference.erase_inline(start)
            elif action == "clear":
                slots = bucket.pointer_slots()
                if not slots:
                    continue
                slot = slots[pointer % len(slots)][0]
                bucket.clear_slot(slot)
                reference.clear_slot(slot)
            else:
                bucket.chain_ptr = reference.chain_ptr = pointer
            assert_same_answers(bucket, reference, keys)
            # And the image decodes back to the same thing on both sides.
            assert_same_answers(
                Bucket.unpack(bucket.pack()),
                SlotWalkBucket.unpack(reference.pack()), keys,
            )

    def test_a_short_or_long_image_is_rejected_by_both(self):
        for cls in (Bucket, SlotWalkBucket):
            for size in (0, BUCKET_SIZE - 1, BUCKET_SIZE + 1):
                with pytest.raises(KVDirectError, match=f"got {size}"):
                    cls.unpack(bytes(size))
