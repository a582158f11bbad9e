"""Unit tests for the 64 B bucket codec (Figure 5), which queries and
edits a bucket as its bytes."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.constants import BUCKET_SIZE, SLOT_SIZE, SLOTS_PER_BUCKET
from repro.core.hashindex import (
    SLOT_AREA,
    chain_ptr,
    clear_slot,
    edit,
    erase_inline,
    find_free_run,
    find_inline,
    has_no_entries,
    inline_spans,
    max_inline_kv_size,
    pack_slot,
    pointer_slots,
    read_inline,
    set_chain,
    set_pointer,
    write_inline,
)
from repro.errors import KVDirectError
from tests.ref_bucket import RefBucket, inline_slots_needed, unpack_slot


def new_bucket():
    """An empty bucket to edit, as a fresh chain bucket starts."""
    return bytearray(BUCKET_SIZE)


def free_slots(line):
    """Slots outside the used bitmap (bytes 54..55) that hold no pointer."""
    used = line[54] | line[55] << 8
    pointers = {slot for slot, __, __ in pointer_slots(line)}
    return [
        i for i in range(SLOTS_PER_BUCKET)
        if not used >> i & 1 and i not in pointers
    ]


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
        for pointer, secondary in ((1 << 31, 0), (0, 1 << 9), (-1, 0)):
            bucket = new_bucket()
            with pytest.raises(KVDirectError):
                set_pointer(bucket, 0, pointer, secondary, 0)
            assert bucket == new_bucket()

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
        empty = bytes(BUCKET_SIZE)
        assert edit(empty) == empty
        assert has_no_entries(empty) and not chain_ptr(empty)
        assert pointer_slots(empty) == [] and inline_spans(empty) == []

    def test_size(self):
        assert len(edit(bytes(BUCKET_SIZE))) == BUCKET_SIZE
        bucket = new_bucket()
        write_inline(bucket, 0, b"key", b"value")
        set_pointer(bucket, 5, 1, 1, 1)
        set_chain(bucket, 7)
        assert len(bucket) == BUCKET_SIZE

    def test_pointer_roundtrip(self):
        bucket = new_bucket()
        set_pointer(bucket, 3, pointer=999, secondary=77, slab_type=4)
        line = bytes(bucket)
        assert pointer_slots(line) == [(3, 999, 4)]
        assert pointer_slots(line, 77) == [(3, 999, 4)]
        assert pointer_slots(line, 78) == []

    def test_chain_pointer_roundtrip(self):
        bucket = new_bucket()
        set_chain(bucket, (1 << 31) - 1)
        assert chain_ptr(bytes(bucket)) == (1 << 31) - 1
        with pytest.raises(KVDirectError):
            set_chain(bucket, 1 << 31)

    def test_bad_length_rejected(self):
        with pytest.raises(KVDirectError):
            edit(b"\x00" * 63)

    def test_bad_slab_type_rejected(self):
        bucket = new_bucket()
        with pytest.raises(KVDirectError):
            set_pointer(bucket, 0, 1, 1, 8)
        assert bucket == new_bucket()


class TestInlineKVs:
    def test_write_read(self):
        bucket = new_bucket()
        write_inline(bucket, 0, b"key", b"value")
        assert read_inline(bucket, 0) == (b"key", b"value")
        assert all(type(part) is bytes for part in read_inline(bucket, 0))

    def test_find_inline(self):
        bucket = new_bucket()
        write_inline(bucket, 0, b"aa", b"11")
        write_inline(bucket, 2, b"bb", b"2222")
        assert find_inline(bucket, b"aa") == 0
        assert find_inline(bucket, b"bb") == 2
        assert find_inline(bucket, b"cc") is None

    def test_spans(self):
        bucket = new_bucket()
        write_inline(bucket, 0, b"aa", b"11")  # 6 B -> 2 slots
        write_inline(bucket, 2, b"b", b"")  # 3 B -> 1 slot
        assert inline_spans(bucket) == [(0, 2), (2, 1)]

    def test_erase(self):
        bucket = new_bucket()
        write_inline(bucket, 0, b"key", b"value")
        erase_inline(bucket, 0)
        assert find_inline(bucket, b"key") is None
        assert free_slots(bucket) == list(range(SLOTS_PER_BUCKET))
        assert has_no_entries(bucket) and not chain_ptr(bucket)

    def test_codec_roundtrip_with_inline(self):
        bucket = new_bucket()
        write_inline(bucket, 4, b"hello", b"world!")
        line = bytes(bucket)
        assert read_inline(line, 4) == (b"hello", b"world!")
        assert find_inline(line, b"hello") == 4

    def test_inline_and_pointer_coexist(self):
        bucket = new_bucket()
        write_inline(bucket, 0, b"aaa", b"bbb")  # 8 B -> 2 slots
        set_pointer(bucket, 5, 1234, 56, 2)
        line = bytes(bucket)
        assert find_inline(line, b"aaa") == 0
        assert pointer_slots(line) == [(5, 1234, 2)]
        with pytest.raises(KVDirectError, match="holds inline data"):
            set_pointer(bucket, 1, 1, 1, 1)

    def test_overflow_rejected(self):
        bucket = new_bucket()
        with pytest.raises(KVDirectError):
            write_inline(bucket, 9, b"long-key", b"long-value")
        assert bucket == new_bucket()

    def test_read_non_start_rejected(self):
        bucket = new_bucket()
        write_inline(bucket, 0, b"abcd", b"efgh")
        with pytest.raises(KVDirectError):
            read_inline(bucket, 1)
        with pytest.raises(KVDirectError):
            erase_inline(bucket, 1)

    def test_full_bucket_inline(self):
        bucket = new_bucket()
        key, value = b"k" * 8, b"v" * 40  # 48 B + 2 header = 50 B = 10 slots
        write_inline(bucket, 0, key, value)
        assert read_inline(bucket, 0) == (key, value)
        assert free_slots(bucket) == []
        assert find_free_run(bucket, 1) is None


class TestFreeRuns:
    def test_empty_bucket(self):
        assert find_free_run(bytes(BUCKET_SIZE), 10) == 0
        assert find_free_run(bytes(BUCKET_SIZE), 1) == 0

    def test_after_occupancy(self):
        bucket = new_bucket()
        set_pointer(bucket, 0, 1, 1, 0)
        write_inline(bucket, 4, b"ab", b"cd")  # slots 4-5
        assert find_free_run(bucket, 3) == 1
        assert find_free_run(bucket, 4) == 6
        assert find_free_run(bucket, 5) is None

    def test_zero_length(self):
        assert find_free_run(bytes(BUCKET_SIZE), 0) is None
        assert find_free_run(bytes(BUCKET_SIZE), 11) is None

    def test_is_free(self):
        bucket = new_bucket()
        set_pointer(bucket, 2, 5, 5, 0)
        assert 2 not in free_slots(bucket)
        assert 3 in free_slots(bucket)
        clear_slot(bucket, 2)
        assert 2 in free_slots(bucket)
        assert bucket == new_bucket()
        with pytest.raises(IndexError):
            clear_slot(bucket, SLOTS_PER_BUCKET)

    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(1, 1 << 30)),
            max_size=10,
        )
    )
    def test_free_count_consistency(self, placements):
        bucket = new_bucket()
        for slot, pointer in placements:
            if slot in free_slots(bucket):
                set_pointer(bucket, slot, pointer, 0, 0)
        occupied = len(pointer_slots(bucket))
        assert len(free_slots(bucket)) == SLOTS_PER_BUCKET - occupied


class TestWireLayoutStability:
    """The 64 B bucket byte layout is a stable on-'disk' format: these
    tests pin the exact byte positions so refactors cannot silently
    change the memory image."""

    def test_slot_bytes_little_endian(self):
        bucket = new_bucket()
        set_pointer(bucket, 0, *unpack_slot(0x0102030405), 0)
        assert bucket[0:5] == bytes([0x05, 0x04, 0x03, 0x02, 0x01])

    def test_slot_positions(self):
        bucket = new_bucket()
        set_pointer(bucket, 9, *unpack_slot(0xFF), 0)
        assert bucket[45] == 0xFF  # slot 9 starts at byte 45
        assert bucket[46:50] == b"\x00\x00\x00\x00"

    def test_slab_types_at_byte_50(self):
        bucket = new_bucket()
        set_pointer(bucket, 0, 1, 0, 0b101)
        set_pointer(bucket, 1, 2, 0, 0b011)
        # 3-bit fields LSB-first within a u32 at byte 50.
        assert bucket[50] == 0b101 | (0b011 << 3)

    def test_inline_bitmaps_at_bytes_54_56(self):
        bucket = new_bucket()
        write_inline(bucket, 2, b"ab", b"c")  # one slot at index 2
        assert bucket[54] == 1 << 2  # used bitmap
        assert bucket[56] == 1 << 2  # start bitmap

    def test_chain_pointer_at_byte_58(self):
        bucket = new_bucket()
        set_chain(bucket, 0x0A0B0C0D)
        assert bucket[58:62] == bytes([0x0D, 0x0C, 0x0B, 0x0A])

    def test_reserved_tail_zero(self):
        line = bytes(62) + b"\xAB\xCD"
        bucket = edit(line)
        write_inline(bucket, 0, b"k", b"v")
        set_chain(bucket, 123)
        assert bucket[62:64] == b"\x00\x00"
        assert line[62:64] == b"\xAB\xCD"  # the line read stays as read


# -- the byte codec against the decoded object it replaced -------------------

_REF_META = struct.Struct("<IHHIH")


class SlotWalkBucket(RefBucket):
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


def raised(call, *args):
    """The exception type ``call(*args)`` raises, or None."""
    try:
        call(*args)
    except Exception as exc:  # noqa: BLE001 - the type is the answer
        return type(exc)
    return None


def assert_same_answers(line, reference, keys=()):
    """Every query of the byte codec on ``line`` against the decoded
    ``reference`` object's answer."""
    slots = list(reference.pointer_slots())
    assert pointer_slots(line) == [
        (slot, pointer, reference.slab_types[slot])
        for slot, pointer, __ in slots
    ]
    for secondary in {sec for __, __, sec in slots} | {0, 511}:
        assert pointer_slots(line, secondary) == [
            (slot, pointer, reference.slab_types[slot])
            for slot, pointer, sec in slots if sec == secondary
        ]
    for length in range(-1, SLOTS_PER_BUCKET + 2):
        assert find_free_run(line, length) == reference.find_free_run(length)
    assert inline_spans(line) == list(reference.inline_spans())
    assert has_no_entries(line) == reference.has_no_entries()
    assert chain_ptr(line) == reference.chain_ptr
    assert free_slots(line) == [
        i for i in range(SLOTS_PER_BUCKET) if reference.is_free(i)
    ]
    for slot in range(SLOTS_PER_BUCKET):
        if reference.inline_start >> slot & 1:
            assert read_inline(line, slot) == reference.read_inline(slot)
        else:
            assert raised(read_inline, line, slot) is KVDirectError
            assert raised(reference.read_inline, slot) is KVDirectError
    # Every key any slot could be read as holding, plus the caller's.
    area = bytes(line[:50])
    candidates = list(keys) + [
        area[5 * i + 2 : 5 * i + 2 + area[5 * i]]
        for i in range(SLOTS_PER_BUCKET)
    ]
    for key in candidates:
        assert find_inline(line, key) == reference.find_inline(key)


def assert_same_bucket(bucket, reference, keys=()):
    """An edited bucket: the bytes ``pack()`` writes, and the answers."""
    assert type(bucket) is bytearray
    assert bytes(bucket) == reference.pack()
    assert_same_answers(bucket, reference, keys)
    assert_same_answers(bytes(bucket), reference, keys)


#: One slot of raw bytes: free (zero) half the time, so free runs, empty
#: buckets and sparse pointer slots all come up.
raw_slots = st.lists(
    st.one_of(st.just(bytes(5)), st.binary(min_size=5, max_size=5)),
    min_size=SLOTS_PER_BUCKET, max_size=SLOTS_PER_BUCKET,
)
#: Bitmaps with and without the six bits no slot owns.
bitmaps = st.one_of(st.integers(0, 0x3FF), st.integers(0, 0xFFFF), st.just(0))

#: The decoded references the codec is held to: the parent's object, and
#: the per-slot walk it was itself checked against.
REFERENCES = (RefBucket, SlotWalkBucket)


class TestBitmapFormsMatchTheSlotWalk:
    @given(raw_slots, st.integers(0, 2**32 - 1), bitmaps, bitmaps,
           st.integers(0, 2**32 - 1), st.integers(0, 2**16 - 1))
    def test_any_64_bytes(self, slots, types, used, start, chain, reserved):
        """Raw images, valid or not: every query on the line as read
        answers as the decoded object does, bitmap bits 10..15, slab-type
        bits 30..31, chain bit 31 and the reserved tail ignored exactly as
        it ignores them; an edit copy is normalised exactly as ``pack()``
        normalises, and an erase from it writes ``pack()``'s bytes."""
        data = b"".join(slots) + _REF_META.pack(
            types, used, start, chain, reserved
        )
        for cls in REFERENCES:
            reference = cls.unpack(data)
            assert_same_answers(data, reference)
            assert_same_bucket(edit(data), reference)
        # The stray bitmap bits ride through an edit untouched.
        assert edit(data)[54:58] == data[54:58]
        for slot in range(SLOTS_PER_BUCKET):
            if not start >> slot & 1:
                continue
            for cls in REFERENCES:
                bucket, reference = edit(data), cls.unpack(data)
                erase_inline(bucket, slot)
                reference.erase_inline(slot)
                assert_same_bucket(bucket, reference)

    @given(st.binary(min_size=BUCKET_SIZE, max_size=BUCKET_SIZE),
           st.lists(st.tuples(
               st.sampled_from((
                   "inline", "pointer", "erase", "clear", "chain",
                   "bad-inline", "bad-pointer", "bad-erase", "bad-clear",
                   "bad-chain",
               )),
               st.binary(min_size=1, max_size=12), st.binary(max_size=30),
               st.integers(0, 2**31 - 1), st.integers(0, 511),
               st.integers(0, 7),
           ), max_size=25),
           st.booleans())
    def test_random_mixes_built_through_the_api(self, image, steps, fresh):
        """Inline KVs, pointer slots, frees and chain pointers, applied in
        lockstep to a fresh bucket or to any 64 bytes: same placement
        decisions, ``pack()``'s bytes after every edit, and an edit the
        reference refuses (at once or at ``pack()``) refused with the same
        exception type and the bucket left as it was."""
        data = bytes(BUCKET_SIZE) if fresh else image
        bucket, reference = edit(data), SlotWalkBucket.unpack(data)
        keys = []
        for action, key, value, pointer, secondary, slab_type in steps:
            spans = inline_spans(bucket)
            slots = pointer_slots(bucket)
            if action == "inline":
                if len(key) + len(value) > max_inline_kv_size():
                    continue
                run = find_free_run(
                    bucket, inline_slots_needed(len(key) + len(value))
                )
                if run is None or find_inline(bucket, key) is not None:
                    continue
                write_inline(bucket, run, key, value)
                reference.write_inline(run, key, value)
                keys.append(key)
            elif action == "pointer":
                run = find_free_run(bucket, 1)
                if run is None or not (pointer or secondary):
                    continue
                set_pointer(bucket, run, pointer, secondary, slab_type)
                reference.set_pointer(run, pointer, secondary, slab_type)
            elif action == "erase":
                if not spans:
                    continue
                start = spans[pointer % len(spans)][0]
                erase_inline(bucket, start)
                reference.erase_inline(start)
            elif action == "clear":
                if not slots:
                    continue
                slot = slots[pointer % len(slots)][0]
                clear_slot(bucket, slot)
                reference.clear_slot(slot)
            elif action == "chain":
                set_chain(bucket, pointer)
                reference.chain_ptr = pointer
            else:
                self._refused(bucket, reference, action, key, value,
                              pointer, secondary, slab_type, spans)
            assert_same_bucket(bucket, reference, keys)

    @staticmethod
    def _refused(bucket, reference, action, key, value, pointer, secondary,
                 slab_type, spans):
        """One edit both sides must refuse; the reference tries it on a
        copy, since it may change itself before ``pack()`` refuses."""
        trial = SlotWalkBucket.unpack(reference.pack())
        before = bytes(bucket)
        used = bucket[54] | bucket[55] << 8
        inline = [i for i in range(SLOTS_PER_BUCKET) if used >> i & 1]
        if action == "bad-inline":  # a run that overruns the slot area
            args = (9 - pointer % 2, key + b"x" * 8, value + b"y" * 8)
            theirs = raised(lambda: (trial.write_inline(*args), trial.pack()))
            ours = raised(write_inline, bucket, *args)
        elif action == "bad-pointer":  # an inline slot, a pointer, a type
            slot = inline[pointer % len(inline)] if inline else pointer % 10
            args = [
                (slot, pointer, secondary, slab_type),
                (pointer % 10, pointer + (1 << 31), secondary, slab_type),
                (pointer % 10, pointer, secondary + 512, slab_type),
                (pointer % 10, pointer, secondary, slab_type + 8),
                (10 + pointer % 5, pointer, secondary, slab_type),
            ][pointer % 5 if inline else 1 + pointer % 4]
            theirs = raised(lambda: (trial.set_pointer(*args), trial.pack()))
            ours = raised(set_pointer, bucket, *args)
        elif action == "bad-erase":  # a slot that begins no inline KV
            starts = {s for s, __ in spans}
            slot = next(
                (i for i in range(10) if i not in starts and i not in inline),
                None,
            )
            if slot is None:
                return
            theirs = raised(trial.erase_inline, slot)
            ours = raised(erase_inline, bucket, slot)
        elif action == "bad-clear":  # a slot index outside the bucket
            slot = (-1, SLOTS_PER_BUCKET)[pointer % 2]
            theirs = raised(trial.clear_slot, slot)
            ours = raised(clear_slot, bucket, slot)
        else:  # a chain pointer wider than 31 bits
            trial.chain_ptr = pointer + (1 << 31)
            theirs = raised(trial.pack)
            ours = raised(set_chain, bucket, pointer + (1 << 31))
        assert theirs is not None and ours is theirs, (action, theirs, ours)
        assert bytes(bucket) == before

    def test_a_short_or_long_image_is_rejected_by_both(self):
        for size in (0, BUCKET_SIZE - 1, BUCKET_SIZE + 1):
            with pytest.raises(KVDirectError, match=f"got {size}"):
                edit(bytes(size))
            for cls in REFERENCES:
                with pytest.raises(KVDirectError, match=f"got {size}"):
                    cls.unpack(bytes(size))
