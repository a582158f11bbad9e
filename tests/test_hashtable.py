"""Unit + property tests for the KV-Direct hash table."""

import hashlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import BUCKET_SIZE
from repro.core.hashindex import (
    POINTER_GRANULARITY,
    chain_ptr,
    has_no_entries,
    inline_spans,
    read_inline,
)
from repro.core.hashing import fnv1a64
from repro.core.hashtable import _SECONDARY_MASK, _SECONDARY_SHIFT, HashTable
from repro.core.slab import SlabAllocator
from repro.core.slab_host import HostSlabManager, class_for_size, class_size
from repro.dram.host import MemoryImage
from repro.errors import ConfigurationError, KeyTooLargeError
from tests.ref_bucket import RefBucket


def make_table(
    memory_size=1 << 20,
    index_ratio=0.5,
    inline_threshold=20,
):
    """Build a table + allocator over a fresh memory image."""
    memory = MemoryImage(memory_size)
    index_bytes = int(memory_size * index_ratio) // 64 * 64
    num_buckets = index_bytes // 64
    host = HostSlabManager(base=index_bytes, size=memory_size - index_bytes)
    allocator = SlabAllocator(host)
    table = HashTable(
        memory, allocator, num_buckets, inline_threshold=inline_threshold
    )
    return table


class TestBasicOperations:
    def test_put_get(self):
        table = make_table()
        table.put(b"key", b"value")
        assert table.get(b"key") == b"value"

    def test_get_missing(self):
        table = make_table()
        assert table.get(b"nope") is None

    def test_put_overwrites(self):
        table = make_table()
        table.put(b"k", b"v1")
        table.put(b"k", b"v2")
        assert table.get(b"k") == b"v2"
        assert len(table) == 1

    def test_delete(self):
        table = make_table()
        table.put(b"k", b"v")
        assert table.delete(b"k")
        assert table.get(b"k") is None
        assert len(table) == 0

    def test_delete_missing(self):
        table = make_table()
        assert not table.delete(b"ghost")

    def test_contains(self):
        table = make_table()
        table.put(b"k", b"v")
        assert table.peek(b"k") is not None
        assert table.peek(b"other") is None

    def test_contains_leaves_no_mark(self):
        """Regression: membership sits beside ``len`` and ``items()`` as
        introspection but ran a counted ``get``."""
        table = make_table()
        table.put(b"k", b"v")
        table.put(b"record", b"x" * 100)
        counters = table.counters.snapshot()
        memory = table.memory.counters.snapshot()
        table.memory.start_trace()
        assert table.peek(b"k") is not None
        assert table.peek(b"record") is not None
        assert table.peek(b"other") is None
        assert table.memory.stop_trace() == []
        assert table.counters.snapshot() == counters
        assert table.get_cost.count == 0
        assert table.memory.counters.snapshot() == memory

    def test_empty_value(self):
        table = make_table()
        table.put(b"k", b"")
        assert table.get(b"k") == b""

    def test_many_keys(self):
        table = make_table()
        for i in range(2000):
            table.put(b"key%05d" % i, b"val%05d" % i)
        assert len(table) == 2000
        for i in range(0, 2000, 97):
            assert table.get(b"key%05d" % i) == b"val%05d" % i


class TestInlineVsNonInline:
    def test_small_kv_is_inline(self):
        """KV at or below the threshold never touches the slab allocator."""
        table = make_table(inline_threshold=20)
        table.put(b"key", b"0123456789")  # 13 B total
        assert table.allocator.counters["allocs"] == 0
        assert table.get(b"key") == b"0123456789"

    def test_large_kv_uses_slab(self):
        table = make_table(inline_threshold=20)
        table.put(b"key", b"x" * 100)
        assert table.allocator.counters["allocs"] == 1
        assert table.get(b"key") == b"x" * 100

    def test_threshold_boundary(self):
        table = make_table(inline_threshold=10)
        table.put(b"12345", b"67890")  # exactly 10 -> inline
        assert table.allocator.counters["allocs"] == 0
        table.put(b"123456", b"67890")  # 11 -> slab
        assert table.allocator.counters["allocs"] == 1

    def test_zero_threshold_disables_inlining(self):
        table = make_table(inline_threshold=0)
        table.put(b"a", b"")
        assert table.allocator.counters["allocs"] == 1

    def test_inline_to_slab_transition(self):
        """Growing a value past the threshold migrates it out of the index."""
        table = make_table(inline_threshold=20)
        table.put(b"k", b"small")
        table.put(b"k", b"L" * 200)
        assert table.get(b"k") == b"L" * 200
        assert len(table) == 1

    def test_slab_to_inline_stays_correct(self):
        table = make_table(inline_threshold=20)
        table.put(b"k", b"L" * 200)
        table.put(b"k", b"small")
        assert table.get(b"k") == b"small"

    def test_slab_freed_on_delete(self):
        table = make_table()
        table.put(b"k", b"x" * 100)
        table.delete(b"k")
        assert table.allocator.counters["frees"] == 1

    def test_same_class_overwrite_reuses_slab(self):
        table = make_table()
        table.put(b"k", b"a" * 100)
        table.put(b"k", b"b" * 101)  # same 128 B class
        assert table.allocator.counters["allocs"] == 1
        assert table.get(b"k") == b"b" * 101

    def test_class_change_reallocates(self):
        table = make_table()
        table.put(b"k", b"a" * 100)  # 128 B class
        table.put(b"k", b"b" * 400)  # 512 B class
        assert table.allocator.counters["allocs"] == 2
        assert table.allocator.counters["frees"] == 1


class TestMemoryAccessCounts:
    """The paper's headline property: ~1 DMA per GET, ~2 per PUT."""

    def test_inline_get_is_one_access(self):
        table = make_table()
        table.put(b"key", b"tiny")
        table.memory.reset_counters()
        table.get(b"key")
        assert table.memory.accesses == 1

    def test_inline_put_is_two_accesses(self):
        table = make_table()
        table.memory.reset_counters()
        table.put(b"key", b"tiny")
        assert table.memory.accesses == 2  # bucket read + bucket write

    def test_noninline_get_is_two_accesses(self):
        table = make_table()
        table.put(b"key", b"x" * 100)
        table.memory.reset_counters()
        table.get(b"key")
        assert table.memory.accesses == 2  # bucket + record

    def test_noninline_put_is_three_accesses(self):
        table = make_table()
        table.memory.reset_counters()
        table.put(b"key", b"x" * 100)
        assert table.memory.accesses == 3  # bucket read + record + bucket write

    def test_average_get_near_one_at_moderate_utilization(self):
        table = make_table(memory_size=1 << 20, inline_threshold=15)
        i = 0
        while table.utilization() < 0.25:
            table.put(b"k%06d" % i, b"v" * 5)
            i += 1
        table.memory.reset_counters()
        table.get_cost = type(table.get_cost)()
        for j in range(0, i, 7):
            table.get(b"k%06d" % j)
        assert table.get_cost.mean < 1.5

    def test_cost_stats_populated(self):
        table = make_table()
        table.put(b"a", b"1")
        table.get(b"a")
        table.delete(b"a")
        assert table.put_cost.count == 1
        assert table.get_cost.count == 1
        assert table.delete_cost.count == 1


class TestChaining:
    def test_bucket_overflow_chains(self):
        """More colliding KVs than one bucket holds must still be found."""
        table = make_table(memory_size=1 << 16, index_ratio=0.01)
        assert table.num_buckets == 10  # 100 slots for 300 KVs: must chain
        keys = [b"key%04d" % i for i in range(300)]
        for key in keys:
            table.put(key, b"v" * 30)  # 3 slots inline each
        assert table.counters["chained_buckets"] > 0
        for key in keys:
            assert table.get(key) == b"v" * 30

    def test_delete_from_chained_bucket(self):
        table = make_table(memory_size=1 << 16, index_ratio=0.01)
        keys = [b"key%04d" % i for i in range(200)]
        for key in keys:
            table.put(key, b"v" * 30)
        for key in keys[::2]:
            assert table.delete(key)
        for key in keys[1::2]:
            assert table.get(key) == b"v" * 30
        for key in keys[::2]:
            assert table.get(key) is None

    def test_single_bucket_table(self):
        table = make_table(memory_size=1 << 16, index_ratio=64 / (1 << 16))
        assert table.num_buckets == 1
        for i in range(50):
            table.put(b"k%03d" % i, b"v")
        assert len(table) == 50
        assert all(table.get(b"k%03d" % i) == b"v" for i in range(50))


class TestValidation:
    def test_oversize_key(self):
        table = make_table()
        with pytest.raises(KeyTooLargeError):
            table.put(b"k" * 256, b"v")

    def test_oversize_record(self):
        table = make_table()
        with pytest.raises(KeyTooLargeError):
            table.put(b"key", b"v" * 510)

    def test_empty_key(self):
        table = make_table()
        with pytest.raises(KeyTooLargeError):
            table.get(b"")

    def test_non_bytes(self):
        table = make_table()
        with pytest.raises(TypeError):
            table.put("str", b"v")
        with pytest.raises(TypeError):
            table.put(b"k", 42)

    def test_bad_config(self):
        memory = MemoryImage(1 << 16)
        host = HostSlabManager(base=1024, size=(1 << 16) - 1024)
        allocator = SlabAllocator(host)
        with pytest.raises(ConfigurationError):
            HashTable(memory, allocator, num_buckets=0)
        with pytest.raises(ConfigurationError):
            HashTable(memory, allocator, 16, inline_threshold=-1)
        with pytest.raises(ConfigurationError):
            HashTable(memory, allocator, 16, inline_threshold=100)


class TestAccounting:
    def test_stored_bytes_tracks_kv_sizes(self):
        table = make_table()
        table.put(b"abc", b"de")
        assert table.stored_bytes == 5
        table.put(b"abc", b"defg")
        assert table.stored_bytes == 7
        table.delete(b"abc")
        assert table.stored_bytes == 0

    def test_utilization(self):
        table = make_table(memory_size=1 << 20)
        assert table.utilization() == 0.0
        table.put(b"0123456789", b"0123456789")
        assert table.utilization() == pytest.approx(20 / (1 << 20))

    def test_items_scan(self):
        table = make_table()
        expected = {}
        for i in range(100):
            key = b"k%03d" % i
            value = (b"v" * (i % 40)) or b"x"
            table.put(key, value)
            expected[key] = value
        assert dict(table.items()) == expected


def _record_length(raw, slab_type):
    """The value length of a 2 B-header record: the low byte, or 256 B
    more, whichever makes the record need exactly its slab class."""
    klen, low = raw[0], raw[1]
    for vlen in (low, low + 256):
        size = 2 + klen + vlen
        if size <= 512 and class_for_size(size) == slab_type:
            return vlen
    raise AssertionError(f"record {raw[:2].hex()} fits no class {slab_type}")


def _undecoded_walk(table):
    """``HashTable.items()`` without the zero-bucket skip: decode every
    bucket into the reference object, and every record by the class its
    length needs.  The order it yields in is the order ``items()`` must
    keep."""
    for index in range(table.num_buckets):
        addr = table.bucket_addr(index)
        while True:
            bucket = RefBucket.unpack(table.memory.peek(addr, BUCKET_SIZE))
            for start, __ in bucket.inline_spans():
                yield bucket.read_inline(start)
            for slot, pointer, __ in bucket.pointer_slots():
                slab_type = bucket.slab_types[slot]
                raw = table.memory.peek(
                    pointer * POINTER_GRANULARITY, class_size(slab_type)
                )
                klen, vlen = raw[0], _record_length(raw, slab_type)
                yield raw[2 : 2 + klen], raw[2 + klen : 2 + klen + vlen]
            if not bucket.chain_ptr:
                break
            addr = bucket.chain_ptr * POINTER_GRANULARITY


class TestItemsWalk:
    def test_sparse_table_keeps_order_and_contents(self):
        table = make_table()
        for i in range(300):
            table.put(b"k%04d" % i, b"v" * (i % 60))
        for i in range(0, 300, 3):
            table.delete(b"k%04d" % i)
        zero = sum(
            table.memory.peek(table.bucket_addr(i), BUCKET_SIZE)
            == bytes(BUCKET_SIZE)
            for i in range(table.num_buckets)
        )
        assert zero > 0.9 * table.num_buckets
        assert list(table.items()) == list(_undecoded_walk(table))
        assert len(list(table.items())) == len(table) == 200

    def test_emptied_head_bucket_still_leads_to_its_chain(self):
        """Empty but not all-zero: the chain pointer survives."""
        table = make_table(
            memory_size=1 << 16, index_ratio=64 / (1 << 16),
            inline_threshold=40,
        )
        assert table.num_buckets == 1
        keys = [b"k%03d" % i for i in range(40)]
        for key in keys:
            table.put(key, b"v" * 30)
        head = table.memory.peek(0, BUCKET_SIZE)
        in_head = [read_inline(head, s)[0] for s, __ in inline_spans(head)]
        for key in in_head:
            table.delete(key)
        head = table.memory.peek(0, BUCKET_SIZE)
        assert has_no_entries(head) and chain_ptr(head)
        assert list(table.items()) == list(_undecoded_walk(table))
        assert {k for k, __ in table.items()} == set(keys) - set(in_head)


class TestRecordHeader:
    """A slab record is a 2 B header (key length, value length's low
    byte) and the KV; the slab class carries the high bit.  Records at
    every class boundary, the 256 <-> 257 B step across the top one,
    and replacements that cross classes read back whole.  The reference
    walk decodes a record only if it sits in the smallest class that
    holds it."""

    KEY_LENGTHS = (1, 8, 255)

    @classmethod
    def _cases(cls):
        """(key length, value length) of each record: sizes 32 and under,
        S / 2 + 1 and S for S = 64 ... 512, and values of 0, 255, 256 and
        257 B, for every key length they fit."""
        sizes = [3, 10, 32]
        for slab in (64, 128, 256, 512):
            sizes += [slab // 2 + 1, slab]
        cases = set()
        for klen in cls.KEY_LENGTHS:
            cases.update((klen, size - 2 - klen) for size in sizes)
            cases.update((klen, vlen) for vlen in (0, 255, 256, 257))
        return sorted((k, v) for k, v in cases if v >= 0 and k + v <= 510)

    @staticmethod
    def _check(table, model):
        for key, value in model.items():
            assert table.get(key) == value
            assert table.peek(key) == value
        assert dict(table.items()) == model
        assert list(table.items()) == list(_undecoded_walk(table))

    def test_every_boundary_reads_back(self):
        table = make_table(memory_size=1 << 20, inline_threshold=0)
        model = {}
        for n, (klen, vlen) in enumerate(self._cases()):
            key = bytes([n]) * klen
            model[key] = bytes([n % 251 + 1]) * vlen
            table.put(key, model[key])
        assert any(2 + len(k) + len(v) == 512 for k, v in model.items())
        self._check(table, model)

    @pytest.mark.parametrize("klen", KEY_LENGTHS)
    def test_replacements_cross_every_class(self, klen):
        """One key walks every record size of its key length up, then
        down, and steps 256 <-> 257 B both ways, in one table."""
        table = make_table(memory_size=1 << 20, inline_threshold=0)
        key = b"k" * klen
        lengths = [v for k, v in self._cases() if k == klen]
        steps = [254 - klen, 255 - klen] * 2 if klen < 255 else []
        walk = lengths + lengths[::-1] + steps
        for step, vlen in enumerate(walk):
            model = {key: bytes([step % 251 + 1]) * vlen}
            table.put(key, model[key])
            self._check(table, model)
        classes = [class_for_size(2 + klen + vlen) for vlen in walk]
        moves = sum(a != b for a, b in zip(classes, classes[1:]))
        assert table.allocator.counters["frees"] == moves
        assert moves or klen == 255


class TestUncountedPeek:
    """``peek`` is ``get`` minus every observable side effect."""

    @staticmethod
    def _footprint(table):
        return (
            table.memory.counters.snapshot(),
            table.counters.snapshot(),
            table.get_cost.count,
        )

    def _assert_peek_matches_get(self, table, keys):
        table.memory.start_trace()
        before = self._footprint(table)
        peeked = [table.peek(key) for key in keys]
        assert self._footprint(table) == before
        assert table.memory.stop_trace() == []
        assert peeked == [table.get(key) for key in keys]
        return peeked

    def test_inline_slab_and_missing(self):
        table = make_table()
        table.put(b"small", b"v")
        table.put(b"large", b"x" * 100)
        table.put(b"empty", b"")
        peeked = self._assert_peek_matches_get(
            table, [b"small", b"large", b"empty", b"absent"]
        )
        assert peeked == [b"v", b"x" * 100, b"", None]

    def test_chained_buckets(self):
        table = make_table(memory_size=1 << 16, index_ratio=0.01)
        keys = [b"key%04d" % i for i in range(300)]
        for i, key in enumerate(keys):
            table.put(key, b"v" * (20 + i % 40))
        assert table.counters["chained_buckets"] > 0
        self._assert_peek_matches_get(table, keys + [b"absent"])

    def test_secondary_hash_false_positive(self):
        # One bucket, slab records only: two keys with equal secondary
        # hashes share a chain, so looking up the later-placed one reads
        # the other's record first.
        table = make_table(
            memory_size=1 << 16, index_ratio=64 / (1 << 16),
            inline_threshold=0,
        )
        by_secondary = {}
        for i in range(2000):
            key = b"fp%05d" % i
            twin = by_secondary.setdefault(
                fnv1a64(key) >> _SECONDARY_SHIFT & _SECONDARY_MASK, key
            )
            if twin != key:
                break
        table.put(twin, b"first")
        table.put(key, b"second")
        seen = table.counters["secondary_false_positives"]
        assert table.get(key) == b"second"
        assert table.counters["secondary_false_positives"] == seen + 1
        assert self._assert_peek_matches_get(table, [twin, key]) == [
            b"first", b"second",
        ]
        # The helper's counted lookup hit the false positive once more;
        # its uncounted one did not register.
        assert table.counters["secondary_false_positives"] == seen + 2

    def test_rejects_what_get_rejects(self):
        table = make_table()
        with pytest.raises(KeyTooLargeError):
            table.peek(b"")
        with pytest.raises(TypeError):
            table.peek("text")


class TestPropertyBased:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "get", "delete"]),
                st.binary(min_size=1, max_size=24),
                st.binary(min_size=0, max_size=120),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_matches_dict_semantics(self, commands):
        """The hash table behaves exactly like a Python dict."""
        table = make_table(memory_size=1 << 18)
        model = {}
        for action, key, value in commands:
            if action == "put":
                table.put(key, value)
                model[key] = value
            elif action == "get":
                assert table.get(key) == model.get(key)
            else:
                assert table.delete(key) == (key in model)
                model.pop(key, None)
        assert len(table) == len(model)
        for key, value in model.items():
            assert table.get(key) == value

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_stored_bytes_invariant(self, data):
        table = make_table(memory_size=1 << 18)
        model = {}
        for __ in range(50):
            key = data.draw(st.binary(min_size=1, max_size=16))
            value = data.draw(st.binary(min_size=0, max_size=64))
            table.put(key, value)
            model[key] = value
        expected = sum(len(k) + len(v) for k, v in model.items())
        assert table.stored_bytes == expected


class TestWholeTableDigest:
    """One seeded table through every bucket path - inline KVs, slab
    records and their size-class changes, secondary-hash false positives,
    chained overflow buckets, inline KVs demoted to slab records, deletes
    that empty a chained bucket - digested: the memory image bytes, the
    table and memory counters, the cost stats, the access trace and every
    answer.  The digest was taken with the decoded bucket object the
    codec replaced; working on the bytes must write the same bytes through
    the same accesses.  It was re-pinned when the record header went from
    3 B to 2 B, which rewrites every record's bytes and moves the 120 B
    values of 6 B keys from 256 B slabs to 128 B ones (fewer bytes read)."""

    DIGEST = (
        "a8aaa3c188957a7881310e428cc4b4b14e9cc879474158f1785bc82bf7a2290d"
    )

    def test_digest_is_pinned(self):
        table = make_table(
            memory_size=1 << 17, index_ratio=1 / 128, inline_threshold=20
        )
        rng = random.Random(7)
        keys = [b"key%03d" % i for i in range(160)]
        model, answers, demotions = {}, [], 0
        table.memory.start_trace()
        for __ in range(3000):
            key = rng.choice(keys)
            roll = rng.random()
            if roll < 0.5:
                value = bytes([rng.randrange(256)]) * rng.choice(
                    (0, 3, 8, 12, 14, 30, 60, 120, 250)
                )
                old = model.get(key)
                if old is not None and (
                    len(key) + len(old) <= 20 < len(key) + len(value)
                ):
                    demotions += 1
                answers.append(table.put(key, value))
                model[key] = value
            elif roll < 0.8:
                answers.append(table.get(key))
                assert answers[-1] == model.get(key)
            else:
                answers.append(table.delete(key))
                assert answers[-1] == (model.pop(key, None) is not None)
        trace = table.memory.stop_trace()
        assert dict(table.items()) == model
        assert list(table.items()) == list(_undecoded_walk(table))
        counters = table.counters.snapshot()
        assert demotions and counters["secondary_false_positives"]
        assert counters["chained_buckets"] and counters["unlinked_buckets"]
        state = (
            hashlib.sha256(
                table.memory.peek(0, table.memory.size)
            ).hexdigest(),
            sorted(counters.items()),
            sorted(table.memory.counters.snapshot().items()),
            [(s.count, s.mean, s.variance, s.minimum, s.maximum)
             for s in (table.get_cost, table.put_cost, table.delete_cost)],
            table.count, table.stored_bytes, trace, answers,
        )
        digest = hashlib.sha256(repr(state).encode()).hexdigest()
        assert digest == self.DIGEST
