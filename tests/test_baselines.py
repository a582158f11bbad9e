"""Unit tests for the baseline hash tables and analytic models."""

import hashlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import constants
from repro.baselines import (
    CPUKVSModel,
    CuckooHashTable,
    HopscotchHashTable,
    OneSidedRDMAModel,
    TwoSidedRDMAModel,
)
from repro.baselines.slotted import EMPTY
from repro.errors import KeyTooLargeError


class Deletes:
    """The Figure 11 baselines' delete path, which no figure runs, kept
    here because the pinned runs below end in deletes."""

    def delete(self, key):
        self._check_key(key)
        removed = self._delete(key)
        if removed is None:
            return False
        self.count -= 1
        self.stored_bytes -= len(key) + removed
        return True

    def _free_value(self, pointer):
        """Free the record at ``pointer``; returns its value's length."""
        value, cls = self._read_value(pointer)
        self.allocator.free(pointer * 32, cls)
        return len(value)


class Cuckoo(Deletes, CuckooHashTable):
    def _delete(self, key):
        for bucket in self._buckets_of(key):
            slots = self._read_bucket(bucket)
            for i, (slot_key, pointer) in enumerate(slots):
                if slot_key == key:
                    removed = self._free_value(pointer)
                    slots[i] = EMPTY
                    self._write_bucket(bucket, slots)
                    return removed
        return None


class Hopscotch(Deletes, HopscotchHashTable):
    def _delete(self, key):
        home = self._home(key)
        for i, (slot_key, pointer) in enumerate(self._read_neighborhood(home)):
            if slot_key == key:
                removed = self._free_value(pointer)
                self._set_neighbor(home, i, EMPTY)
                return removed
        chain = self._chains.get(home, [])
        for entry_index, (chain_key, pointer, block) in enumerate(chain):
            if chain_key == key:
                removed = self._free_value(pointer)
                self.allocator.free(block, 1)
                chain.pop(entry_index)
                return removed
        return None


def make_cuckoo(memory_size=1 << 20, index_ratio=0.5, **kwargs):
    index_bytes = int(memory_size * index_ratio)
    return Cuckoo.over(memory_size, index_bytes, **kwargs)


def make_hopscotch(memory_size=1 << 20, index_ratio=0.5, **kwargs):
    index_bytes = int(memory_size * index_ratio)
    return Hopscotch.over(memory_size, index_bytes, **kwargs)


class TestCuckooBasics:
    def test_put_get_delete(self):
        table = make_cuckoo()
        table.put(b"key", b"value")
        assert table.get(b"key") == b"value"
        assert table.delete(b"key")
        assert table.get(b"key") is None

    def test_overwrite(self):
        table = make_cuckoo()
        table.put(b"k", b"v1")
        table.put(b"k", b"v2" * 30)
        assert table.get(b"k") == b"v2" * 30
        assert table.count == 1

    def test_many_keys(self):
        table = make_cuckoo()
        for i in range(1500):
            table.put(b"k%07d" % i, b"v%07d" % i)
        assert table.count == 1500
        for i in range(0, 1500, 83):
            assert table.get(b"k%07d" % i) == b"v%07d" % i

    def test_displacement_occurs_under_load(self):
        table = make_cuckoo(memory_size=1 << 17, index_ratio=0.05)
        count = int(table.num_buckets * 4 * 0.85)  # 85 % load factor
        for i in range(count):
            table.put(b"k%07d" % i, b"v" * 16)
        assert table.counters["kicks"] > 0
        for i in range(count):
            assert table.get(b"k%07d" % i) == b"v" * 16

    def test_key_length_limit(self):
        table = make_cuckoo()
        with pytest.raises(KeyTooLargeError):
            table.put(b"x" * 12, b"v")

    def test_get_cost_at_least_two(self):
        """Values live in slabs: every hit costs >= 2 accesses."""
        table = make_cuckoo()
        table.put(b"key", b"value")
        table.get_cost = type(table.get_cost)()
        table.get(b"key")
        assert table.get_cost.mean >= 2.0

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "get", "delete"]),
                st.binary(min_size=1, max_size=11),
                st.binary(min_size=0, max_size=64),
            ),
            max_size=120,
        )
    )
    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_dict_semantics(self, commands):
        table = make_cuckoo(memory_size=1 << 18)
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
        assert table.count == len(model)


class TestHopscotchBasics:
    def test_put_get_delete(self):
        table = make_hopscotch()
        table.put(b"key", b"value")
        assert table.get(b"key") == b"value"
        assert table.delete(b"key")
        assert table.get(b"key") is None

    def test_many_keys(self):
        table = make_hopscotch()
        for i in range(1500):
            table.put(b"k%07d" % i, b"v%07d" % i)
        assert table.count == 1500
        for i in range(0, 1500, 83):
            assert table.get(b"k%07d" % i) == b"v%07d" % i

    def test_neighborhood_get_is_cheap(self):
        """GET = one neighborhood read + one value read."""
        table = make_hopscotch()
        table.put(b"key", b"value")
        table.get_cost = type(table.get_cost)()
        table.get(b"key")
        assert table.get_cost.mean <= 2.0

    def test_displacement_under_load(self):
        table = make_hopscotch(memory_size=1 << 17, index_ratio=0.02)
        count = table.num_buckets * 4  # fill to 100 % load factor
        for i in range(count):
            table.put(b"k%07d" % i, b"v" * 16)
        # Dense table: bubbling and/or chaining must have happened.
        assert (
            table.counters["bubbles"] > 0 or table.counters["chained"] > 0
        )
        for i in range(count):
            assert table.get(b"k%07d" % i) == b"v" * 16

    def test_put_cost_grows_with_utilization(self):
        """The paper's point: hopscotch PUT degrades at high load factor."""
        sparse = make_hopscotch(memory_size=1 << 18, index_ratio=0.5)
        dense = make_hopscotch(memory_size=1 << 18, index_ratio=0.02)
        for i in range(300):
            sparse.put(b"k%07d" % i, b"v" * 16)
            dense.put(b"k%07d" % i, b"v" * 16)
        assert dense.put_cost.mean > sparse.put_cost.mean

    def test_overwrite(self):
        table = make_hopscotch()
        table.put(b"k", b"a" * 10)
        table.put(b"k", b"b" * 100)
        assert table.get(b"k") == b"b" * 100

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "get", "delete"]),
                st.binary(min_size=1, max_size=11),
                st.binary(min_size=0, max_size=64),
            ),
            max_size=120,
        )
    )
    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_dict_semantics(self, commands):
        table = make_hopscotch(memory_size=1 << 18)
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
        assert table.count == len(model)


class TestCPUModel:
    def test_paper_equivalence_claim(self):
        """180 Mops is 'equivalent to the throughput of tens of CPU cores'
        (the paper quotes 36 at 5 Mops/core [47])."""
        model = CPUKVSModel()
        cores = model.cores_for_throughput(180e6)
        assert 25 < cores < 40


class TestRDMAModels:
    def test_two_sided_cpu_bound(self):
        model = TwoSidedRDMAModel(cores=1)
        assert model.throughput() == pytest.approx(7.9e6)

    def test_two_sided_nic_bound(self):
        model = TwoSidedRDMAModel(cores=64)
        assert model.throughput() == model.nic_message_rate

    def test_atomics_match_paper_measurement(self):
        model = OneSidedRDMAModel()
        assert model.atomics_throughput(1) == constants.RDMA_ATOMICS_OPS

    def test_atomics_scale_with_keys_until_nic_bound(self):
        model = OneSidedRDMAModel()
        assert model.atomics_throughput(2) == pytest.approx(2 * 2.24e6)
        assert model.atomics_throughput(10**6) == model.nic_message_rate


class TestHopscotchOverflowChains:
    def _full_table(self):
        """Force the chained-overflow path with a tiny, dense table."""
        import random

        table = make_hopscotch(memory_size=1 << 18, index_ratio=0.005)
        rng = random.Random(5)
        keys = []
        while table.counters["chained"] < 3:
            key = rng.getrandbits(64).to_bytes(8, "big")
            table.put(key, b"v")
            keys.append(key)
            assert len(keys) < 20_000, "never chained"
        return table, keys

    def test_chained_entries_retrievable(self):
        table, keys = self._full_table()
        for key in keys:
            assert table.get(key) == b"v"

    def test_chained_entry_update(self):
        table, keys = self._full_table()
        for key in keys[-3:]:
            table.put(key, b"longer-value")
            assert table.get(key) == b"longer-value"
        assert table.count == len(keys)

    def test_chained_entry_delete(self):
        table, keys = self._full_table()
        count = len(keys)
        for key in keys[-3:]:
            assert table.delete(key)
        assert table.count == count - 3
        for key in keys[-3:]:
            assert table.get(key) is None


class TestSlottedStore:
    @pytest.mark.parametrize("make", [make_cuckoo, make_hopscotch])
    def test_value_no_slab_holds_is_refused_before_any_access(self, make):
        """A Figure 11 record is its own 3 B header and the value, in one
        512 B slab at most: a 510 B value is refused up front, and 509 B
        fits.  (``HashTable``'s records hold a 2 B header, the key and the
        value: it takes up to 510 B of key and value.)"""
        table = make()
        with pytest.raises(KeyTooLargeError):
            table.put(b"key", b"x" * 510)
        assert table.memory.accesses == 0
        assert table.put_cost.count == 0 and table.count == 0
        table.put(b"key", b"x" * 509)
        assert table.get(b"key") == b"x" * 509


#: What each Figure 11 run below observes, frozen before the two baselines
#: shared one store: per-op cost ``(count, mean, maximum)``, the tables'
#: own counters, the image's counters, and digests of the access trace and
#: of the image's bytes.
FIG11_PINNED = {
    ("cuckoo", "10 B"): {
        "get": (102, 2.0784313725490207, 3),
        "put": (10664, 4.009002250562643, 13),
        "len": 10452, "stored": 105183, "counters": {"kicks": 66},
        "memory": {"read_bytes": 1382560, "read_lines": 21742,
                   "reads": 21742, "write_bytes": 737766,
                   "write_lines": 21327, "writes": 21327},
        "trace": "4f9455c4ff282a5c", "image": "40f1f37c7e9cc759",
    },
    ("cuckoo", "253 B"): {
        "get": (105, 2.0, 2),
        "put": (597, 3.825795644891124, 4),
        "len": 380, "stored": 92672, "counters": {},
        "memory": {"read_bytes": 163040, "read_lines": 2552,
                   "reads": 1476, "write_bytes": 177584,
                   "write_lines": 2890, "writes": 1125},
        "trace": "4a9da9ca0eead850", "image": "05b6f71670e4590d",
    },
    ("hopscotch", "10 B"): {
        "get": (102, 1.9901960784313726, 2),
        "put": (10664, 4.0617966991747885, 19),
        "len": 10452, "stored": 105183,
        "counters": {"bubbles": 131, "chained": 8},
        "memory": {"read_bytes": 2098080, "read_lines": 32922,
                   "reads": 22124, "write_bytes": 750310,
                   "write_lines": 21523, "writes": 21531},
        "trace": "80a654676724238c", "image": "5c2d86c6dc6c435d",
    },
    ("hopscotch", "253 B"): {
        "get": (105, 1.9904761904761905, 2),
        "put": (597, 3.9581239530988266, 5),
        "len": 380, "stored": 92672, "counters": {},
        "memory": {"read_bytes": 217376, "read_lines": 3401,
                   "reads": 1588, "write_bytes": 177584,
                   "write_lines": 2890, "writes": 1125},
        "trace": "c233253870d9a16c", "image": "05b6f71670e4590d",
    },
    ("cuckoo", "load 0.85"): {
        "get": (104, 2.1923076923076916, 3),
        "put": (3662, 4.432277444019671, 31),
        "len": 3446, "stored": 31694, "counters": {"kicks": 701},
        "memory": {"read_bytes": 542528, "read_lines": 8619,
                   "reads": 8619, "write_bytes": 291608,
                   "write_lines": 7957, "writes": 7957},
        "trace": "0b29f2c0432a712d", "image": "9b27e52a37093193",
    },
    ("hopscotch", "load 0.95"): {
        "get": (104, 2.153846153846154, 5),
        "put": (4072, 5.170186640471514, 59),
        "len": 3856, "stored": 35384,
        "counters": {"bubbles": 693, "chained": 235},
        "memory": {"read_bytes": 1010752, "read_lines": 15935,
                   "reads": 11728, "write_bytes": 362752,
                   "write_lines": 9453, "writes": 9688},
        "trace": "2fbbb9097840165d", "image": "6f5efdb505b5d1b0",
    },
}


class TestFigure11Pinned:
    """Figure 11's baselines, access for access: the utilization 0.10
    points of ``benchmarks/bench_fig11_tables.py`` at 10 B and 253 B KVs,
    and its densest index load factors, each followed by GETs, overwrites
    that keep, grow and shrink the slab class, and deletes."""

    MEMORY = 1 << 20
    TABLES = {"cuckoo": Cuckoo, "hopscotch": Hopscotch}

    @staticmethod
    def _exercise(table, keys, vlen):
        probe = keys[:: max(1, len(keys) // 100)]
        for key in probe:
            table.get(key)
        table.get(b"absent")
        for key in probe:
            table.put(key, b"\xcd" * vlen)
        for key in probe[::2]:
            table.put(key, b"\xef" * (vlen + 40))
        for key in probe[::4]:
            table.put(key, b"\x12")
        for key in probe[::3]:
            table.delete(key)
        table.delete(b"absent")

    def _utilization_run(self, cls, kv_size):
        ratio = 0.3 if kv_size <= 20 else 0.1
        table = cls.over(self.MEMORY, int(self.MEMORY * ratio))
        table.memory.start_trace()
        rng, keys = random.Random(11), []
        while table.stored_bytes / self.MEMORY < 0.10:
            keys.append(rng.getrandbits(64).to_bytes(8, "big"))
            table.put(keys[-1], b"\xab" * (kv_size - 8))
        self._exercise(table, keys, kv_size - 8)
        return table

    def _load_factor_run(self, cls, load_factor, seed):
        table = cls.over(self.MEMORY, 64 << 10)
        table.memory.start_trace()
        rng = random.Random(seed)
        keys = [
            rng.getrandbits(64).to_bytes(8, "big")
            for __ in range(int(table.num_buckets * 4 * load_factor))
        ]
        for key in keys:
            table.put(key, b"v")
        self._exercise(table, keys, 1)
        return table

    @staticmethod
    def _observe(table):
        memory = table.memory
        trace = repr(memory.stop_trace()).encode()
        get, put = table.get_cost, table.put_cost
        return {
            "get": (get.count, get.mean, get.maximum),
            "put": (put.count, put.mean, put.maximum),
            "len": table.count,
            "stored": table.stored_bytes,
            "counters": dict(sorted(table.counters.items())),
            "memory": dict(sorted(memory.counters.items())),
            "trace": hashlib.sha256(trace).hexdigest()[:16],
            "image": hashlib.sha256(
                memory.peek(0, memory.size)
            ).hexdigest()[:16],
        }

    def test_access_counts_match_the_pinned_runs(self):
        runs = {}
        for name, cls in self.TABLES.items():
            for kv_size in (10, 253):
                table = self._utilization_run(cls, kv_size)
                runs[(name, f"{kv_size} B")] = self._observe(table)
        cuckoo = self._load_factor_run(Cuckoo, 0.85, seed=3)
        runs[("cuckoo", "load 0.85")] = self._observe(cuckoo)
        hop = self._load_factor_run(Hopscotch, 0.95, seed=4)
        runs[("hopscotch", "load 0.95")] = self._observe(hop)
        assert runs == FIG11_PINNED
