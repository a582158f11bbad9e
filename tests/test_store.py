"""Unit tests for the public KVDirectStore API."""

import copy
import pickle
import random
import struct
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import KVDirectConfig, KVDirectStore
from repro.core.operations import KVOperation, OpType
from repro.core.processor import KVProcessor
from repro.core.vector import (
    COMPARE_AND_SWAP,
    FETCH_ADD,
    FILTER_NONZERO,
    FuncKind,
    REDUCE_SUM,
    apply_operation,
)
from repro.driver import run_closed_loop
from repro.errors import ConfigurationError, KVDirectError
from repro.sim import Simulator


def q(*values):
    return struct.pack("<%dq" % len(values), *values)


@pytest.fixture
def store():
    return KVDirectStore.create(memory_size=4 << 20)


class TestLifecycle:
    def test_create_defaults(self):
        store = KVDirectStore.create()
        assert store.config.memory_size == 64 << 20
        assert len(store) == 0

    def test_create_with_overrides(self):
        store = KVDirectStore.create(
            memory_size=1 << 20, hash_index_ratio=0.25, inline_threshold=10
        )
        assert store.config.hash_index_ratio == 0.25
        assert store.table.inline_threshold == 10

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            KVDirectConfig(memory_size=100)
        with pytest.raises(ConfigurationError):
            KVDirectConfig(hash_index_ratio=0.0)
        with pytest.raises(ConfigurationError):
            KVDirectConfig(load_dispatch_ratio=2.0)

    @pytest.mark.parametrize("field,value", [
        ("network_bandwidth", float("nan")),
        ("network_bandwidth", float("inf")),
        ("network_bandwidth", 0.0),
    ])
    def test_timing_fields_must_be_finite(self, field, value):
        """Rejected at construction, not as a SimulationError deep in a
        run."""
        with pytest.raises(ConfigurationError):
            KVDirectConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("memory_size", 8e6),
        ("memory_size", float("nan")),
        ("memory_size", True),
        ("memory_size", -(1 << 20)),
        # A station size that is not an int ran to completion (NaN), died
        # mid-run with "reservation station full" (3.7) or ran at a third
        # of the throughput (2.5 slots); 1.5 links raised a TypeError
        # from inside the processor build.
        ("max_inflight", float("nan")),
        ("max_inflight", 3.7),
        ("max_inflight", True),
        ("max_inflight", 0),
        ("reservation_slots", 2.5),
        ("reservation_slots", 0),
        ("pcie_links", 1.5),
        ("pcie_links", 0),
        ("inline_threshold", 20.0),
        ("inline_threshold", -1),
        ("inline_threshold", 49),  # one past the 48 B a bucket inlines
    ])
    def test_memory_sizes_must_be_ints(self, field, value):
        """A size or a count the store cannot build is refused at
        construction, not as a TypeError from the memory image, a bad
        metadata width at processor build or a failure mid-run."""
        with pytest.raises(ConfigurationError, match=field):
            KVDirectConfig(**{field: value})

    def test_paper_scale_geometry(self):
        config = KVDirectConfig.paper_scale()
        assert config.memory_size == 64 * 1024**3
        assert config.nic_dram_bytes == 4 * 1024**3
        # 64 GiB at ratio 0.5 -> 0.5 GiBuckets
        assert config.num_buckets == 64 * 1024**3 // 2 // 64

    def test_config_with_overrides(self):
        config = replace(KVDirectConfig(), inline_threshold=10)
        assert config.inline_threshold == 10
        assert config.memory_size == KVDirectConfig().memory_size

    @pytest.mark.parametrize("copier", [copy.deepcopy, pickle.dumps])
    def test_a_store_cannot_be_deep_copied_or_pickled(self, store, copier):
        """A store's bytes live only in anonymous mappings, which refuse to
        be pickled, and nothing carries them into a copy."""
        store.put(b"key", b"v" * 60)
        with pytest.raises(TypeError):
            copier(store)


class TestCrud(object):
    def test_put_get_delete(self, store):
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"
        assert store.peek(b"k") is not None
        assert store.delete(b"k")
        assert store.get(b"k") is None

    def test_len(self, store):
        for i in range(10):
            store.put(b"k%d" % i, b"v")
        assert len(store) == 10

    def test_items(self, store):
        store.put(b"a", b"1")
        store.put(b"b", b"2")
        assert dict(store.items()) == {b"a": b"1", b"b": b"2"}

    def test_peek_is_an_uncounted_get(self, store):
        store.put(b"a", b"1")
        stats = store.dma_stats()
        assert store.peek(b"a") == b"1"
        assert store.peek(b"b") is None
        assert store.dma_stats() == stats

    def test_membership_is_uncounted_and_untraced(self, store):
        """Regression: a membership test ran a counted ``get`` - it bumped
        ``gets``, the cost distribution and the memory counters, and
        inside a pipeline trace window appended a replayed access."""
        store.put(b"a", b"1")
        store.put(b"big", b"x" * 100)  # a slab record, not an inline KV
        table_counters = store.table.counters.snapshot()
        memory_counters = store.memory.counters.snapshot()
        gets = store.table.get_cost.count
        store.memory.start_trace()
        assert store.peek(b"a") is not None
        assert store.peek(b"big") is not None
        assert store.peek(b"missing") is None
        assert store.memory.stop_trace() == []
        assert store.table.counters.snapshot() == table_counters
        assert store.memory.counters.snapshot() == memory_counters
        assert store.table.get_cost.count == gets


class TestAtomics:
    def test_fetch_add_sequencer(self, store):
        """Section 3.2: sequencers are single-key atomics."""
        store.put(b"seq", q(0))
        tickets = [store.update(b"seq", FETCH_ADD, q(1)) for __ in range(10)]
        assert [struct.unpack("<q", t)[0] for t in tickets] == list(range(10))
        assert store.get(b"seq") == q(10)

    def test_cas(self, store):
        store.put(b"lock", q(0))
        old = store.update(b"lock", COMPARE_AND_SWAP, q(0, 1))
        assert old == q(0)
        old = store.update(b"lock", COMPARE_AND_SWAP, q(0, 2))
        assert old == q(1)  # CAS failed, value unchanged
        assert store.get(b"lock") == q(1)

    def test_update_missing_key(self, store):
        assert store.update(b"ghost", FETCH_ADD, q(1)) is None


class TestVectorOps:
    def test_update_vector(self, store):
        store.put(b"vec", q(1, 2, 3))
        old = store.update_vector(b"vec", FETCH_ADD, q(10))
        assert old == q(1, 2, 3)
        assert store.get(b"vec") == q(11, 12, 13)

    def test_update_vector2vector(self, store):
        store.put(b"vec", q(1, 2, 3))
        old = store.update_vector2vector(b"vec", FETCH_ADD, q(1, 2, 3))
        assert old == q(1, 2, 3)
        assert store.get(b"vec") == q(2, 4, 6)

    def test_reduce(self, store):
        store.put(b"vec", q(1, 2, 3, 4))
        assert store.reduce(b"vec", REDUCE_SUM, q(0)) == q(10)
        # Reduce must not modify the stored vector.
        assert store.get(b"vec") == q(1, 2, 3, 4)

    def test_filter(self, store):
        store.put(b"vec", q(0, 5, 0, 7))
        assert store.filter(b"vec", FILTER_NONZERO) == q(5, 7)
        assert store.get(b"vec") == q(0, 5, 0, 7)

    def test_pagerank_neighbor_accumulation(self, store):
        """Section 3.2: vector reduce supports PageRank weight accumulation."""
        store.put(b"node7:weights", q(3, 1, 4, 1, 5))
        total = store.reduce(b"node7:weights", REDUCE_SUM, q(0))
        assert struct.unpack("<q", total)[0] == 14

    def test_user_defined_function(self, store):
        """Section 3.2: user-defined update functions (active messages)."""
        clamp = store.register_function(
            FuncKind.UPDATE, lambda v, d: min(v, d), name="clamp"
        )
        store.put(b"vec", q(5, 100, 7))
        store.update_vector(b"vec", clamp, q(10))
        assert store.get(b"vec") == q(5, 10, 7)


class TestExecuteWireOps:
    def test_execute_roundtrip(self, store):
        put = KVOperation.put(b"k", b"v", seq=7)
        result = store.execute(put)
        assert result.ok and result.seq == 7
        get = KVOperation.get(b"k", seq=8)
        result = store.execute(get)
        assert result.value == b"v" and result.seq == 8

    def test_execute_missing_get(self, store):
        result = store.execute(KVOperation.get(b"nope"))
        assert not result.ok and result.value is None

    def test_execute_delete(self, store):
        store.put(b"k", b"v")
        assert store.execute(KVOperation.delete(b"k")).ok
        assert not store.execute(KVOperation.delete(b"k")).ok

    def test_execute_function_op(self, store):
        store.put(b"ctr", q(41))
        result = store.execute(
            KVOperation(OpType.UPDATE_SCALAR, b"ctr", func_id=FETCH_ADD,
                        param=q(1))
        )
        assert result.value == q(41)
        assert store.get(b"ctr") == q(42)


class TestFillAndMeasure:
    def test_fill_to_utilization(self, store):
        count = store.fill_to_utilization(0.2, kv_size=32)
        assert count > 0
        assert store.utilization() >= 0.2

    def test_fill_reaches_the_ordered_index(self):
        """Regression: the fill inserted behind the index's back, so RANGE
        and SCAN on an ordered store skipped every filled key."""
        store = KVDirectStore.create(memory_size=4 << 20, ordered_index=True)
        count = store.fill_to_utilization(0.1, kv_size=32)
        entries = store.range_scan(b"", len(store) + 1)
        assert len(entries) == count == len(store)
        assert entries == sorted(store.items())

    def test_fill_validates(self, store):
        with pytest.raises(KVDirectError):
            store.fill_to_utilization(1.5, kv_size=32)
        with pytest.raises(KVDirectError):
            store.fill_to_utilization(0.5, kv_size=4, key_size=8)

    def test_dma_stats_shape(self, store):
        store.put(b"k", b"v")
        store.get(b"k")
        stats = store.dma_stats()
        assert stats["memory_accesses"] >= 3
        assert stats["get_mean_accesses"] == 1.0
        assert stats["put_mean_accesses"] == 2.0
        assert stats["slab_amortized_dma_per_op"] == 0.0  # inline only

    def test_reset_measurements_keeps_data(self, store):
        store.put(b"k", b"v")
        store.reset_measurements()
        assert store.dma_stats()["memory_accesses"] == 0
        assert store.get(b"k") == b"v"


class TestForwardingConsistency:
    """The OoO forwarding executor and the store must agree exactly."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["get", "put", "delete", "add"]),
                st.integers(0, 3),
                st.integers(-100, 100),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_forwarded_equals_direct(self, commands):
        direct = KVDirectStore.create(memory_size=1 << 20)
        executor = partial(apply_operation, registry=direct.registry)
        shadow = {}  # key -> value bytes, maintained via the executor
        for action, key_index, operand in commands:
            key = b"key%d" % key_index
            if action == "get":
                op = KVOperation.get(key)
            elif action == "put":
                op = KVOperation.put(key, q(operand))
            elif action == "delete":
                op = KVOperation.delete(key)
            else:
                op = KVOperation.update(key, FETCH_ADD, q(operand))
            direct_result = direct.execute(op)
            new_value, fwd_result = executor(op, shadow.get(key))
            if new_value is None:
                shadow.pop(key, None)
            else:
                shadow[key] = new_value
            assert direct_result.ok == fwd_result.ok
            assert direct_result.value == fwd_result.value
        for key, value in shadow.items():
            assert direct.get(key) == value


def _interpreter_mix(seed, count=300, keys=60):
    """Seeded GET / PUT / DELETE / fetch-add / vector λ / RANGE / SCAN."""
    rng = random.Random(seed)
    ops = []
    for seq in range(count):
        key = b"key%03d" % rng.randrange(keys)
        kind = rng.randrange(7)
        if kind == 0:
            op = KVOperation.get(key, seq=seq)
        elif kind == 1:
            value = q(*range(seq, seq + rng.randrange(1, 9)))
            op = KVOperation.put(key, value, seq=seq)
        elif kind == 2:
            op = KVOperation.delete(key, seq=seq)
        elif kind == 3:
            op = KVOperation.update(key, FETCH_ADD, q(1), seq=seq)
        elif kind == 4:
            op = KVOperation(
                OpType.UPDATE_SCALAR2VECTOR, key, func_id=FETCH_ADD,
                param=q(seq), seq=seq,
            )
        elif kind == 5:
            op = KVOperation.range(key, rng.randrange(1, 8), seq=seq)
        else:
            op = KVOperation.scan(key, rng.randrange(1, 8), seq=seq)
        ops.append(op)
    return ops


class TestOneInterpreter:
    """``store.execute`` and the timed pipeline's memory stage run every op
    through the same ``KVDirectStore.apply``: one serial mix leaves equal
    results, contents, cost statistics and memory accesses both ways."""

    @staticmethod
    def _loaded_store():
        store = KVDirectStore.create(memory_size=4 << 20, ordered_index=True)
        for i in range(0, 60, 2):
            store.put(b"key%03d" % i, q(i, i + 1, i + 2))
        store.reset_measurements()
        return store

    @pytest.mark.parametrize("seed", [1, 2])
    def test_execute_and_pipeline_agree(self, seed):
        ops = _interpreter_mix(seed)
        direct = self._loaded_store()
        direct_results = [direct.execute(op) for op in ops]

        timed = self._loaded_store()
        processor = KVProcessor(Simulator(), timed)
        responses = []
        submit = processor.submit

        def submit_and_keep(op):
            responses.append(submit(op))
            return responses[-1]

        processor.submit = submit_and_keep
        run_closed_loop(processor, ops, concurrency=1)
        assert processor.completed == len(ops)

        assert [event.value for event in responses] == direct_results
        assert sorted(timed.items()) == sorted(direct.items())
        assert timed.dma_stats() == direct.dma_stats()
        for name in ("get_cost", "put_cost", "delete_cost"):
            assert (getattr(timed.table, name).count
                    == getattr(direct.table, name).count)
        assert timed.index.scan_cost.count == direct.index.scan_cost.count
        assert timed.table.counters == direct.table.counters
        assert timed.index.counters == direct.index.counters
        assert timed.memory.accesses == direct.memory.accesses > 0


class TestKeysIterator:
    def test_keys(self, store):
        store.put(b"a", b"1")
        store.put(b"b", b"2")
        assert sorted(store.keys()) == [b"a", b"b"]

    def test_keys_empty(self, store):
        assert list(store.keys()) == []
