"""Cross-module integration tests.

The strongest invariant in the system: the *timed* processor (out-of-order
engine, data forwarding, write-backs, DRAM cache, PCIe replay) must be
semantically indistinguishable from a serial dictionary, for any workload,
under any hardware configuration - the hardware may reorder independent
operations but never same-key ones.
"""

import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.operations import KVOperation, OpType
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.core.vector import FETCH_ADD, apply_operation
from repro.driver import run_closed_loop
from repro.sim import Simulator
from tests.waiting import all_of


def q(*values):
    return struct.pack("<%dq" % len(values), *values)


def _serial_reference(ops):
    """Apply the op stream serially; returns final state + results."""
    from repro.core.vector import FunctionRegistry

    registry = FunctionRegistry()
    state = {}
    results = []
    for op in ops:
        new_value, result = apply_operation(op, state.get(op.key), registry)
        if new_value is None:
            state.pop(op.key, None)
        else:
            state[op.key] = new_value
        results.append(result)
    return state, results


def _run_timed(ops, **config_overrides):
    sim = Simulator()
    store = KVDirectStore.create(memory_size=2 << 20, **config_overrides)
    processor = KVProcessor(sim, store)
    events = processor.submit_many(ops)
    sim.run(all_of(sim, events))
    sim.run()
    return store, [event.value for event in events]


_OP_STRATEGY = st.lists(
    st.tuples(
        st.sampled_from(["get", "put", "delete", "add"]),
        st.integers(0, 5),  # small key space: maximal conflict pressure
        st.integers(-50, 50),
    ),
    min_size=1,
    max_size=80,
)


def _build_ops(commands):
    ops = []
    for seq, (action, key_index, operand) in enumerate(commands):
        key = b"key%d" % key_index
        if action == "get":
            ops.append(KVOperation.get(key, seq=seq))
        elif action == "put":
            ops.append(KVOperation.put(key, q(operand), seq=seq))
        elif action == "delete":
            ops.append(KVOperation.delete(key, seq=seq))
        else:
            ops.append(KVOperation.update(key, FETCH_ADD, q(operand), seq=seq))
    return ops


class TestProcessorMatchesSerialReference:
    """Same-key operations are linearized in submission order, so the
    timed pipeline's final state AND per-op results must equal a serial
    execution - despite 80 ops being in flight at once."""

    @given(_OP_STRATEGY)
    @settings(
        max_examples=40,
        suppress_health_check=[HealthCheck.too_slow],
        deadline=None,
    )
    def test_with_ooo(self, commands):
        ops = _build_ops(commands)
        expected_state, expected_results = _serial_reference(ops)
        store, results = _run_timed(ops)
        for got, want in zip(results, expected_results):
            assert got.ok == want.ok
            assert got.value == want.value
        assert dict(store.items()) == expected_state

    @given(_OP_STRATEGY)
    @settings(
        max_examples=15,
        suppress_health_check=[HealthCheck.too_slow],
        deadline=None,
    )
    def test_without_ooo(self, commands):
        ops = _build_ops(commands)
        expected_state, expected_results = _serial_reference(ops)
        store, results = _run_timed(ops, out_of_order=False)
        for got, want in zip(results, expected_results):
            assert got.value == want.value
        assert dict(store.items()) == expected_state

    @given(_OP_STRATEGY)
    @settings(
        max_examples=15,
        suppress_health_check=[HealthCheck.too_slow],
        deadline=None,
    )
    def test_without_nic_dram(self, commands):
        ops = _build_ops(commands)
        expected_state, __ = _serial_reference(ops)
        store, __results = _run_timed(ops, use_nic_dram=False)
        assert dict(store.items()) == expected_state


class TestClosedLoopConservation:
    def test_every_op_answered_exactly_once(self):
        sim = Simulator()
        store = KVDirectStore.create(memory_size=2 << 20)
        processor = KVProcessor(sim, store)
        ops = [
            KVOperation.put(b"k%02d" % (i % 10), q(i), seq=i)
            for i in range(500)
        ]
        stats = run_closed_loop(processor, ops, concurrency=64)
        assert processor.completed == 500
        assert stats["operations"] == 500.0
        # In-flight write-backs may still be draining when the last
        # response fires; run the simulation dry before checking.
        sim.run()
        assert processor.station.inflight == 0
        assert processor.station.busy_slots() == 0
        assert processor.admission.available == processor.admission.capacity

    def test_no_response_left_pending(self):
        sim = Simulator()
        store = KVDirectStore.create(memory_size=2 << 20)
        processor = KVProcessor(sim, store)
        events = processor.submit_many(
            [KVOperation.get(b"missing%d" % i, seq=i) for i in range(50)]
        )
        sim.run()
        assert all(e.triggered for e in events)
        assert not processor._contexts


class TestVectorOpsThroughPipeline:
    def test_reduce_and_filter_do_not_dirty(self):
        """Read-only vector ops must not trigger write-backs."""
        sim = Simulator()
        store = KVDirectStore.create(memory_size=2 << 20)
        store.put(b"vec", q(1, 0, 3))
        processor = KVProcessor(sim, store)
        from repro.core.vector import FILTER_NONZERO, REDUCE_SUM

        events = processor.submit_many(
            [
                KVOperation(OpType.REDUCE, b"vec", func_id=REDUCE_SUM,
                            param=q(0), seq=0),
                KVOperation(OpType.FILTER, b"vec", func_id=FILTER_NONZERO,
                            seq=1),
            ]
        )
        sim.run(all_of(sim, events))
        assert events[0].value.value == q(4)
        assert events[1].value.value == q(1, 3)
        assert processor.counters["writebacks"] == 0
        assert store.get(b"vec") == q(1, 0, 3)

    def test_concurrent_vector_updates_linearize(self):
        sim = Simulator()
        store = KVDirectStore.create(memory_size=2 << 20)
        store.put(b"vec", q(0, 0))
        processor = KVProcessor(sim, store)
        events = processor.submit_many(
            [
                KVOperation(
                    OpType.UPDATE_SCALAR2VECTOR, b"vec",
                    func_id=FETCH_ADD, param=q(1), seq=i,
                )
                for i in range(40)
            ]
        )
        sim.run(all_of(sim, events))
        sim.run()
        assert store.get(b"vec") == q(40, 40)


class TestCachedAndUncachedAgree:
    def test_final_state_identical(self):
        """The DRAM cache is a pure performance feature: with and without
        it the store must end in the same state."""
        ops = [
            KVOperation.put(b"k%02d" % (i % 7), q(i), seq=i)
            for i in range(200)
        ] + [KVOperation.delete(b"k%02d" % j, seq=200 + j) for j in range(3)]
        cached_store, __ = _run_timed(list(ops))
        plain_store, __r = _run_timed(list(ops), use_nic_dram=False)
        assert dict(cached_store.items()) == dict(plain_store.items())
