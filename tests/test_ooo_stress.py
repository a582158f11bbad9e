"""Randomized stress tests for the reservation station.

A driver admits and completes operations in arbitrary (but valid)
interleavings and checks global invariants: occupancy conservation, FIFO
per-key ordering of results, and exact agreement with a serial oracle.

The timed variants push the same invariants through the full
:class:`~repro.core.processor.KVProcessor` with randomized PCIe latencies
and injected DMA faults: per-key order must survive arbitrary
memory-timing perturbation, and a failed op must forward the key's *true*
value to its dependents (no stale forwarding).
"""

import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ooo import Admission, ReservationStation
from repro.core.operations import KVOperation, OpType
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.core.vector import FETCH_ADD, FunctionRegistry, apply_operation
from repro.errors import FaultInjected
from repro.faults import FaultPlan
from repro.sim import Simulator


def q(*values):
    return struct.pack("<%dq" % len(values), *values)


class StationDriver:
    """Executes a station against an in-memory 'main pipeline'."""

    def __init__(self, forwarding=True, num_slots=8, capacity=64):
        self.registry = FunctionRegistry()
        self.station = ReservationStation(
            lambda op, cur: apply_operation(op, cur, self.registry),
            num_slots=num_slots,
            capacity=capacity,
            forwarding=forwarding,
        )
        self.memory = {}  # the "host memory": key -> value
        self.pipeline = []  # ops currently in the main pipeline
        self.responses = {}  # seq -> KVResult

    def submit(self, op):
        if self.station.admit(op) is Admission.EXECUTE:
            self.pipeline.append(op)

    def step(self, rng):
        """Complete one randomly chosen in-flight pipeline op."""
        if not self.pipeline:
            return False
        op = self.pipeline.pop(rng.randrange(len(self.pipeline)))
        new_value, result = apply_operation(
            op, self.memory.get(op.key), self.registry
        )
        if new_value is None:
            self.memory.pop(op.key, None)
        else:
            self.memory[op.key] = new_value
        if op.seq >= 0:
            self.responses[op.seq] = result
        completion = self.station.complete(op, new_value)
        if completion is None:  # nothing parked behind the op
            return True
        for fwd_op, fwd_result in completion.responses:
            self.responses[fwd_op.seq] = fwd_result
        if completion.writeback is not None:
            self.pipeline.append(completion.writeback)
        if completion.next_issue is not None:
            self.pipeline.append(completion.next_issue)
        return True

    def drain(self, rng):
        while self.step(rng):
            pass


def serial_oracle(ops):
    registry = FunctionRegistry()
    state, results = {}, {}
    for op in ops:
        new_value, result = apply_operation(op, state.get(op.key), registry)
        if new_value is None:
            state.pop(op.key, None)
        else:
            state[op.key] = new_value
        results[op.seq] = result
    return state, results


def make_ops(spec):
    ops = []
    for seq, (kind, key_index, operand) in enumerate(spec):
        key = b"k%d" % key_index
        if kind == 0:
            ops.append(KVOperation.get(key, seq=seq))
        elif kind == 1:
            ops.append(KVOperation.put(key, q(operand), seq=seq))
        elif kind == 2:
            ops.append(KVOperation.delete(key, seq=seq))
        else:
            ops.append(KVOperation.update(key, FETCH_ADD, q(operand), seq=seq))
    return ops


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-9, 9)),
        min_size=1,
        max_size=60,
    ),
    st.integers(0, 2**16),
    st.booleans(),
)
@settings(
    max_examples=80,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
def test_random_interleavings_match_serial_oracle(spec, seed, forwarding):
    """Under ANY completion order the station linearizes per key."""
    rng = random.Random(seed)
    driver = StationDriver(forwarding=forwarding, capacity=len(spec) + 1)
    ops = make_ops(spec)
    for op in ops:
        driver.submit(op)
        if rng.random() < 0.4:
            driver.step(rng)
    driver.drain(rng)

    expected_state, expected_results = serial_oracle(ops)
    assert driver.memory == expected_state
    assert set(driver.responses) == set(expected_results)
    for seq, want in expected_results.items():
        got = driver.responses[seq]
        assert got.ok == want.ok, f"seq {seq}"
        assert got.value == want.value, f"seq {seq}"
    assert driver.station.occupancy == 0
    assert driver.station.busy_slots() == 0


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-9, 9)),
        min_size=1,
        max_size=60,
    ),
    st.integers(0, 2**16),
)
@settings(
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
def test_tiny_station_still_correct(spec, seed):
    """One hash slot (every key collides) must still be correct."""
    rng = random.Random(seed)
    driver = StationDriver(num_slots=1, capacity=len(spec) + 1)
    ops = make_ops(spec)
    for op in ops:
        driver.submit(op)
    driver.drain(rng)
    expected_state, __ = serial_oracle(ops)
    assert driver.memory == expected_state


def test_forwarding_actually_forwards():
    """Sanity: the stress driver exercises the forwarding path."""
    driver = StationDriver()
    ops = [KVOperation.put(b"k0", q(0), seq=0)] + [
        KVOperation.update(b"k0", FETCH_ADD, q(1), seq=i)
        for i in range(1, 21)
    ]
    for op in ops:
        driver.submit(op)
    driver.drain(random.Random(0))
    assert driver.station.counters["forwarded"] > 0
    assert driver.memory[b"k0"] == q(20)


class TestTimedPipelineUnderFaults:
    """The full timed pipeline with randomized PCIe latencies and injected
    DMA faults must still linearize per key."""

    def _hot_key_ops(self, rng, count=300, keys=3):
        ops = []
        for seq in range(count):
            key = b"hot%d" % rng.randrange(keys)
            roll = rng.random()
            if roll < 0.20:
                ops.append(KVOperation.put(key, q(rng.randrange(100)),
                                           seq=seq))
            elif roll < 0.30:
                ops.append(KVOperation.get(key, seq=seq))
            elif roll < 0.35:
                ops.append(KVOperation.delete(key, seq=seq))
            else:
                ops.append(KVOperation.update(
                    key, FETCH_ADD, q(rng.randrange(1, 10)), seq=seq
                ))
        return ops

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_per_key_order_survives_dma_faults(self, seed):
        """Hot keys + delay spikes + retried TLP drops: results must match
        the serial oracle exactly (per-key order preserved, no stale
        forwarding), and the station must fully drain."""
        plan = FaultPlan(
            dma_delay_prob=0.3, dma_delay_ns=5000.0,
            dma_drop_prob=0.02, dma_max_retries=1000,
            dma_retry_timeout_ns=500.0,
        )
        # The config seed also drives the per-link PCIe latency
        # distributions, so each case randomizes memory timing as well.
        store = KVDirectStore.create(
            memory_size=4 << 20, fault_plan=plan, seed=seed
        )
        sim = Simulator()
        processor = KVProcessor(sim, store)
        ops = self._hot_key_ops(random.Random(seed))
        events = {op.seq: processor.submit(op) for op in ops}
        sim.run()

        assert store.injector.fired > 0
        expected_state, expected_results = serial_oracle(ops)
        for seq, want in expected_results.items():
            got = events[seq].value
            assert got.ok == want.ok, f"seq {seq}"
            assert got.value == want.value, f"seq {seq}"
        assert dict(store.items()) == expected_state
        assert processor.station.occupancy == 0
        assert processor.station.busy_slots() == 0
        # With three hot keys the forwarding path was genuinely exercised.
        assert processor.counters["forwarded"] > 0

    def test_failed_op_forwards_true_value_to_dependents(self):
        """A dependent parked behind an op that dies mid-replay must be
        forwarded the key's actual current value, not stale ``None``.

        The PUT applies functionally before its timing replay exhausts the
        DMA retry budget, so the dependent GET must observe the new value.
        """
        plan = FaultPlan(
            dma_drop_prob=1.0, dma_max_retries=5,
            dma_retry_timeout_ns=1000.0,
        )
        store = KVDirectStore.create(
            memory_size=4 << 20, fault_plan=plan, load_dispatch_ratio=0.0
        )
        sim = Simulator()
        processor = KVProcessor(sim, store)
        put = KVOperation.put(b"k", q(99), seq=0)
        get = KVOperation.get(b"k", seq=1)
        put_event = processor.submit(put)
        get_event = processor.submit(get)
        sim.run()

        assert isinstance(put_event.exception, FaultInjected)
        assert processor.counters["fault_failed_replays"] == 1
        assert get_event.ok
        result = get_event.value
        assert result.ok
        assert result.value == q(99)
        # The GET never touched memory itself: it was forwarded.
        assert processor.counters["forwarded"] >= 1
        assert processor.station.occupancy == 0
