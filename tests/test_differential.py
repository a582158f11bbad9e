"""Differential testing: the store against an independent reference model.

Seeded random operation sequences (GET / PUT / DELETE / atomic add / vector
update) run through :class:`~repro.core.store.KVDirectStore` and through a
plain-dict model that reimplements the semantics from scratch (struct
arithmetic, not :func:`~repro.core.vector.apply_operation`), then every
result and the final state are compared.

The same harness runs with faults injected: faulted runs may *error*, but
must never return wrong data or leave the store diverged from the model.
The timed pipeline (KVProcessor) is checked against a serial oracle under
recoverable faults as well.
"""

import random
import struct

import pytest

from repro.core.operations import KVOperation, OpType
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.core.vector import FETCH_ADD
from repro.driver import run_closed_loop
from repro.errors import FaultInjected
from repro.faults import FaultPlan
from repro.sim import Simulator

_MASK64 = (1 << 64) - 1


def _wrap64(value):
    """Two's-complement wrap to a signed 64-bit integer."""
    value &= _MASK64
    return value - (1 << 64) if value >= 1 << 63 else value


def _q(*values):
    return struct.pack("<%dq" % len(values), *(_wrap64(v) for v in values))


class DictModel:
    """From-scratch reference semantics over a plain dict.

    Deliberately independent of the repro package's value machinery: all
    arithmetic is re-derived here with struct, so a shared bug between the
    store and its forwarding executor cannot hide.
    """

    def __init__(self):
        self.state = {}

    def apply(self, op):
        """Returns (ok, value) as the wire response would carry them."""
        if op.op is OpType.GET:
            value = self.state.get(op.key)
            return value is not None, value
        if op.op is OpType.PUT:
            self.state[op.key] = op.value
            return True, None
        if op.op is OpType.DELETE:
            return self.state.pop(op.key, None) is not None, None
        current = self.state.get(op.key)
        if current is None:
            return False, None
        (delta,) = struct.unpack("<q", op.param)
        if op.op is OpType.UPDATE_SCALAR:
            (old,) = struct.unpack("<q", current[:8])
            self.state[op.key] = _q(old + delta) + current[8:]
            return True, current[:8]
        if op.op is OpType.UPDATE_SCALAR2VECTOR:
            elements = struct.unpack(
                "<%dq" % (len(current) // 8), current
            )
            self.state[op.key] = _q(*(v + delta for v in elements))
            return True, current
        raise AssertionError(f"model does not cover {op.op}")


def _random_op(rng, seq):
    key = b"key%02d" % rng.randrange(20)
    kind = rng.randrange(10)
    if kind < 3:
        return KVOperation.get(key, seq=seq)
    if kind < 6:
        # Mix of inline-able and slab-backed value sizes, all whole
        # 8-byte elements so vector updates stay well-formed.
        nelems = rng.choice((1, 1, 2, 4, 8, 16))
        value = _q(*(rng.randrange(-1 << 40, 1 << 40)
                     for __ in range(nelems)))
        return KVOperation.put(key, value, seq=seq)
    if kind < 7:
        return KVOperation.delete(key, seq=seq)
    if kind < 9:
        return KVOperation.update(
            key, FETCH_ADD, _q(rng.randrange(-1000, 1000)), seq=seq
        )
    return KVOperation(
        OpType.UPDATE_SCALAR2VECTOR, key, func_id=FETCH_ADD,
        param=_q(rng.randrange(-1000, 1000)), seq=seq,
    )


def _run_differential(seed, nops, plan=None):
    """Drive store and model with the same ops; returns fault-error count.

    On a fault error the op must have been atomic: the store's state for
    that key must still match the model's.
    """
    store = KVDirectStore.create(
        memory_size=4 << 20, fault_plan=plan, seed=seed
    )
    model = DictModel()
    rng = random.Random(seed)
    errors = 0
    for seq in range(nops):
        op = _random_op(rng, seq)
        try:
            result = store.execute(op)
        except FaultInjected:
            errors += 1
            # Never wrong data: the failed op left this key untouched.
            assert store.get(op.key) == model.state.get(op.key), (
                f"seq {seq}: fault was not atomic for {op.key!r}"
            )
            continue
        ok, value = model.apply(op)
        assert result.ok == ok, f"seq {seq}: ok mismatch on {op.op.name}"
        assert result.value == value, (
            f"seq {seq}: value mismatch on {op.op.name} {op.key!r}"
        )
    assert dict(store.items()) == model.state
    return errors


class TestFunctionalDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_clean_runs_match(self, seed):
        """Acceptance: 1k+ random ops per seed, store == model exactly."""
        assert _run_differential(seed, nops=1200) == 0

    @pytest.mark.parametrize("seed", [10, 11, 12, 13, 14])
    def test_faulted_runs_error_but_never_lie(self, seed):
        """With slab exhaustion injected the harness sees errors, yet every
        returned result is still correct and the final states agree."""
        errors = _run_differential(
            seed, nops=1200, plan=FaultPlan(slab_exhaust_prob=0.02)
        )
        assert errors > 0

    def test_model_covers_every_generated_op(self):
        rng = random.Random(99)
        kinds = {_random_op(rng, i).op for i in range(500)}
        assert kinds == {
            OpType.GET, OpType.PUT, OpType.DELETE,
            OpType.UPDATE_SCALAR, OpType.UPDATE_SCALAR2VECTOR,
        }


class TestTimedDifferential:
    """The full timed pipeline against the same reference model."""

    def _run_timed(self, seed, nops, plan=None, concurrency=64):
        store = KVDirectStore.create(
            memory_size=4 << 20, fault_plan=plan, seed=seed
        )
        sim = Simulator()
        processor = KVProcessor(sim, store)
        rng = random.Random(seed)
        ops = [_random_op(rng, seq) for seq in range(nops)]
        results = {}

        def collect(op):
            def on_settle(event):
                if event.ok:
                    results[op.seq] = event.value

            return on_settle

        queue = list(reversed(ops))
        state = {"outstanding": 0}
        done = sim.event()

        def pump():
            while queue and state["outstanding"] < concurrency:
                op = queue.pop()
                state["outstanding"] += 1
                event = processor.submit(op)
                event.add_callback(collect(op))
                event.add_callback(on_response)

        def on_response(event):
            state["outstanding"] -= 1
            if queue:
                pump()
            elif state["outstanding"] == 0 and not done.triggered:
                done.succeed()

        pump()
        sim.run(done)
        return store, ops, results

    def test_matches_model_clean(self):
        store, ops, results = self._run_timed(seed=21, nops=400)
        model = DictModel()
        for op in ops:
            ok, value = model.apply(op)
            assert results[op.seq].ok == ok, f"seq {op.seq}"
            assert results[op.seq].value == value, f"seq {op.seq}"
        assert dict(store.items()) == model.state

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_matches_model_under_recoverable_faults(self, seed):
        """DMA delays, retried drops, reordering, duplication and single-bit
        ECC flips perturb *timing* only - results must still match the
        model exactly, op for op."""
        plan = FaultPlan(
            dma_delay_prob=0.2, dma_delay_ns=2000.0,
            dma_drop_prob=0.01, dma_max_retries=1000,
            dma_retry_timeout_ns=200.0,
            packet_reorder_prob=0.2, packet_duplicate_prob=0.2,
            bit_flip_prob=0.3,
        )
        store, ops, results = self._run_timed(seed=seed, nops=400, plan=plan)
        assert store.injector.fired > 0
        model = DictModel()
        for op in ops:
            ok, value = model.apply(op)
            assert results[op.seq].ok == ok, f"seq {op.seq}"
            assert results[op.seq].value == value, f"seq {op.seq}"
        assert dict(store.items()) == model.state

    def test_closed_loop_runner_still_works_under_faults(self):
        plan = FaultPlan(dma_delay_prob=0.1, dma_delay_ns=1000.0)
        store = KVDirectStore.create(
            memory_size=4 << 20, fault_plan=plan, seed=3
        )
        sim = Simulator()
        processor = KVProcessor(sim, store)
        rng = random.Random(3)
        ops = [_random_op(rng, seq) for seq in range(200)]
        stats = run_closed_loop(processor, ops, concurrency=32)
        assert stats["operations"] == 200
        assert processor.completed == 200
