"""Overload control: admission queue, shed policies, deadlines, curves.

Covers the bounded ingress queue unit-by-unit (each shed policy's victim
choice), the wire-format deadline field, the processor's lazy deadline
checks at each stage boundary, and the end-to-end graceful-degradation
acceptance criterion: at 3x offered load a shedding server holds goodput
near peak with bounded p99, while the legacy blocking ingress lets
latency blow up with the backlog.
"""

import struct
from dataclasses import replace

import pytest

from repro.chaos import probe_capacity, run_point
from repro.core.admission import (
    SHED_POLICIES,
    IngressQueue,
    OverloadPolicy,
    shed_class,
)
from repro.core.operations import KVOperation
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.core.vector import FETCH_ADD
from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    ProtocolError,
    ServerBusy,
    SimulationError,
)
from repro.network.batching import (
    decode_batch,
    decode_batch_with_deadline,
    encode_batch,
)
from repro.obs import MetricsRegistry
from repro.sim import Simulator
from tests.waiting import ignore, processed, wait


def q(value):
    return struct.pack("<q", value)


class TestOverloadPolicy:
    def test_defaults_are_valid(self):
        policy = OverloadPolicy()
        assert policy.queue_depth == 64
        assert policy.shed_policy in SHED_POLICIES

    @pytest.mark.parametrize("depth", [0, -1, float("nan"), 2.5, True])
    def test_rejects_bad_depth(self, depth):
        with pytest.raises(ConfigurationError):
            OverloadPolicy(queue_depth=depth)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigurationError, match="unknown shed policy"):
            OverloadPolicy(shed_policy="coin-flip")

    def test_with_overrides(self):
        policy = replace(OverloadPolicy(), shed_policy="drop-oldest")
        assert policy.shed_policy == "drop-oldest"

    def test_config_rejects_non_policy(self):
        with pytest.raises(ConfigurationError, match="OverloadPolicy"):
            KVDirectStore.create(memory_size=4 << 20, overload="yes")


class TestShedClass:
    def test_vector_ops_shed_first(self):
        vector = KVOperation.update(b"k", FETCH_ADD, q(1))
        put = KVOperation.put(b"k", b"v")
        delete = KVOperation.delete(b"k")
        get = KVOperation.get(b"k")
        assert shed_class(vector) < shed_class(put) == shed_class(delete)
        assert shed_class(put) < shed_class(get)


def _queue(policy="reject-new", depth=2, slots=1):
    sim = Simulator()
    queue = IngressQueue(
        sim, slots, OverloadPolicy(queue_depth=depth, shed_policy=policy)
    )
    return sim, queue


class TestIngressQueue:
    """Each op is waited on through ``tests.waiting``: its event is
    processed once the op is granted or shed, and not before."""

    def test_direct_admit_when_idle(self):
        sim, queue = _queue()
        assert queue.submit(KVOperation.get(b"a"), ignore) is True
        assert list(sim._dq) == [ignore]  # granted at once
        assert queue.counters["admitted_direct"] == 1
        assert queue.wait_ns.samples().tolist() == [0.0]
        assert queue.depth == 0
        assert queue.available == 0  # the slot went to the op

    def test_release_without_grant_rejected(self):
        """The slot ledger: every release returns a granted slot."""
        __, queue = _queue(slots=2)
        queue.submit(KVOperation.get(b"a"), ignore)
        queue.release()
        assert queue.available == queue.capacity
        with pytest.raises(SimulationError, match="without a grant"):
            queue.release()

    @pytest.mark.parametrize("slots", [0, -1])
    def test_rejects_bad_capacity(self, slots):
        with pytest.raises(SimulationError):
            _queue(slots=slots)

    def test_enqueues_when_tokens_busy(self):
        sim, queue = _queue()
        queue.submit(KVOperation.get(b"a"), ignore)
        assert queue.submit(KVOperation.get(b"b"), ignore) is False
        sim.run()
        assert queue.depth == 1
        assert queue.counters["enqueued"] == 1

    def test_release_grants_fifo_with_wait_time(self):
        sim, queue = _queue()
        queue.submit(KVOperation.get(b"a"), ignore)
        first = wait(sim, queue.submit, KVOperation.get(b"b"))
        second = wait(sim, queue.submit, KVOperation.get(b"c"))
        sim.now = 500.0  # advance the clock without running anything
        queue.release()
        sim.run()
        assert processed(first) and first.exception is None
        assert not processed(second)
        assert queue.wait_ns.count == 2  # the direct admit recorded 0.0
        assert queue.wait_ns.max() == 500.0
        assert queue.counters["admitted_queued"] == 1

    def test_reject_new_sheds_the_arrival(self):
        sim, queue = _queue(policy="reject-new", depth=1)
        queue.submit(KVOperation.get(b"a"), ignore)
        queued = wait(sim, queue.submit, KVOperation.get(b"b"))
        shed = wait(sim, queue.submit, KVOperation.get(b"c"))
        sim.run()
        assert not processed(queued)
        assert processed(shed)
        assert isinstance(shed.exception, ServerBusy)
        assert shed.exception.policy == "reject-new"
        assert shed.exception.reason == "arriving"
        assert queue.depth == 1
        assert queue.counters["shed_total"] == 1

    def test_drop_oldest_sheds_the_head(self):
        sim, queue = _queue(policy="drop-oldest", depth=1)
        queue.submit(KVOperation.get(b"a"), ignore)
        oldest = wait(sim, queue.submit, KVOperation.get(b"b"))
        arrival = wait(sim, queue.submit, KVOperation.get(b"c"))
        sim.run()
        assert processed(oldest) and oldest.exception.reason == "oldest"
        assert not processed(arrival)  # took the shed op's place
        assert queue.depth == 1

    def test_by_op_class_sheds_writes_before_reads(self):
        sim, queue = _queue(policy="by-op-class", depth=2)
        queue.submit(KVOperation.get(b"a"), ignore)
        write = wait(sim, queue.submit, KVOperation.put(b"b", b"v"))
        read = wait(sim, queue.submit, KVOperation.get(b"c"))
        arrival = wait(sim, queue.submit, KVOperation.get(b"d"))
        sim.run()
        assert processed(write) and write.exception.reason == "write"
        assert not processed(read) and not processed(arrival)
        assert queue.counters["shed_class_write"] == 1

    def test_by_op_class_sheds_vector_ops_first(self):
        sim, queue = _queue(policy="by-op-class", depth=2)
        queue.submit(KVOperation.get(b"a"), ignore)
        write = wait(sim, queue.submit, KVOperation.put(b"b", b"v"))
        vector = wait(
            sim, queue.submit, KVOperation.update(b"c", FETCH_ADD, q(1))
        )
        queue.submit(KVOperation.get(b"d"), ignore)
        sim.run()
        assert processed(vector) and vector.exception.reason == "vector"
        assert not processed(write)

    def test_by_op_class_tie_sheds_oldest(self):
        """All reads: the oldest queued read goes, not the arrival."""
        sim, queue = _queue(policy="by-op-class", depth=1)
        queue.submit(KVOperation.get(b"a"), ignore)
        oldest = wait(sim, queue.submit, KVOperation.get(b"b"))
        arrival = wait(sim, queue.submit, KVOperation.get(b"c"))
        sim.run()
        assert processed(oldest) and isinstance(oldest.exception, ServerBusy)
        assert not processed(arrival)


def _holder(queue):
    """Take the one slot."""
    queue.submit(KVOperation.get(b"holder"), ignore)


class TestIngressContinuation:
    """``submit(op, then)`` queues ``then`` at the call that grants (or
    sheds) the op - at once, from ``release``, or failed at a shed -
    measured against ``call_soon`` entries queued just before and just
    after that call; the position the event a generator once waited on
    was queued at."""

    #: name -> (policy, setup before the trigger, trigger, whether the
    #: submit of the watched op reports it queued at once).  ``watch``
    #: submits the watched op.
    CASES = {
        "granted at once": (
            "reject-new",
            lambda queue, watch: None,
            lambda queue, watch: watch(KVOperation.get(b"a")),
            True,
        ),
        "granted on release": (
            "reject-new",
            lambda queue, watch: (_holder(queue), watch(KVOperation.get(b"a"))),
            lambda queue, watch: queue.release(),
            False,
        ),
        "shed on arrival": (
            "reject-new",
            lambda queue, watch: (
                _holder(queue),
                queue.submit(KVOperation.get(b"waiter"), ignore),
            ),
            lambda queue, watch: watch(KVOperation.get(b"a")),
            True,
        ),
        "shed while waiting": (
            "drop-oldest",
            lambda queue, watch: (_holder(queue), watch(KVOperation.get(b"a"))),
            lambda queue, watch: queue.submit(KVOperation.get(b"newer"), ignore),
            False,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_continuation_runs_where_the_event_did(self, case):
        policy, setup, trigger, at_once = self.CASES[case]
        sim, queue = _queue(policy=policy, depth=1)
        order, queued_at_once = [], []

        def landed(event):
            order.append(("watched", type(event.exception)))

        def watch(op):
            queued_at_once.append(queue.submit(op, landed))

        setup(queue, watch)
        sim.run()
        sim.call_soon(lambda entry: order.append("before"))
        trigger(queue, watch)
        sim.call_soon(lambda entry: order.append("after"))
        sim.run()
        shed = case.startswith("shed")
        assert order == [
            "before",
            ("watched", ServerBusy if shed else type(None)),
            "after",
        ]
        assert queued_at_once == [at_once]


class TestWireDeadline:
    OPS = [
        KVOperation.put(b"key1", b"value", seq=0),
        KVOperation.get(b"key2", seq=1),
    ]

    def test_round_trip(self):
        payload = encode_batch(self.OPS, deadline_ns=123456.0)
        ops, deadline = decode_batch_with_deadline(payload)
        assert deadline == 123456.0
        assert [op.key for op in ops] == [op.key for op in self.OPS]

    def test_absent_by_default(self):
        payload = encode_batch(self.OPS)
        __, deadline = decode_batch_with_deadline(payload)
        assert deadline is None

    def test_no_size_change_without_deadline(self):
        plain = encode_batch(self.OPS)
        stamped = encode_batch(self.OPS, deadline_ns=1.0)
        assert len(stamped) == len(plain) + 8

    def test_checksum_covers_the_deadline(self):
        payload = encode_batch(self.OPS, checksum=True, deadline_ns=42.0)
        ops, deadline = decode_batch_with_deadline(payload, checksum=True)
        assert deadline == 42.0
        assert len(ops) == 2

    def test_decode_batch_ignores_deadline(self):
        payload = encode_batch(self.OPS, deadline_ns=42.0)
        assert len(decode_batch(payload)) == 2

    @pytest.mark.parametrize("bad", [-1.0, 2.0 ** 64])
    def test_rejects_unencodable_deadlines(self, bad):
        with pytest.raises(ProtocolError):
            encode_batch(self.OPS, deadline_ns=bad)


def _settle_all(sim, events):
    """Run until every event settles; returns (ok, shed, expired) lists."""
    gate = sim.event()
    remaining = {"n": len(events)}

    def on_settle(event):
        remaining["n"] -= 1
        if remaining["n"] == 0 and not gate.triggered:
            gate.succeed()

    for event in events:
        event.add_callback(on_settle)
    sim.run(gate)
    ok = [e for e in events if e.ok]
    shed = [e for e in events if not e.ok
            and isinstance(e.exception, ServerBusy)]
    expired = [e for e in events if not e.ok
               and isinstance(e.exception, DeadlineExceeded)]
    return ok, shed, expired


class TestProcessorShedding:
    def _processor(self, **overrides):
        sim = Simulator()
        store = KVDirectStore.create(memory_size=4 << 20, **overrides)
        for i in range(64):
            store.put(b"k%03d" % i, b"v" * 8)
        return sim, KVProcessor(sim, store)

    def test_burst_past_queue_depth_is_shed(self):
        sim, processor = self._processor(
            max_inflight=2, overload=OverloadPolicy(queue_depth=2)
        )
        events = [
            processor.submit(KVOperation.get(b"k%03d" % i, seq=i))
            for i in range(16)
        ]
        ok, shed, expired = _settle_all(sim, events)
        assert len(shed) > 0 and len(expired) == 0
        assert len(ok) + len(shed) == 16
        # Shed ops are NOT counted as completed (goodput accounting).
        assert processor.completed == len(ok)
        assert processor.counters["shed_ops"] == len(shed)
        assert processor.admission.counters["shed_total"] == len(shed)

    def test_no_shedding_without_policy(self):
        """Without a policy the ingress queue is unbounded: 16 ops through
        2 slots all wait their turn, none is shed, and no ``ingress.*``
        metric is exported."""
        sim, processor = self._processor(max_inflight=2)
        events = [
            processor.submit(KVOperation.get(b"k%03d" % i, seq=i))
            for i in range(16)
        ]
        ok, shed, __ = _settle_all(sim, events)
        assert len(ok) == 16 and not shed
        queue = processor.admission
        assert queue.policy is None and queue.counters["shed_total"] == 0
        assert queue.counters["max_depth"] >= 14
        assert queue.depth == 0
        assert queue.wait_ns.count == 0  # exported only under a policy
        assert processor.counters["shed_ops"] == 0
        names = processor.register_metrics(MetricsRegistry())._sources
        assert not [name for name in names if name.startswith("ingress")]

    def test_full_stalls_counted_on_both_paths(self):
        for overload in (None, OverloadPolicy(queue_depth=16)):
            sim, processor = self._processor(
                max_inflight=1, overload=overload
            )
            events = [
                processor.submit(KVOperation.get(b"k%03d" % i, seq=i))
                for i in range(4)
            ]
            _settle_all(sim, events)
            assert processor.station.counters["full_stalls"] >= 1
            assert processor.stall_times.count >= 1

    def test_ingress_metrics_registered_only_with_policy(self):
        __, processor = self._processor(overload=OverloadPolicy())
        registry = processor.register_metrics(MetricsRegistry())
        assert "ingress" in registry
        assert "ingress.wait_ns" in registry
        assert "ingress.depth" in registry
        __, plain = self._processor()
        assert "ingress" not in plain.register_metrics(MetricsRegistry())


class TestProcessorDeadlines:
    def _processor(self, **overrides):
        sim = Simulator()
        store = KVDirectStore.create(memory_size=4 << 20, **overrides)
        store.put(b"key", b"value000")
        return sim, store, KVProcessor(sim, store)

    def test_expires_at_decode(self):
        sim, __, processor = self._processor()
        event = processor.submit(
            KVOperation.get(b"key", seq=0), deadline_ns=1.0
        )
        _settle_all(sim, [event])
        assert not event.ok
        assert isinstance(event.exception, DeadlineExceeded)
        assert event.exception.stage == "decode"
        assert processor.deadline_counters["decode"] == 1
        assert processor.completed == 0

    def test_expires_at_admission_while_stalled(self):
        sim, __, processor = self._processor(max_inflight=1)
        slow = processor.submit(KVOperation.get(b"key", seq=0))
        # The second op decodes fine but stalls for the only token; its
        # deadline passes during the stall.
        dead = processor.submit(
            KVOperation.get(b"key", seq=1),
            deadline_ns=sim.now + 100.0,
        )
        _settle_all(sim, [slow, dead])
        assert slow.ok
        assert not dead.ok
        assert dead.exception.stage == "admission"
        assert processor.deadline_counters["admission"] == 1

    def test_expires_at_pipeline_start_for_next_issue(self):
        # Stall mode (no forwarding): a queued dependent re-enters the
        # main pipeline via next_issue after its deadline passed.
        sim, store, processor = self._processor(out_of_order=False)
        writer = processor.submit(
            KVOperation.put(b"key", b"value001", seq=0)
        )
        # Budget long enough to clear decode and admission, short enough
        # to expire while queued behind the in-flight PUT (~1 us).
        dead = processor.submit(
            KVOperation.get(b"key", seq=1), deadline_ns=sim.now + 200.0
        )
        _settle_all(sim, [writer, dead])
        assert writer.ok
        assert not dead.ok
        assert dead.exception.stage == "pipeline_start"
        assert processor.deadline_counters["pipeline_start"] == 1
        # The failed GET had no side effects; the PUT landed.
        assert store.get(b"key") == b"value001"

    def test_generous_deadline_never_fires(self):
        sim, __, processor = self._processor()
        event = processor.submit(
            KVOperation.get(b"key", seq=0), deadline_ns=1e12
        )
        sim.run(event)
        assert event.ok
        assert processor.deadline_counters.snapshot() == {}

    def test_deadline_metrics_registered(self):
        __, __, processor = self._processor()
        registry = processor.register_metrics(MetricsRegistry())
        assert "processor.deadline" in registry
        assert "station.stall_time_ns" in registry


class TestGracefulDegradation:
    """The PR's acceptance criterion, at test-suite scale."""

    def test_shedding_holds_goodput_while_blocking_blows_up(self):
        capacity = probe_capacity(num_ops=1000)
        shed1 = run_point(1.0, True, capacity, num_ops=3000)
        shed3 = run_point(3.0, True, capacity, num_ops=3000)
        noshed3 = run_point(3.0, False, capacity, num_ops=3000)
        peak = max(shed1["goodput_mops"], shed3["goodput_mops"])
        # Goodput >= 80 % of peak at 3x offered load, with real shedding
        # and bounded retries (the excess is NACKed, not queued).
        assert shed3["goodput_mops"] >= 0.8 * peak
        assert shed3["shed_rate"] > 0.1
        assert shed3["completed"] + shed3["shed"] == shed3["submitted"]
        # Without shedding nothing is dropped - the backlog is unbounded
        # and p99 blows up relative to the bounded-queue run.
        assert noshed3["shed"] == 0
        assert (
            noshed3["latency_p99_ns"] > 1.5 * shed3["latency_p99_ns"]
        )
