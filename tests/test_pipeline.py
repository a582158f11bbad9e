"""The KV pipeline's observable behaviour: stage stamps in STAGE_ORDER,
span order, the OpContext lifecycle, the three deadline boundaries, the
completion fan-out and what a failed op counts - through the ingress
queue without and with an OverloadPolicy alike."""

import pytest

from repro.core.admission import OverloadPolicy
from repro.core.operations import KVOperation
from repro.core.pipeline import STAGE_ORDER
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.driver import run_closed_loop
from repro.errors import DeadlineExceeded
from repro.obs.profiler import StageProfiler
from repro.obs.tracer import Tracer
from repro.sim import Histogram, Simulator

#: Prefixes of the spans the hardware models emit (not the processor).
_HARDWARE_SPANS = ("mem.", "dram.", "pcie.")


def _processor(tracer=None, profiler=None, **overrides):
    sim = Simulator()
    store = KVDirectStore.create(memory_size=2 << 20, **overrides)
    return sim, KVProcessor(sim, store, tracer=tracer, profiler=profiler)


@pytest.fixture(params=["blocking", "overload"])
def ingress(request):
    """Config overrides for the ingress queue: unbounded, or bounded
    under an OverloadPolicy."""
    if request.param == "blocking":
        return {}
    return {"overload": OverloadPolicy(queue_depth=64)}


def _park_behind_blocker(proc, parked):
    """Submit a slow different-key PUT first so that, with one
    reservation-station slot, every op of ``parked`` waits in the station
    behind it; returns the events of ``parked``."""
    proc.submit(KVOperation.put(b"blocker", b"x" * 64, seq=100))
    return [proc.submit(op, deadline_ns=deadline) for op, deadline in parked]


class TestDriverBehaviour:
    def test_completed_op_stamps_follow_stage_order(self, ingress):
        profiler = StageProfiler()
        sim, proc = _processor(profiler=profiler, **ingress)
        proc.submit(KVOperation.put(b"k", b"v", seq=0))
        sim.run()
        (record,) = profiler.records
        assert not record.forwarded
        assert tuple(stage for stage, __ in record.timestamps) == STAGE_ORDER

    def test_forwarded_op_has_no_memory_stamp(self, ingress):
        profiler = StageProfiler()
        sim, proc = _processor(profiler=profiler, **ingress)
        proc.submit(KVOperation.put(b"k", b"v", seq=0))
        get = proc.submit(KVOperation.get(b"k", seq=1))
        sim.run()
        assert get.value.value == b"v"
        record = next(r for r in profiler.records if r.seq == 1)
        assert record.forwarded
        stages = [stage for stage, __ in record.timestamps]
        assert stages == ["decode", "admission", "issue"]
        assert proc.counters["forwarded"] == 1

    def test_put_spans_in_pipeline_order(self, ingress):
        tracer = Tracer()
        sim, proc = _processor(tracer=tracer, **ingress)
        proc.submit(KVOperation.put(b"k", b"v", seq=0))
        sim.run()
        stages = [span.stage for span in tracer.spans if span.seq == 0]
        own = [s for s in stages if not s.startswith(_HARDWARE_SPANS)]
        assert own == [
            "ingress", "decode", "station.execute",
            "pipeline.start", "pipeline.done", "complete",
        ]
        # The hardware models' spans all fall inside the memory stage.
        hardware = [
            i for i, s in enumerate(stages) if s.startswith(_HARDWARE_SPANS)
        ]
        assert hardware
        assert stages.index("pipeline.start") < min(hardware)
        assert max(hardware) < stages.index("pipeline.done")

    def test_reachable_deadline_boundaries(self, ingress):
        """Across an op dead on arrival, one that waits too long for a
        slot and one that expires parked in the station, the boundaries
        reported are exactly decode, admission and pipeline_start - by the
        exception and by ``processor.deadline.*`` alike."""
        reported, counted = set(), set()

        def collect(proc, victim):
            assert isinstance(victim.exception, DeadlineExceeded)
            assert proc.deadline_counters[victim.exception.stage] == 1
            reported.add(victim.exception.stage)
            counted.update(proc.deadline_counters.snapshot())
            assert proc.admission.available == proc.admission.capacity

        # Dead before the decoder is done with it.
        sim, proc = _processor(**ingress)
        victim = proc.submit(KVOperation.get(b"k", seq=0), deadline_ns=1.0)
        sim.run()
        collect(proc, victim)

        # Both slots taken by ~1 us PUTs: the grant comes too late.
        sim, proc = _processor(max_inflight=2, **ingress)
        for i in range(2):
            proc.submit(KVOperation.put(b"slow%d" % i, b"x" * 64, seq=i))
        victim = proc.submit(KVOperation.get(b"k", seq=9), deadline_ns=400.0)
        sim.run()
        collect(proc, victim)

        # Admitted in time, then parked past the deadline.
        sim, proc = _processor(reservation_slots=1, **ingress)
        (victim,) = _park_behind_blocker(
            proc, [(KVOperation.get(b"k", seq=0), 400.0)]
        )
        sim.run()
        collect(proc, victim)

        assert reported == counted == {"decode", "admission", "pipeline_start"}


class TestOpContext:
    def test_expiry_requires_a_deadline(self):
        """No deadline never expires; a deadline expires only once the
        clock is strictly past it."""
        tracer = Tracer()
        sim, proc = _processor(tracer=tracer)
        event = proc.submit(KVOperation.get(b"k", seq=0))
        sim.run()
        assert event.ok
        decoded_at = next(
            span.at_ns for span in tracer.spans if span.stage == "decode"
        )

        sim, proc = _processor()
        on_time = proc.submit(
            KVOperation.get(b"k", seq=0), deadline_ns=decoded_at
        )
        sim.run()
        assert on_time.ok
        assert proc.deadline_counters.snapshot() == {}

        sim, proc = _processor()
        late = proc.submit(
            KVOperation.get(b"k", seq=0), deadline_ns=decoded_at - 0.001
        )
        sim.run()
        assert isinstance(late.exception, DeadlineExceeded)
        assert late.exception.stage == "decode"

    def test_mark_records_stage_entry_times(self):
        """Each stamp is the simulated time its stage was entered."""
        tracer, profiler = Tracer(), StageProfiler()
        sim, proc = _processor(tracer=tracer, profiler=profiler)
        proc.submit(KVOperation.put(b"k", b"v", seq=0))
        sim.run()
        (record,) = profiler.records
        stamps = dict(record.timestamps)
        span_at = {span.stage: span.at_ns for span in tracer.spans}
        assert stamps["decode"] == record.submitted_ns == span_at["ingress"]
        assert stamps["admission"] == span_at["decode"]
        assert stamps["issue"] == span_at["station.execute"]
        assert stamps["memory"] == span_at["pipeline.start"]
        assert stamps["complete"] == span_at["pipeline.done"]
        times = [at for __, at in record.timestamps]
        assert times == sorted(times)
        assert stamps["memory"] < stamps["complete"] <= record.completed_ns

    def test_context_tracked_in_flight_and_released(self):
        sim, proc = _processor()
        op = KVOperation.get(b"missing", seq=0)
        event = proc.submit(op)
        ctx = proc._contexts[id(op)]
        assert ctx.op is op
        assert ctx.response is event
        assert not ctx.slot_held and not ctx.station_admitted
        sim.run()
        assert event.triggered
        assert not proc._contexts

    def test_writeback_context_is_internal(self):
        __, proc = _processor()
        wb = KVOperation.put(b"k", b"v", seq=-1)
        ctx = proc.context_for(wb)
        assert ctx.response is None
        assert ctx.station_admitted
        assert ctx.deadline_ns is None


class TestUniformDeadlineBoundaries:
    def _expire_at(self, deadline_ns):
        sim, proc = _processor()
        event = proc.submit(
            KVOperation.get(b"k", seq=0), deadline_ns=deadline_ns
        )
        sim.run()
        assert isinstance(event.exception, DeadlineExceeded)
        return proc, event.exception

    def test_decode_boundary(self):
        proc, exc = self._expire_at(1.0)
        assert exc.stage == "decode"
        assert proc.deadline_counters["decode"] == 1

    def test_boundary_counter_matches_exception_stage(self):
        proc, exc = self._expire_at(1.0)
        assert proc.deadline_counters[exc.stage] == 1
        # Exactly one boundary fired for the single op.
        assert sum(proc.deadline_counters.snapshot().values()) == 1

    def test_admission_boundary_under_saturation(self):
        """An op granted its slot after the deadline passed expires at
        the admission boundary, releasing the slot it was granted."""

        sim, proc = _processor(max_inflight=2, reservation_slots=2)
        # Saturate the station with same-key updates (serialized).
        blockers = [
            proc.submit(KVOperation.put(b"hot", b"%04d" % i, seq=i))
            for i in range(40)
        ]
        victim = proc.submit(
            KVOperation.get(b"hot", seq=99), deadline_ns=sim.now + 400.0
        )
        sim.run()
        assert all(b.triggered for b in blockers)
        assert isinstance(victim.exception, DeadlineExceeded)
        assert victim.exception.stage in ("admission", "pipeline_start")
        assert proc.deadline_counters[victim.exception.stage] == 1
        # The slot was handed back: every slot is free again.
        assert proc.admission.available == proc.admission.capacity


class TestCompletionFanOut:
    def test_failed_op_writeback_counted_traced_applied(self, ingress):
        """A PUT parked behind an op that fails is forwarded the key's
        true value; the write-back that makes its effect durable goes
        through the same fan-out as on success - counted, traced, and
        applied to the store."""
        tracer = Tracer()
        sim, proc = _processor(tracer=tracer, reservation_slots=1, **ingress)
        proc.store.put(b"k", b"old")
        doomed, put = _park_behind_blocker(
            proc,
            [
                (KVOperation.get(b"k", seq=0), 400.0),
                (KVOperation.put(b"k", b"new", seq=1), None),
            ],
        )
        sim.run()
        assert isinstance(doomed.exception, DeadlineExceeded)
        assert doomed.exception.stage == "pipeline_start"
        assert put.ok
        assert proc.counters["failed_ops"] == 1
        assert proc.counters["writebacks"] == 1
        assert proc.station.counters["writebacks"] == 1
        writebacks = [
            span for span in tracer.spans if span.stage == "station.writeback"
        ]
        assert [span.seq for span in writebacks] == [0]
        assert proc.store.get(b"k") == b"new"
        assert proc.station.occupancy == 0



def _expire_parked_gets(window=None, **ingress):
    """One PUT to ``k``, then five GETs to ``k`` that wait in the station
    behind it (no forwarding) and expire at ``pipeline_start``."""
    sim, proc = _processor(out_of_order=False, **ingress)
    proc.window_latencies = window
    events = [proc.submit(KVOperation.put(b"k", b"v", seq=0))]
    events += [
        proc.submit(KVOperation.get(b"k", seq=i), deadline_ns=300.0)
        for i in range(1, 6)
    ]
    sim.run()
    assert [event.ok for event in events] == [True] + [False] * 5
    assert proc.deadline_counters.snapshot() == {"pipeline_start": 5}
    return proc


class TestFailedOpAccounting:
    def test_failed_ops_are_neither_completed_nor_timed(self, ingress):
        """Ops that fail after station admission used to be counted as
        completed and to record a latency, unlike ops that expire at
        decode or admission."""
        window = Histogram()
        proc = _expire_parked_gets(window, **ingress)
        assert proc.completed == 1
        assert proc.latencies.count == 1 and window.count == 1

    def test_expiries_make_no_counted_read(self, ingress):
        """The value a failed op forwards to its dependents is read
        uncounted: table counters, the GET cost distribution and the
        memory counters see only the one PUT, which the engine replayed."""
        proc = _expire_parked_gets(**ingress)
        table = proc.store.table
        assert table.counters.snapshot() == {"puts": 1}
        assert table.get_cost.count == 0
        assert proc.store.memory.counters["reads"] == 1
        assert proc.engine.counters["reads"] == 1


class TestStepExceptions:
    def test_an_exception_in_the_pipeline_propagates_out_of_the_run(self):
        """A pipeline step that raises used to fail a process nobody waited
        on: the error was dropped, the op never responded, and the run
        ended in a misleading "ran out of events ... (deadlock?)"."""
        sim, proc = _processor()
        apply = proc.store.apply
        calls = []

        def apply_then_break(op, h=None):
            calls.append(op.seq)
            if len(calls) == 5:
                raise RuntimeError("bug in the functional model")
            return apply(op, h)

        proc.store.apply = apply_then_break
        ops = [KVOperation.put(b"k%d" % i, b"v", seq=i) for i in range(40)]
        with pytest.raises(RuntimeError, match="functional model"):
            run_closed_loop(proc, ops, concurrency=8)
        assert len(calls) == 5
