"""Unit tests for the discrete-event simulation kernel."""

import ast
import inspect
from functools import partial
from pathlib import Path

import pytest

import repro
import repro.sim.engine
from repro.core.admission import IngressQueue
from repro.dram.cache import DramCache, ECCFaultPath
from repro.dram.nic import NICDram
from repro.errors import CorruptionDetected, FaultInjected, SimulationError
from repro.faults import FaultInjector, FaultPlan
from repro.memory.dispatcher import LoadDispatcher
from repro.memory.engine import MemoryAccessEngine, _CachedLine
from repro.pcie.dma import DMAEngine, MultiLinkDMA
from repro.sim import (
    BandwidthServer,
    Event,
    FIFOServer,
    Simulator,
    TokenPool,
)
from tests.waiting import all_of, idle, peek, processed, wait


class TestEventBasics:
    def test_new_event_is_pending(self):
        sim = Simulator()
        event = sim.event()
        assert not event.triggered
        assert not processed(event)

    def test_succeed_carries_value(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(42)
        sim.run()
        assert event.triggered
        assert event.value == 42

    def test_fail_raises_on_value_access(self):
        sim = Simulator()
        event = sim.event()
        event.fail(RuntimeError("boom"))
        sim.run()
        with pytest.raises(RuntimeError, match="boom"):
            __ = event.value

    def test_double_trigger_rejected(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_value_before_trigger_rejected(self):
        sim = Simulator()
        event = sim.event()
        with pytest.raises(SimulationError):
            __ = event.value

    def test_fail_requires_exception_instance(self):
        sim = Simulator()
        event = sim.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_late_callback_runs_inline(self):
        sim = Simulator()
        event = sim.event()
        event.succeed("x")
        sim.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]


class TestTimeout:
    def test_timeout_advances_clock(self):
        sim = Simulator()
        timeout = sim.timeout(150.0)
        sim.run(timeout)
        assert sim.now == pytest.approx(150.0)

    def test_timeout_value(self):
        sim = Simulator()
        timeout = sim.timeout(5.0, value="done")
        assert sim.run(timeout) == "done"

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_negative_delay_rejected_on_every_relative_schedule(self):
        """``call_after`` used to push the entry into the past: a waiter at
        t=10 resumed with ``sim.now == 5``."""
        sim = Simulator()
        sim.run(sim.timeout(10.0))
        with pytest.raises(SimulationError):
            sim.call_after(-5.0, lambda entry: None)
        with pytest.raises(SimulationError):
            sim.call_when(5.0, lambda entry: None)
        # Nothing was queued, and the clock is where it was.
        assert idle(sim)
        assert sim.now == 10.0

    def test_nan_time_rejected_on_every_schedule(self):
        """Regression: ``when < now`` is False for NaN, so a NaN entry was
        pushed, sat at the heap top failing ``<= deadline``, and ``run()``
        returned with every later entry unrun and the clock unmoved."""
        nan = float("nan")
        sim = Simulator()
        ran = []
        sim.call_after(5.0, ran.append)
        schedules = (
            lambda: sim.call_after(nan, ran.append),
            lambda: sim.call_when(nan, ran.append),
            lambda: sim.timeout(nan),
            lambda: sim.run(until=nan),
        )
        for schedule in schedules:
            with pytest.raises(SimulationError):
                schedule()
        sim.run()
        assert len(ran) == 1 and sim.now == 5.0

    def test_zero_delay_allowed(self):
        sim = Simulator()
        timeout = sim.timeout(0.0)
        sim.run(timeout)
        assert sim.now == 0.0


class TestProcess:
    def test_process_runs_to_completion(self):
        sim = Simulator()
        trace = []

        def worker():
            trace.append(("start", sim.now))
            yield sim.timeout(10)
            trace.append(("mid", sim.now))
            yield sim.timeout(5)
            trace.append(("end", sim.now))
            return "result"

        proc = sim.process(worker())
        assert sim.run(proc) == "result"
        assert trace == [("start", 0.0), ("mid", 10.0), ("end", 15.0)]

    def test_processes_interleave_by_time(self):
        sim = Simulator()
        order = []

        def worker(name, delay):
            yield sim.timeout(delay)
            order.append(name)

        sim.process(worker("slow", 20))
        sim.process(worker("fast", 5))
        sim.process(worker("mid", 10))
        sim.run()
        assert order == ["fast", "mid", "slow"]

    def test_process_waits_on_event(self):
        sim = Simulator()
        gate = sim.event()
        results = []

        def waiter():
            value = yield gate
            results.append((value, sim.now))

        def opener():
            yield sim.timeout(30)
            gate.succeed("open")

        sim.process(waiter())
        sim.process(opener())
        sim.run()
        assert results == [("open", 30.0)]

    def test_failed_event_raises_in_process(self):
        sim = Simulator()
        gate = sim.event()
        caught = []

        def waiter():
            try:
                yield gate
            except ValueError as exc:
                caught.append(str(exc))

        def failer():
            yield sim.timeout(1)
            gate.fail(ValueError("nope"))

        sim.process(waiter())
        sim.process(failer())
        sim.run()
        assert caught == ["nope"]

    def test_yield_non_event_is_error(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_nested_processes(self):
        sim = Simulator()

        def inner(n):
            yield sim.timeout(n)
            return n * 2

        def outer():
            a = yield sim.process(inner(5))
            b = yield sim.process(inner(7))
            return a + b

        assert sim.run(sim.process(outer())) == 24
        assert sim.now == pytest.approx(12.0)

    def test_is_alive(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(1)

        proc = sim.process(quick())
        assert not proc.triggered  # alive
        sim.run(proc)
        assert proc.triggered


class TestConditions:
    def test_all_of_collects_values(self):
        sim = Simulator()
        events = [sim.timeout(i, value=i) for i in (3, 1, 2)]
        result = sim.run(all_of(sim, events))
        assert result == [3, 1, 2]
        assert sim.now == pytest.approx(3.0)

    def test_all_of_empty(self):
        sim = Simulator()
        result = sim.run(all_of(sim, []))
        assert result == []

class TestSimulatorRun:
    def test_run_until_time(self):
        sim = Simulator()
        fired = []

        def worker():
            yield sim.timeout(10)
            fired.append(10)
            yield sim.timeout(10)
            fired.append(20)

        sim.process(worker())
        sim.run(until=15.0)
        assert fired == [10]
        assert sim.now == pytest.approx(15.0)
        sim.run()
        assert fired == [10, 20]

    def test_run_until_past_rejected(self):
        sim = Simulator()
        sim.timeout(100)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=50.0)

    def test_deadlock_detected(self):
        sim = Simulator()
        gate = sim.event()

        def waiter():
            yield gate

        proc = sim.process(waiter())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run(proc)

    def test_peek(self):
        sim = Simulator()
        assert idle(sim)
        sim.timeout(42.0)
        assert peek(sim) == pytest.approx(42.0)

    def test_fifo_order_for_simultaneous_events(self):
        sim = Simulator()
        order = []

        def worker(name):
            yield sim.timeout(10)
            order.append(name)

        for name in "abc":
            sim.process(worker(name))
        sim.run()
        assert order == ["a", "b", "c"]


class TestBareCallbacks:
    """``call_soon`` / ``call_after`` entries take the queue positions of a
    delay-0 ``succeed`` and a ``Timeout``; ``call_when`` is ``call_after``
    at an absolute time."""

    def test_time_fifo_order_across_entry_kinds(self):
        sim = Simulator()
        order = []

        def note(tag):
            return lambda _entry_or_event: order.append((sim.now, tag))

        def process(tag):
            order.append((sim.now, tag))
            yield sim.timeout(0)

        # Same instant: bare entries, events and process bootstraps run in
        # the order they were queued, whatever their kind.
        sim.call_soon(note("soon-1"))
        sim.event().succeed().add_callback(note("event-2"))
        sim.process(process("process-3"))
        sim.call_after(0.0, note("after0-4"))
        sim.call_when(0.0, note("when0-5"))
        sim.timeout(0.0).add_callback(note("timeout0-6"))
        # Equal future times: heap entries of every kind in push order, and
        # all of them before anything queued while processing that instant.
        sim.call_after(7.0, note("after-1"))
        sim.timeout(7.0).add_callback(
            lambda _event: (note("timeout-2")(None),
                            sim.call_soon(note("soon-5")))
        )
        sim.call_when(7.0, note("when-3"))
        sim.call_after(7.0, note("after-4"))
        sim.call_after(3.0, note("earlier"))
        sim.run()
        assert order == [
            (0.0, "soon-1"), (0.0, "event-2"), (0.0, "process-3"),
            (0.0, "after0-4"), (0.0, "when0-5"), (0.0, "timeout0-6"),
            (3.0, "earlier"),
            (7.0, "after-1"), (7.0, "timeout-2"), (7.0, "when-3"),
            (7.0, "after-4"), (7.0, "soon-5"),
        ]

    def test_any_callable_is_an_entry_in_the_deque_and_the_heap(self):
        """A builtin, a lambda and a ``partial`` queued bare, next to
        events, in the deque and in the heap: one ``(time, FIFO)`` order,
        and every one of them is called with the same kick-start sentinel
        (which is all ``order.append`` - the builtin - can record)."""
        sim = Simulator()
        order = []
        kicks = []

        def tagged(tag, kick):
            kicks.append(kick)
            order.append((sim.now, tag))

        def note(tag):
            return lambda event: order.append((sim.now, tag))

        sim.call_soon(lambda kick: tagged("lambda-1", kick))
        sim.call_soon(order.append)
        sim.event().succeed().add_callback(note("event-3"))
        sim.call_soon(partial(tagged, "partial-4"))
        sim.call_after(5.0, partial(tagged, "partial-1"))
        sim.timeout(5.0).add_callback(note("timeout-2"))
        sim.call_when(5.0, order.append)
        sim.call_after(5.0, lambda kick: tagged("lambda-4", kick))
        sim.call_after(0.0, order.append)
        sim.call_after(2.0, order.append)
        sim.run()
        kicks += [item for item in order if not isinstance(item, tuple)]
        assert len(kicks) == 8 and len({id(kick) for kick in kicks}) == 1
        kick = kicks[0]
        assert kick._value is None
        assert kick._exception is None and kick.exception is None
        assert order == [
            (0.0, "lambda-1"), kick, (0.0, "event-3"), (0.0, "partial-4"),
            kick,
            kick,
            (5.0, "partial-1"), (5.0, "timeout-2"), kick, (5.0, "lambda-4"),
        ]

    def test_a_process_is_kick_started_by_its_bare_resume(self):
        sim = Simulator()
        order = []

        def body():
            order.append("process")
            got = yield sim.timeout(1.0, value="woken")
            order.append(got)

        sim.call_soon(lambda kick: order.append("before"))
        process = sim.process(body())
        sim.call_soon(lambda kick: order.append("after"))
        # The bootstrap is the bound ``_resume`` itself, not an Event.
        assert sim._dq[1] == process._resume
        sim.run()
        assert order == ["before", "process", "after", "woken"]

    def test_run_until_event_stops_mid_instant_and_run_resumes_in_order(self):
        """The target is the second of four heap entries at t=7, and the
        first queued a deque entry: ``run(target)`` returns with two due
        heap entries and one deque entry pending, and the next ``run()``
        fires them heap first, as one uninterrupted run would."""
        def build():
            sim = Simulator()
            order = []

            def note(tag):
                return lambda entry: order.append((sim.now, tag))

            def first(kick):
                order.append((sim.now, "heap-1"))
                sim.call_soon(note("soon-5"))

            sim.call_after(7.0, first)
            target = sim.timeout(7.0, value="hit")
            target.add_callback(note("target-2"))
            sim.call_when(7.0, note("heap-3"))
            sim.timeout(7.0).add_callback(note("timeout-4"))
            sim.call_after(9.0, note("later-6"))
            return sim, order, target

        sim, uninterrupted, __ = build()
        sim.run()
        sim, order, target = build()
        assert sim.run(target) == "hit"
        assert order == [(7.0, "heap-1"), (7.0, "target-2")]
        assert sim.now == 7.0 and len(sim._dq) == 1 and len(sim._queue) == 3
        assert peek(sim) == 7.0
        assert sim.run(target) == "hit"  # already processed: nothing runs
        assert len(order) == 2
        sim.run()
        assert order == uninterrupted == [
            (7.0, "heap-1"), (7.0, "target-2"), (7.0, "heap-3"),
            (7.0, "timeout-4"), (7.0, "soon-5"), (9.0, "later-6"),
        ]

    def test_run_until_time_and_peek_see_bare_entries(self):
        sim = Simulator()
        fired = []
        sim.call_after(42.0, fired.append)
        assert peek(sim) == pytest.approx(42.0)
        sim.run(until=41.0)
        assert not fired
        sim.run(until=50.0)
        assert len(fired) == 1

    def test_finish_completes_like_a_returning_process(self):
        sim = Simulator()
        event = sim.event()
        sim.finish(event, "value")
        assert event.triggered and not processed(event)
        assert sim.run(event) == "value"

    def test_finish_on_a_triggered_event_is_a_noop(self):
        sim = Simulator()
        won = sim.event().succeed("first")
        sim.finish(won, "second")
        lost = sim.event().fail(KeyError("first"))
        sim.finish(lost)
        seen = []
        won.add_callback(seen.append)
        sim.run()
        assert seen == [won]  # queued once, not twice
        assert won.value == "first"
        assert isinstance(lost.exception, KeyError)


class TestContinuations:
    """``TokenPool.acquire(then)`` and the leaf models' ``then``: the next
    step queued bare; generator code waits through ``tests.waiting``, whose
    event is itself the ``then`` queued."""

    def test_immediate_grant_is_queued_not_called(self):
        sim = Simulator()
        pool = TokenPool(sim, 2)
        order = []
        assert pool.acquire(lambda kick: order.append("then")) is None
        order.append("after acquire")
        granted = wait(sim, pool.acquire)
        assert list(sim._dq)[-1] is granted and not processed(granted)
        granted.add_callback(lambda event: order.append("event"))
        sim.run()
        assert order == ["after acquire", "then", "event"]
        assert pool.available == 0

    def test_release_grants_in_fifo_order_across_both_forms(self):
        sim = Simulator()
        pool = TokenPool(sim, 1)
        order = []

        def holder(tag):
            return lambda entry: order.append((sim.now, tag))

        pool.acquire(holder("then-0"))
        wait(sim, pool.acquire).add_callback(holder("event-1"))
        pool.acquire(holder("then-2"))
        wait(sim, pool.acquire).add_callback(holder("event-3"))
        pool.acquire(holder("then-4"))
        sim.run()
        assert order == [(0.0, "then-0")]
        for when in (10.0, 20.0, 30.0, 40.0):
            sim.run(until=when)
            pool.release()
            # Granted at the release, queued behind it - not run inline.
            assert len(order) == when // 10 and len(sim._dq) == 1
        sim.run()
        assert order == [
            (0.0, "then-0"), (10.0, "event-1"), (20.0, "then-2"),
            (30.0, "event-3"), (40.0, "then-4"),
        ]

    def test_pool_counters_match_the_event_form(self):
        def drive(acquire):
            sim = Simulator()
            pool = TokenPool(sim, 3)
            for __ in range(5):
                acquire(pool)
            sim.run()
            seen = [(pool.available, pool.peak_in_use, pool.total_acquired)]
            for __ in range(4):
                pool.release()
                seen.append(
                    (pool.available, pool.peak_in_use, pool.total_acquired,
                     len(pool._waiters))
                )
            sim.run()
            return seen

        with_events = drive(lambda pool: wait(pool.sim, pool.acquire))
        with_continuations = drive(lambda pool: pool.acquire(lambda kick: None))
        assert with_continuations == with_events
        assert with_events[-1] == (2, 3, 5, 0)

    def test_dma_retry_exhaustion_hands_the_continuation_a_failed_event(self):
        sim = Simulator()
        injector = FaultInjector(
            FaultPlan(dma_drop_prob=1.0, dma_max_retries=2), seed=1
        )
        link = DMAEngine(sim, injector=injector)
        got = []
        assert link.read(64, seq=5, then=got.append) is None
        assert link.write(64, seq=6, then=got.append) is None
        failed_read = wait(sim, link.read, 64, 7)
        sim.run()
        assert [type(event.exception) for event in got] == [FaultInjected] * 2
        assert all(type(event) is Event and processed(event) for event in got)
        assert isinstance(failed_read.exception, FaultInjected)
        assert link.counters["fault_drops"] == 9
        for pool in (link.tags, link.nonposted_credits, link.posted_credits):
            assert pool.available == pool.capacity

    def test_uncorrectable_ecc_read_hands_the_line_a_failed_event(self):
        sim = Simulator()
        injector = FaultInjector(FaultPlan(double_bit_flip_prob=1.0), seed=1)
        engine = MemoryAccessEngine(
            sim, MultiLinkDMA(sim), NICDram(sim), LoadDispatcher(1.0),
            DramCache(nic_lines=8, host_lines=64),
            ecc=ECCFaultPath(injector),
        )
        sim.run(wait(sim, engine.access, 0, 64, True, -1))  # install line 0
        got = []
        _CachedLine(engine, 0, False, True, -1, got.append)
        sim.run()
        assert len(got) == 1 and type(got[0]) is Event
        assert isinstance(got[0].exception, CorruptionDetected)
        # ...and through the public access, waited on as an event.
        access = wait(sim, engine.access, 0, 64, False, -1)
        with pytest.raises(CorruptionDetected):
            sim.run(access)


class TestOneWayToWait:
    """The continuation is the only way model code waits on a resource:
    ``then`` is required on every one of these, and the kernel has no
    absolute-time event form, so an event-returning twin cannot come
    back unnoticed."""

    @pytest.mark.parametrize("method", [
        TokenPool.acquire, BandwidthServer.reserve, FIFOServer.reserve,
        IngressQueue.submit, NICDram.access, MemoryAccessEngine.access,
        DMAEngine.read, DMAEngine.write, MultiLinkDMA.read, MultiLinkDMA.write,
    ], ids=lambda method: method.__qualname__)
    def test_then_has_no_default(self, method):
        then = inspect.signature(method).parameters["then"]
        assert then.default is inspect.Parameter.empty

    def test_the_kernel_has_no_schedule_at(self):
        assert not hasattr(Simulator, "schedule_at")


SRC = Path(repro.__file__).parent


def _modules(*packages):
    for package in packages or ("",):
        for path in sorted((SRC / package).rglob("*.py")):
            yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


class TestOneSchedulingForm:
    """Model code waits only through chains: no generator runs as a
    simulated process, and the kernel's generator support - ``Process``,
    ``Timeout`` and their factories - is used by test code and the
    benchmark's kernel ledger alone."""

    KERNEL_NAMES = {"Process", "Timeout", "AllOf", "all_of"}
    #: The frozen benchmark imports these two from ``repro.sim``.
    REEXPORTED = {"sim/__init__.py": {"Process", "Timeout"}}

    def test_no_generator_in_the_kernel_client_cluster_or_chaos(self):
        generators = [
            f"{name}:{node.lineno}"
            for name, tree in _modules("sim", "client", "multi", "chaos")
            for node in ast.walk(tree)
            if isinstance(node, (ast.Yield, ast.YieldFrom))
        ]
        assert not generators

    def test_only_the_kernel_names_processes_and_timeouts(self):
        uses = []
        for name, tree in _modules():
            if name == "sim/engine.py":
                continue
            allowed = self.REEXPORTED.get(name, set())
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ) and node.func.attr in {"process", "timeout", "all_of"}:
                    uses.append(f"{name}:{node.lineno} .{node.func.attr}(")
                named = (
                    node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias)
                    else None
                )
                if named in self.KERNEL_NAMES - allowed:
                    uses.append(f"{name}:{getattr(node, 'lineno', '?')} {named}")
        assert not uses

    def test_all_of_has_left_the_kernel(self):
        assert not hasattr(repro.sim, "AllOf")
        assert not hasattr(repro.sim.engine, "AllOf")
        assert not hasattr(Simulator, "all_of")
        with pytest.raises(ImportError):
            from repro.sim import AllOf  # noqa: F401


class TestEdgeCases:
    def test_all_of_failure_fails_fast(self):
        sim = Simulator()
        slow = sim.timeout(1000)
        bad = sim.event()
        bad.fail(ValueError("nope"))
        condition = all_of(sim, [slow, bad])
        with pytest.raises(ValueError):
            sim.run(condition)
        assert sim.now < 1000

    def test_process_exception_propagates_to_waiter(self):
        sim = Simulator()

        def broken():
            yield sim.timeout(1)
            raise KeyError("inner")

        def outer():
            try:
                yield sim.process(broken())
            except KeyError as exc:
                return f"caught {exc}"

        assert "caught" in sim.run(sim.process(outer()))

    def test_run_until_event_value(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(5)
            return {"answer": 42}

        result = sim.run(sim.process(worker()))
        assert result == {"answer": 42}
