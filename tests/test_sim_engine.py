"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Event, Interrupt, Simulator


class TestEventBasics:
    def test_new_event_is_pending(self):
        sim = Simulator()
        event = sim.event()
        assert not event.triggered
        assert not event.processed

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
        """``succeed`` / ``fail`` / ``call_after`` used to push the entry
        into the past: a waiter at t=10 resumed with ``sim.now == 5``."""
        sim = Simulator()
        sim.run(sim.timeout(10.0))
        event = sim.event()
        with pytest.raises(SimulationError):
            event.succeed("early", delay=-5.0)
        with pytest.raises(SimulationError):
            event.fail(ValueError("early"), delay=-5.0)
        with pytest.raises(SimulationError):
            sim.call_after(-5.0, lambda entry: None)
        with pytest.raises(SimulationError):
            sim.call_when(5.0, lambda entry: None)
        # A rejected trigger leaves the event usable, and the clock where
        # it was.
        assert not event.triggered
        event.succeed("on time")
        assert sim.run(event) == "on time"
        assert sim.now == 10.0

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

    def test_interrupt_wakes_process(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield sim.timeout(1000)
                log.append("finished")
            except Interrupt as intr:
                log.append(("interrupted", intr.cause, sim.now))

        proc = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(10)
            proc.interrupt("wakeup")

        sim.process(interrupter())
        sim.run(proc)
        assert log == [("interrupted", "wakeup", 10.0)]

    def test_is_alive(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(1)

        proc = sim.process(quick())
        assert proc.is_alive
        sim.run(proc)
        assert not proc.is_alive


class TestConditions:
    def test_all_of_collects_values(self):
        sim = Simulator()
        events = [sim.timeout(i, value=i) for i in (3, 1, 2)]
        result = sim.run(sim.all_of(events))
        assert result == [3, 1, 2]
        assert sim.now == pytest.approx(3.0)

    def test_all_of_empty(self):
        sim = Simulator()
        result = sim.run(sim.all_of([]))
        assert result == []

    def test_any_of_first_value(self):
        sim = Simulator()
        events = [sim.timeout(9, value="late"), sim.timeout(2, value="early")]
        result = sim.run(sim.any_of(events))
        assert result == "early"
        assert sim.now == pytest.approx(2.0)


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

    def test_schedule_at_absolute(self):
        sim = Simulator()
        sim.run(sim.timeout(50))
        event = sim.event()
        sim.schedule_at(event, 120.0, value="later")
        assert sim.run(event) == "later"
        assert sim.now == pytest.approx(120.0)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.run(sim.timeout(10))
        with pytest.raises(SimulationError):
            sim.schedule_at(sim.event(), 5.0)

    def test_peek(self):
        sim = Simulator()
        assert sim.peek() == float("inf")
        sim.timeout(42.0)
        assert sim.peek() == pytest.approx(42.0)

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
    """``call_soon`` / ``call_after`` / ``call_when`` entries take the queue
    positions of a delay-0 ``succeed``, a ``Timeout`` and ``schedule_at``."""

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
        sim.timeout(7.0).add_callback(note("timeout-2"))
        sim.call_when(7.0, note("when-3"))
        sim.schedule_at(sim.event(), 7.0).add_callback(
            lambda _event: (note("scheduled-4")(None),
                            sim.call_soon(note("soon-6")))
        )
        sim.event().succeed(delay=7.0).add_callback(note("delayed-5"))
        sim.call_after(3.0, note("earlier"))
        sim.run()
        assert order == [
            (0.0, "soon-1"), (0.0, "event-2"), (0.0, "process-3"),
            (0.0, "after0-4"), (0.0, "when0-5"), (0.0, "timeout0-6"),
            (3.0, "earlier"),
            (7.0, "after-1"), (7.0, "timeout-2"), (7.0, "when-3"),
            (7.0, "scheduled-4"), (7.0, "delayed-5"), (7.0, "soon-6"),
        ]

    def test_run_until_time_and_peek_see_bare_entries(self):
        sim = Simulator()
        fired = []
        sim.call_after(42.0, fired.append)
        assert sim.peek() == pytest.approx(42.0)
        sim.run(until=41.0)
        assert not fired
        sim.run(until=50.0)
        assert len(fired) == 1

    def test_finish_completes_like_a_returning_process(self):
        sim = Simulator()
        event = sim.event()
        sim.finish(event, "value")
        assert event.triggered and not event.processed
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


class TestEdgeCases:
    def test_any_of_failure_propagates(self):
        sim = Simulator()
        good = sim.timeout(10, value="ok")
        bad = sim.event()
        bad.fail(RuntimeError("boom"))
        condition = sim.any_of([good, bad])
        with pytest.raises(RuntimeError):
            sim.run(condition)

    def test_all_of_failure_fails_fast(self):
        sim = Simulator()
        slow = sim.timeout(1000)
        bad = sim.event()
        bad.fail(ValueError("nope"))
        condition = sim.all_of([slow, bad])
        with pytest.raises(ValueError):
            sim.run(condition)
        assert sim.now < 1000

    def test_interrupt_completed_process_is_noop(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(1)

        proc = sim.process(quick())
        sim.run(proc)
        proc.interrupt("late")  # must not raise
        sim.run()

    def test_unhandled_interrupt_ends_process(self):
        sim = Simulator()

        def stubborn():
            yield sim.timeout(1000)

        proc = sim.process(stubborn())
        sim.run(until=1.0)
        proc.interrupt("stop")
        sim.run(proc)
        assert not proc.is_alive

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
