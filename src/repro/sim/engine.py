"""Event loop, events, bare callables - and generator processes.

The design mirrors SimPy's core: a :class:`Simulator` owns a priority queue
of pending entries, and an :class:`Event` runs its callbacks when its entry
is processed.  Everything in the model is a callback chain: each op through
the KV pipeline, each packet, DMA, NIC-DRAM burst and cache line, and the
cold paths around them (a client's batches, a router's attempts, failover,
the soak's drivers), hopping between ``call_soon`` / ``call_after`` /
``call_when`` entries and ending by queueing - or, for a step that used to
be a sub-generator, calling - its continuation: the queue positions a
process would occupy ("Same-instant ordering contract" in
``docs/MODELING.md``) without the generator and without an :class:`Event`
per hop.  A resource takes its waiter's next step only as such a
continuation.

:class:`Process` (a generator that yields events and is resumed when they
trigger) and :class:`Timeout` remain for test code written
generator-style and for the benchmark's kernel ledger, which counts their
constructors; no model code creates either.

A queue entry is one of two things.  A triggered :class:`Event` (or
subclass): processing it clears ``callbacks`` and runs them with the event.
Or **any other callable** - a bound method, a lambda, a ``partial``, a
builtin: processing it calls it with the one shared kick-start sentinel,
whose ``_value``, ``_exception`` and ``exception`` are all ``None``, so a
step written for an event (``Process._resume``, a chain's ``line_landed``)
reads it as "succeeded, no value".  The entry carries nothing else: no
wrapper object, no tuple.

Scheduling order is the observable contract: entries fire in ``(time, FIFO)``
order — at equal simulated times, strictly in the order they were scheduled.
The implementation splits the pending set into a heap of *future* entries and
a plain FIFO deque of entries scheduled at the *current* instant (the vast
majority under closed-loop load, where most triggers are delay-0).  The split
preserves the exact global order: every heap entry at time ``T`` was pushed
before the clock reached ``T``, so it precedes — in sequence order — every
deque entry appended while processing at ``T``.  And nothing pushed while
the clock stands at ``T`` can be due at ``T`` (it would have gone to the
deque), so once the heap entries due at an instant are done the run loop
drains the deque without looking at the heap again.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Generator, List, Optional

from repro.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Tracer

#: Sentinel distinguishing "not yet triggered" from a ``None`` value.
_PENDING = object()

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Every past-time check is written ``not when > now`` (or ``>=``), never
#: ``when < now``: that is False for NaN, and a NaN entry would sit at the
#: heap top forever, ending ``run()`` with every later entry unrun.
_PAST = "cannot schedule at {}: not a time at or after now ({})"

#: :class:`Event` and every subclass: how the run loop tells an event entry
#: from a bare callable (one ``type(entry) in`` test, no call).
_EVENT_TYPES = set()


class Event:
    """A one-shot occurrence in simulated time.

    Events start *pending*; calling :meth:`succeed` or :meth:`fail` schedules
    them for processing, at which point registered callbacks run and waiting
    processes resume.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_scheduled")

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        _EVENT_TYPES.add(cls)

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        self._scheduled = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value or an exception."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError("event value read before it was triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or None - lets fault-tolerant waiters
        inspect an outcome without :attr:`value` re-raising it."""
        return self._exception

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully at the current instant."""
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError("event already triggered")
        if self._scheduled:
            raise SimulationError("event scheduled twice")
        self._scheduled = True
        self.sim._dq.append(self)
        self._value = value
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception at the current instant."""
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.sim._schedule(self, 0.0)
        self._exception = exception
        self._value = None
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed."""
        if self.callbacks is None:
            # Already processed: run inline so late listeners don't hang.
            callback(self)
        else:
            self.callbacks.append(callback)


_EVENT_TYPES.add(Event)


class _Kick:
    """What a bare callable entry is called with: reads as an event that
    succeeded with no value, so it kick-starts a :class:`Process` and
    passes a chain's ``event.exception`` check."""

    __slots__ = ()
    _value = None
    _exception = None
    exception = None


_KICK = _Kick()
#: A pending event nothing ever schedules: what ``run`` waits for when it
#: is not waiting for an event.
_NEVER = Event(None)


class Timeout(Event):
    """An event that triggers after a fixed delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        super().__init__(sim)
        self._value = value
        sim._schedule(self, delay)


class Process(Event):
    """A generator executing in simulated time.

    The wrapped generator yields :class:`Event` instances.  When a yielded
    event triggers, the generator resumes with the event's value (or the
    event's exception is thrown into it).  The process is itself an event
    that triggers with the generator's return value.
    """

    __slots__ = ("_generator",)

    def __init__(self, sim: "Simulator", generator: Generator) -> None:
        super().__init__(sim)
        self._generator = generator
        # Kick-start on the next simulation step at the current time.
        sim.call_soon(self._resume)

    def _resume(self, event: Event) -> None:
        sim = self.sim
        try:
            if event._exception is None:
                next_event = self._generator.send(event._value)
            else:
                next_event = self._generator.throw(event._exception)
        except StopIteration as stop:
            sim.finish(self, stop.value)
            return
        except BaseException as exc:
            # The process body raised: fail the process event so waiters
            # (parent processes, sim.run) observe the exception.
            if self._value is _PENDING and self._exception is None:
                self.fail(exc)
            return
        if type(next_event) not in _EVENT_TYPES:
            raise SimulationError(
                f"process yielded {next_event!r}, expected an Event"
            )
        callbacks = next_event.callbacks
        if callbacks is None:
            # Already processed: resume immediately (same as add_callback).
            self._resume(next_event)
        else:
            callbacks.append(self._resume)


class Simulator:
    """The event loop: a clock plus pending-entry queues.

    Future entries live in a ``(time, sequence, entry)`` heap; entries
    scheduled at the current instant live in a FIFO deque.  An entry is a
    triggered :class:`Event` or a bare callable.  See the module docstring
    for why this preserves exact ``(time, FIFO)`` order.

    ``tracer`` is the run's one :class:`~repro.obs.tracer.Tracer`, if any:
    the simulator stamps its spans with :attr:`now`, and every model built
    on the simulator reads :attr:`tracer` once, at construction, so one
    span log covers every NIC and layer of the run.
    """

    def __init__(self, tracer: Optional["Tracer"] = None) -> None:
        #: Current simulated time in nanoseconds: a plain attribute the run
        #: loop assigns, so reading the clock costs no call.
        self.now = 0.0
        self._queue: List = []
        self._dq = deque()
        self._sequence = 0
        #: ``call_soon(callback)``: run ``callback(kick)`` at the current
        #: instant, after everything already queued for it (the position
        #: of a delay-0 ``succeed``).  The deque's own ``append``.
        self.call_soon: Callable[[Callable], None] = self._dq.append
        self.tracer = tracer
        if tracer is not None:
            if tracer.sim is not None:
                raise ConfigurationError(
                    "this tracer already belongs to another simulator"
                )
            tracer.sim = self

    # -- scheduling --------------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        if event._scheduled:
            raise SimulationError("event scheduled twice")
        when = self.now + delay
        if when == self.now:
            self._dq.append(event)
        else:
            if not when > self.now:
                raise SimulationError(_PAST.format(when, self.now))
            self._sequence += 1
            _heappush(self._queue, (when, self._sequence, event))
        event._scheduled = True

    # -- bare callables: one queue entry, nothing allocated -----------------

    def call_after(self, delay: float, callback: Callable) -> None:
        """Run ``callback(kick)`` ``delay`` ns from now (the position of a
        ``Timeout``)."""
        when = self.now + delay
        if when == self.now:
            self._dq.append(callback)
        else:
            if not when > self.now:
                raise SimulationError(_PAST.format(when, self.now))
            self._sequence += 1
            _heappush(self._queue, (when, self._sequence, callback))

    def call_when(self, when: float, callback: Callable) -> None:
        """Run ``callback(kick)`` at absolute time ``when``, after every
        entry already queued for that instant: a window tick, a
        reservation's drain time."""
        if when == self.now:
            self._dq.append(callback)
        else:
            if not when > self.now:
                raise SimulationError(_PAST.format(when, self.now))
            self._sequence += 1
            _heappush(self._queue, (when, self._sequence, callback))

    def finish(self, event: Event, value: Any = None) -> None:
        """Complete ``event`` the way a returning process completes itself:
        queued at the current instant with ``value``, and a no-op if
        something already triggered it."""
        if event._value is _PENDING and event._exception is None:
            event._value = value
            event._scheduled = True
            self._dq.append(event)

    def fail(self, then: Callable, exception: BaseException) -> None:
        """Fail a chain at the current instant: ``then`` is handed a failed
        event, queued where ``done.fail(exc)`` would queue ``done``, to read
        ``.exception`` from."""
        failed = Event(self)
        failed.callbacks.append(then)
        failed.fail(exception)

    # -- factories ---------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    # -- execution ---------------------------------------------------------

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no entries remain), a number
        (run until that simulated time), or an :class:`Event` (run until it
        is processed, returning its value - at once, with whatever else is
        queued for that instant left for the next ``run``).
        """
        queue = self._queue
        dq = self._dq
        popleft = dq.popleft
        event_types = _EVENT_TYPES
        kick = _KICK
        deadline = float("inf")
        if isinstance(until, Event):
            target = until
        else:
            target = _NEVER
            if until is not None:
                deadline = float(until)
                if not deadline >= self.now:
                    raise SimulationError(
                        f"run(until={until}) target is not at or after now"
                    )
        while target.callbacks is not None:
            # Heap entries due at this instant were all pushed before the
            # clock reached it: they go before anything in the deque.
            while queue and queue[0][0] <= self.now:
                entry = _heappop(queue)[2]
                if type(entry) in event_types:
                    callbacks = entry.callbacks
                    entry.callbacks = None
                    for callback in callbacks:
                        callback(entry)
                    if target.callbacks is None:
                        return target.value
                else:
                    entry(kick)
            # The rest of the instant: nothing queued from here on can be
            # due in the heap, so the deque drains without re-testing it.
            while dq:
                entry = popleft()
                if type(entry) in event_types:
                    callbacks = entry.callbacks
                    entry.callbacks = None
                    for callback in callbacks:
                        callback(entry)
                    if target.callbacks is None:
                        return target.value
                else:
                    entry(kick)
            if queue and queue[0][0] <= deadline:
                self.now = queue[0][0]
            elif target is not _NEVER:
                raise SimulationError(
                    "simulation ran out of events before the awaited "
                    "event triggered (deadlock?)"
                )
            else:
                if until is not None:
                    self.now = deadline
                return None
        return target.value

