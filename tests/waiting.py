"""How generator code in the tests waits on a simulated resource.

Every resource takes its waiter's next step as a continuation, ``then``; a
generator yields an event instead.  :func:`wait` passes a :class:`Waiting`
event *as* ``then``, so the queue entries are the continuation's own:

- on success the resource queues the event bare, and the run loop processes
  it as the event it is, at the position the continuation would run;
- on failure ``sim.fail`` hands it the failed event it queued, and it
  completes - callbacks and all - inside that one entry.

So a generator (or ``sim.run(event)``) sees each completion at the instant
and queue position a chain does.

A test that waits on several events at once uses :class:`AllOf` (or
:func:`all_of`): the kernel's class as it was before model code stopped
using it.  :func:`performed` turns a cluster router's ``perform`` into an
event the same way.
:func:`processed`, :func:`idle` and :func:`peek` read an event's and a
simulator's state.
"""

from repro.sim.engine import _PENDING, Event


def processed(event):
    """Whether an event's callbacks have run."""
    return event.callbacks is None


def idle(sim):
    """Whether nothing is queued, now or later."""
    return not sim._dq and not sim._queue


def peek(sim):
    """Time of the next queued entry, or ``inf`` if none."""
    if sim._dq:
        if sim._queue and sim._queue[0][0] < sim.now:
            return sim._queue[0][0]
        return sim.now
    return sim._queue[0][0] if sim._queue else float("inf")


class Waiting(Event):
    """An event that is also a valid ``then``: a success queues it
    directly, so its value is in place before the queue sees it."""

    __slots__ = ()

    def __init__(self, sim):
        super().__init__(sim)
        self._value = None

    def __call__(self, failed):
        self._exception = failed.exception
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)


def wait(sim, call, *args):
    """``call(*args, then)`` as the event a generator yields."""
    event = Waiting(sim)
    call(*args, event)
    return event


def ignore(_entry):
    """The ``then`` of a booking or grant nothing waits on."""


class AllOf(Event):
    """Triggers when every constituent event has triggered.

    Succeeds with the list of values; fails fast on the first failure.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, sim, events):
        super().__init__(sim)
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed([])
            return
        for event in self._events:
            event.add_callback(self._check)

    def _check(self, event):
        if self._value is not _PENDING or self._exception is not None:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e._value for e in self._events])


def all_of(sim, events):
    """The event a test waits on for every one of ``events``."""
    return AllOf(sim, events)


def performed(router, op, deadline_ns=None):
    """``router.perform(op, deadline_ns, then)`` as an event: it succeeds
    with the result, or fails with the error, in the step that sees the
    outcome."""
    event = Event(router.sim)

    def then(result, error):
        if error is None:
            event.succeed(result)
        else:
            event.fail(error)

    router.perform(op, deadline_ns, then)
    return event
