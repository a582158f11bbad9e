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
"""

from repro.sim.engine import Event


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
