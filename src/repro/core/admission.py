"""Ingress admission: the one way into the reservation station.

The paper's reservation station bounds *in-flight* operations; an
operation that finds every slot taken waits at ingress.  That wait is an
:class:`IngressQueue`: a FIFO queue that counts the station's free slots
itself and whose :meth:`~IngressQueue.release` hands a freed slot straight
to the oldest waiter - as a continuation, like a PCIe tag, not an event
per op.  With no :class:`OverloadPolicy` the queue is unbounded
and never sheds - under offered load above capacity requests queue and
latency grows without bound.  A policy gives the processor the property
production KV stores have instead - graceful degradation: the queue is
**bounded**, and a pluggable **shed policy** decides which operation to
drop when it is full.  A shed operation fails fast with
:class:`~repro.errors.ServerBusy` (a retryable NACK on the wire) rather
than waiting forever.

Shed policies (:data:`SHED_POLICIES`):

- ``reject-new`` - the arriving operation is dropped (classic tail drop).
- ``drop-oldest`` - the head of the queue is dropped in favour of the
  arrival (the oldest op is the most likely to miss its deadline anyway).
- ``by-op-class`` - the cheapest-to-lose class goes first: vector/λ ops,
  then writes (PUT/DELETE), then reads; oldest within the class.

See ``docs/ROBUSTNESS.md`` for the full overload-control design.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional

from repro.core.operations import KVOperation, OpType
from repro.errors import ConfigurationError, ServerBusy, SimulationError
from repro.sim.engine import Simulator
from repro.sim.stats import Counter, Histogram

#: The shed policies :class:`OverloadPolicy` accepts.
SHED_POLICIES = ("reject-new", "drop-oldest", "by-op-class")

#: Shed-class ranks for ``by-op-class``: lower sheds first.
_CLASS_VECTOR = 0
_CLASS_WRITE = 1
_CLASS_READ = 2

_CLASS_NAMES = {
    _CLASS_VECTOR: "vector",
    _CLASS_WRITE: "write",
    _CLASS_READ: "read",
}


def shed_class(op: KVOperation) -> int:
    """Shed priority of one operation: vector ops first, then writes,
    then reads (reads are the last to go - they are cheap, side-effect
    free, and the likeliest to be latency-critical)."""
    if op.carries_func:
        return _CLASS_VECTOR
    if op.op in (OpType.PUT, OpType.DELETE):
        return _CLASS_WRITE
    return _CLASS_READ


@dataclass(frozen=True)
class OverloadPolicy:
    """Overload-control knobs of one processor.

    Attach via :class:`~repro.core.config.KVDirectConfig.overload`; when
    absent the processor's ingress queue is unbounded and never sheds.
    """

    #: Operations that may wait in front of the reservation station
    #: before arrivals start getting shed.
    queue_depth: int = 64

    #: One of :data:`SHED_POLICIES`.
    shed_policy: str = "reject-new"

    def __post_init__(self) -> None:
        depth = self.queue_depth
        if type(depth) is not int or depth <= 0:  # rejects bool, float, NaN
            raise ConfigurationError(
                f"ingress queue depth must be a positive int: {depth!r}"
            )
        if self.shed_policy not in SHED_POLICIES:
            raise ConfigurationError(
                f"unknown shed policy {self.shed_policy!r}: "
                f"want one of {', '.join(SHED_POLICIES)}"
            )



@dataclass
class _Waiter:
    """One operation parked in the ingress queue."""

    op: KVOperation
    #: The continuation the grant (or the shed) queues.
    then: Callable
    enqueued_ns: float


class IngressQueue:
    """FIFO admission queue in front of the reservation station.

    :meth:`submit` queues its continuation ``then(kick)`` once one of
    ``capacity`` station slots is granted, as
    :meth:`~repro.sim.resources.TokenPool.acquire` does, or - under a
    ``policy`` only - hands it a failed event carrying
    :class:`~repro.errors.ServerBusy` when the shed policy drops the
    operation.  ``policy=None`` makes the queue unbounded: it never sheds.
    Every granted slot comes back through :meth:`release`, which hands it
    to the oldest waiter in FIFO order.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: int,
        policy: Optional[OverloadPolicy],
    ) -> None:
        if capacity <= 0:
            raise SimulationError("ingress: capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        #: Station slots not granted to any op.
        self.available = capacity
        self.policy = policy
        self._queue: Deque[_Waiter] = deque()
        self.counters = Counter()
        #: Time admitted operations spent waiting in the ingress queue;
        #: recorded under a policy only, the one case that exports it.
        self.wait_ns = Histogram()

    # -- introspection ------------------------------------------------------

    @property
    def depth(self) -> int:
        """Operations currently waiting in the queue."""
        return len(self._queue)

    # -- admission ----------------------------------------------------------

    def submit(self, op: KVOperation, then: Callable) -> bool:
        """Request admission for one op: ``then(kick)`` is queued once a
        slot is granted - at once, or in FIFO turn from :meth:`release` -
        and ``then(failed_event)`` if the op is shed.  Returns whether
        ``then`` is queued already (granted or shed on arrival), so False
        means the op waits for a slot."""
        policy = self.policy
        if self.available and not self._queue:
            self.available -= 1
            self.counters["admitted_direct"] += 1
            if policy is not None:
                self.wait_ns.record(0.0)
            self.sim.call_soon(then)
            return True
        waiter = _Waiter(op, then, self.sim.now)
        if policy is None or len(self._queue) < policy.queue_depth:
            self._enqueue(waiter)
            return False
        self.counters["queue_full"] += 1
        victim = self._choose_victim(waiter)
        if victim is not waiter:
            self._queue.remove(victim)
            self._enqueue(waiter)
        self._shed(victim)
        return victim is waiter

    def release(self) -> None:
        """Return one station slot, granting it to the oldest waiter if
        any.  A release without a grant is a slot-ledger bug and raises."""
        if self.available >= self.capacity:
            raise SimulationError("ingress: slot released without a grant")
        if not self._queue:
            self.available += 1
            return
        waiter = self._queue.popleft()
        self.counters["admitted_queued"] += 1
        if self.policy is not None:
            self.wait_ns.record(self.sim.now - waiter.enqueued_ns)
        self.sim.call_soon(waiter.then)

    # -- shedding -----------------------------------------------------------

    def _enqueue(self, waiter: _Waiter) -> None:
        self._queue.append(waiter)
        self.counters["enqueued"] += 1
        self.counters.record_max("max_depth", len(self._queue))

    def _choose_victim(self, arriving: _Waiter) -> _Waiter:
        """The waiter the active shed policy gives up on."""
        policy = self.policy.shed_policy
        if policy == "reject-new":
            return arriving
        if policy == "drop-oldest":
            return self._queue[0]
        # by-op-class: lowest class first; oldest within the class (the
        # arrival is the newest member of its class).
        victim = arriving
        victim_rank = (shed_class(arriving.op), 1)
        for waiter in self._queue:
            rank = (shed_class(waiter.op), 0)
            if rank < victim_rank:
                victim, victim_rank = waiter, rank
        return victim

    def _shed(self, victim: _Waiter) -> None:
        policy = self.policy.shed_policy
        reason = (
            "arriving" if policy == "reject-new"
            else "oldest" if policy == "drop-oldest"
            else _CLASS_NAMES[shed_class(victim.op)]
        )
        self.counters["shed_total"] += 1
        self.counters.add(f"shed_{policy.replace('-', '_')}")
        self.counters.add(f"shed_class_{_CLASS_NAMES[shed_class(victim.op)]}")
        self.sim.fail(
            victim.then,
            ServerBusy(
                f"ingress queue full ({self.policy.queue_depth} deep): "
                f"op seq={victim.op.seq} shed by {policy} ({reason})",
                policy=policy,
                reason=reason,
            ),
        )
