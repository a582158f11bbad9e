"""Shard- and cluster-aware client routing.

"Clients route operations to the NIC owning the key, by key hash": the
:class:`ShardRouter` mirrors the server's shard function
(:func:`repro.core.hashing.shard_of`) on the client side, splits an
operation stream into per-shard substreams (a
:class:`~repro.core.operations.FanOut`, pulled as each shard's client
cuts its next batch), and drives one full
:class:`~repro.client.client.KVClient` (batching, wire flights, retries,
deadlines) per shard concurrently under the shared simulator.

Within a shard, operation order is preserved - same-key ops always hash
to the same shard, so per-key serialization survives routing.  Across
shards there is no ordering, exactly like independent NICs.

The :class:`ClusterRouter` is the fault-tolerant variant over a
:class:`~repro.multi.cluster.Cluster`: every attempt re-reads the
placement directory, routes to the slot's primary and hands it the
epoch it routed under and the key hash it routed by
(``ClusterNode.submit(op, deadline_ns, epoch, key_hash)``: the operation
itself is never copied, re-stamped or re-hashed); retryable NACKs
(:class:`~repro.errors.NodeDown`, :class:`~repro.errors.WrongEpoch`)
back off and re-route - the first ``NodeDown(reason="killed")`` observed
triggers cluster failover.  Because a NACKed operation provably had no
side effects, retrying it never double-applies, and because failover
drains replication before promoting, a read after the epoch bump always
sees every acknowledged write (read-your-writes across failover).
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice
from typing import Dict, Iterable, List, Optional, Sequence

from repro.client.client import ClientStats, KVClient
from repro.client.robust import (
    BUDGET, LIMIT, BackoffPolicy, CircuitBreaker, RetryBudget, RetryPolicy,
)
from repro.core.hashing import fnv1a64
from repro.core.operations import (
    FanOut,
    KVOperation,
    KVResult,
    merge_scan,
    nonempty,
)
from repro.driver import Sink, check_concurrency, latency_fields
from repro.errors import (
    ConfigurationError,
    KVDirectError,
    NodeDown,
    RetryExhausted,
    WrongEpoch,
)
from repro.sim.engine import Simulator
from repro.sim.stats import Counter, Histogram, mops

#: NACKed attempts of one cluster operation before it gives up.
RETRY_LIMIT = 32
#: Wire time between routing an attempt and its arrival at the nodes.
ROUTE_DELAY_NS = 50.0
#: The cluster backoff stream: ``min(RETRY_BACKOFF_NS * 2**(n-1),
#: MAX_BACKOFF_NS)`` before retry ``n``, stretched by up to
#: ``BACKOFF_JITTER``.
RETRY_BACKOFF_NS = 1_000.0
MAX_BACKOFF_NS = 100_000.0
BACKOFF_JITTER = 0.1


@dataclass
class RouterStats:
    """Outcome of one routed run across every shard."""

    shards: int
    operations: int
    elapsed_ns: float
    throughput_mops: float
    #: Aggregate throughput divided by shard count.
    per_shard_mops: float
    #: One ClientStats per shard client that ran (empty shards excluded).
    per_shard: List[ClientStats] = field(default_factory=list)
    #: Client-observed latency over the merged per-shard histograms;
    #: None when no operation completed.
    latency_p50_ns: Optional[float] = None
    latency_p95_ns: Optional[float] = None
    latency_p99_ns: Optional[float] = None
    latency_mean_ns: Optional[float] = None

    def as_dict(self) -> Dict[str, Optional[float]]:
        """Every field but ``per_shard``, as floats (None kept)."""
        return {
            name: None if value is None else float(value)
            for name, value in vars(self).items() if name != "per_shard"
        }


class ShardRouter:
    """One KVClient per server stack, routed by key hash.

    ``client_kwargs`` go to every shard's client, a ``sink(op, result)``
    among them (each client's results then go there instead of into its
    ``responses``, which :meth:`scan_results` reads)."""

    def __init__(self, sim: Simulator, stacks: Sequence, **client_kwargs):
        if not stacks:
            raise ConfigurationError("need at least one stack to route to")
        self.sim = sim
        self.stacks = list(stacks)
        #: One network client per stack, created through the stack so each
        #: client talks to its own ethernet port.
        self.clients: List[KVClient] = [
            stack.client(**client_kwargs) for stack in self.stacks
        ]

    @property
    def shards(self) -> int:
        return len(self.stacks)

    def scan_results(
        self, ops: Sequence[KVOperation]
    ) -> Dict[int, bytes]:
        """Merged ``{seq: payload}`` for every scan in ``ops`` that
        succeeded on all shards, from each shard client's recorded
        response (shard-index order, so the bytes are seed-stable across
        runs and shard counts)."""
        merged: Dict[int, bytes] = {}
        for op in ops:
            if not op.carries_count or op.seq < 0:
                continue
            payload = merge_scan(
                op, [client.responses.get(op.seq) for client in self.clients]
            )
            if payload is not None:
                merged[op.seq] = payload
        return merged

    def run(self, ops: Iterable[KVOperation]) -> RouterStats:
        """Route and send all operations; blocks (simulated) until every
        shard's client finished, then aggregates their statistics.  A
        stream that yields nothing is a ``ConfigurationError``."""
        ops = nonempty(ops)
        if len(self.clients) != len(self.stacks):
            # zip() below would silently drop the excess shards' ops.
            raise ConfigurationError(
                f"router has {len(self.clients)} clients but "
                f"{len(self.stacks)} stacks: stacks were mutated after "
                f"construction"
            )
        # Mirrors the server's shard function; scans go to every shard
        # and are merged afterwards by :meth:`scan_results`.
        fan = FanOut(ops, self.shards)
        lanes = fan.lanes
        sim = self.sim
        start = sim.now
        ran = [index for index, lane in enumerate(lanes) if lane.has_more()]
        done = sim.event()
        running = len(ran)

        def settled(event) -> None:
            # Fail on the first client that fails; else the entry after
            # the last client's settle is the every-shard-done one.
            nonlocal running
            if done.triggered:
                return
            if event._exception is not None:
                done.fail(event._exception)
                return
            running -= 1
            if not running:
                sim.finish(done)

        for index in ran:
            self.clients[index].start(lanes[index]).callbacks.append(settled)
        sim.run(done)
        elapsed = self.sim.now - start
        per_shard = [
            self.clients[index].collect_stats(lanes[index].taken, elapsed)
            for index in ran
        ]
        total = mops(fan.pulled, elapsed)
        latencies = Histogram()
        for client in self.clients:
            latencies.record_many(client.latencies.samples())
        return RouterStats(
            shards=self.shards,
            operations=fan.pulled,
            elapsed_ns=elapsed,
            throughput_mops=total,
            per_shard_mops=total / self.shards,
            per_shard=per_shard,
            **latency_fields(latencies),
        )


class ClusterRouter:
    """Epoch-aware, failover-tolerant routing over a replicated cluster.

    :meth:`perform` is a chain that hands its outcome to a continuation
    (``router.perform(op, deadline_ns, then)``): each attempt re-reads
    the :class:`~repro.multi.cluster.ClusterMap` and its epoch, pays
    :data:`ROUTE_DELAY_NS` of wire time (during which the epoch may move -
    that is how :class:`~repro.errors.WrongEpoch` fires) and submits the
    operation with that epoch to the slot's primary (a RANGE/SCAN: to
    every primary, merging the partial results).  A
    :class:`~repro.client.robust.RetryPolicy` decides retryable NACKs: up
    to :data:`RETRY_LIMIT`, on the ``"cluster"`` backoff stream (jitter
    seeded by ``seed``), under the optional budget and breaker.
    Non-retryable failures (shed, deadline, injected faults) reach the
    continuation unchanged and unrecorded.  :meth:`run` hands every
    successful result to ``sink(op, result)`` when one is given, and
    keeps none itself.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster,
        seed: int = 0,
        retry_budget: Optional[RetryBudget] = None,
        breaker: Optional[CircuitBreaker] = None,
        sink: Optional[Sink] = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.budget = retry_budget
        self.breaker = breaker
        self._retry = RetryPolicy(RETRY_LIMIT, BackoffPolicy(
            RETRY_BACKOFF_NS, MAX_BACKOFF_NS, BACKOFF_JITTER, seed, "cluster"
        ), retry_budget, breaker)
        self.sink = sink
        self.counters = Counter()
        self.latency_ns = Histogram()

    def perform(self, op: KVOperation, deadline_ns, then) -> None:
        """Route one operation to ack or a terminal failure, then call
        ``then(result, None)`` or ``then(None, error)`` in the step that
        sees the outcome.

        A point operation goes to its slot's primary.  Slot placement
        scatters adjacent keys across the cluster, so a RANGE/SCAN has no
        single owner: it goes to every *distinct* primary concurrently
        (in node-index order, for determinism) and the partial payloads
        are k-way merged by key, truncated to ``op.count``.  Either way a
        retryable NACK restarts the whole attempt against the re-read
        map - partials from a failed attempt are discarded, so a merged
        result always reflects one epoch.  The key is hashed once, here,
        and the hash travels with every attempt.
        """
        _Routed(self, op, deadline_ns, then).route()

    def run(
        self, ops: Iterable[KVOperation], concurrency: int = 64
    ) -> dict:
        """Closed-loop run: ``concurrency`` workers drain the op stream
        (any iterable, pulled as workers free up; an empty one is a
        ``ConfigurationError``) through :meth:`perform`, then the cluster
        quiesces (channels drained, failovers finished) before statistics
        are read."""
        check_concurrency(concurrency)
        stream = nonempty(ops)
        sim = self.sim
        sink = self.sink
        start = sim.now
        first = list(islice(stream, concurrency))
        workers = running = len(first)
        stream = chain(first, stream)
        outcomes = {"operations": 0, "completed": 0, "failed": 0}
        drained = sim.event()

        def work(_kick=None) -> None:
            nonlocal running
            op = next(stream, None)
            if op is not None:
                outcomes["operations"] += 1
                self.perform(op, None, partial(performed, op, sim.now))
                return
            running -= 1
            if not running:
                # The last worker's completion, then the every-worker-done
                # entry the simulator stops at.
                sim.call_soon(lambda _kick: sim.finish(drained))

        def performed(op, issued, result, error) -> None:
            if error is None:
                outcomes["completed"] += 1
                self.latency_ns.record(sim.now - issued)
                if sink is not None:
                    sink(op, result)
            elif isinstance(error, KVDirectError):
                outcomes["failed"] += 1
            else:
                raise error
            work()

        for __ in range(workers):
            sim.call_soon(work)
        sim.run(drained)
        self.cluster.quiesce()
        elapsed = sim.now - start
        stats = {
            "nodes": float(len(self.cluster.nodes)),
            "slots": float(self.cluster.map.num_slots),
            "operations": float(outcomes["operations"]),
            "completed": float(outcomes["completed"]),
            "failed": float(outcomes["failed"]),
            "elapsed_ns": elapsed,
            "throughput_mops": mops(outcomes["completed"], elapsed),
            "epoch": float(self.cluster.map.epoch),
        }
        stats.update(latency_fields(self.latency_ns))
        return stats

    def robustness_snapshot(self) -> Dict[str, int]:
        """The retry/fast-fail counters one soak report surfaces."""
        counters, budget = self.counters, self.budget
        return {
            "node_down_retries": counters.get("node_down_retries"),
            "wrong_epoch_retries": counters.get("wrong_epoch_retries"),
            "retry_give_ups": counters.get("give_ups"),
            "breaker_fast_fails": counters.get("breaker_fast_fails"),
            "breaker_opens": self.breaker.opens if self.breaker else 0,
            "budget_spent": budget.spent if budget else 0,
            "budget_refused": budget.refused if budget else 0,
        }

    def register_metrics(self, registry) -> None:
        """Register the router's counters under ``cluster.router``."""
        registry.register("cluster.router", self.counters)
        registry.register("cluster.router_latency_ns", self.latency_ns)


class _Routed:
    """One :meth:`ClusterRouter.perform` as a chain: each attempt waits out
    an open breaker, routes under the map it re-reads, pays the wire time,
    then resumes over its nodes' responses in node order; a retryable NACK
    backs off and re-routes."""

    __slots__ = ("router", "op", "h", "deadline_ns", "then", "scan",
                 "attempt", "sent", "epoch", "targets", "pending", "results")

    def __init__(self, router: ClusterRouter, op, deadline_ns, then) -> None:
        self.router, self.op, self.deadline_ns, self.then = (
            router, op, deadline_ns, then
        )
        #: The op's one hash: every attempt routes by it and hands it to
        #: the nodes, and it is dropped with this chain.
        self.h = fnv1a64(op.key)
        self.scan = op.carries_count
        self.attempt = 0

    def route(self, _kick=None) -> None:
        router = self.router
        if router.breaker is not None:
            hold = router._retry.hold_ns()
            if hold:
                router.counters["breaker_fast_fails"] += 1
                router.sim.call_after(hold, self.route)
                return
        cmap = router.cluster.map
        op = self.op
        if self.scan:
            self.targets = sorted(
                {cmap.primary(slot) for slot in range(cmap.num_slots)}
            )
            # Partials of a NACKed attempt may still be in flight at the
            # other primaries, and a processor tracks an in-flight op by
            # identity: each fan-out attempt sends its own copy.
            self.sent = copy(op)
        else:
            self.targets = (cmap.primary(cmap.slot_of(op.key, self.h)),)
            self.sent = op
        self.epoch = cmap.epoch
        # Wire time between routing and arrival: an epoch bump can land in
        # this window, which is exactly the stale-routing race the
        # WrongEpoch NACK exists for.
        router.sim.call_after(ROUTE_DELAY_NS, self.arrive)

    def arrive(self, _kick) -> None:
        nodes = self.router.cluster.nodes
        sent, deadline_ns, epoch, h = (
            self.sent, self.deadline_ns, self.epoch, self.h
        )
        try:
            self.pending = iter([
                nodes[node].submit(sent, deadline_ns, epoch, h)
                for node in self.targets
            ])
        except KVDirectError as error:  # e.g. the op is already in flight
            self.then(None, error)
            return
        self.results = []
        self.wait_next()

    def wait_next(self) -> None:
        """Resume on the next response in node order: at its entry, or at
        once if it already settled."""
        event = next(self.pending, None)
        if event is None:
            self.answered()
        elif event.callbacks is None:
            self.landed(event)
        else:
            event.callbacks.append(self.landed)

    def landed(self, event) -> None:
        error = event._exception
        if error is None:
            self.results.append(event._value)
            self.wait_next()
            return
        router = self.router
        if isinstance(error, NodeDown):
            if error.reason == "killed":
                router.cluster.notice_node_down(error.node)
            router.counters["node_down_retries"] += 1
        elif isinstance(error, WrongEpoch):
            router.counters["wrong_epoch_retries"] += 1
        else:
            self.then(None, error)
            return
        if router.breaker is not None:
            router.breaker.record(False)
        self.attempt += 1
        op = self.op
        delay = router._retry.retry_after(self.attempt)
        if delay is LIMIT:
            why = f" NACKed {self.attempt} times"
        elif delay is BUDGET:
            why = ": retry budget exhausted"
        else:
            router.sim.call_after(delay, self.route)
            return
        router.counters["give_ups"] += 1
        self.then(None, RetryExhausted(f"{op.op.name} on {op.key!r}{why}"))

    def answered(self) -> None:
        router = self.router
        if router.breaker is not None:
            router.breaker.record(True)
        if router.budget is not None:
            router.budget.on_success()
        op = self.op
        if not self.scan:
            self.then(self.results[0], None)
            return
        router.counters["scan_fanouts"] += 1
        merged = merge_scan(op, self.results)
        self.then(
            KVResult(op.op, ok=merged is not None, value=merged, seq=op.seq),
            None,
        )
