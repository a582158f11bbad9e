"""Shard- and cluster-aware client routing.

"Clients route operations to the NIC owning the key, by key hash": the
:class:`ShardRouter` mirrors the server's shard function
(:func:`repro.core.hashing.shard_of`) on the client side, partitions an
operation stream into per-shard substreams, and drives one full
:class:`~repro.client.client.KVClient` (batching, wire flights, retries,
deadlines) per shard concurrently under the shared simulator.

Within a shard, operation order is preserved - same-key ops always hash
to the same shard, so per-key serialization survives routing.  Across
shards there is no ordering, exactly like independent NICs.

The :class:`ClusterRouter` is the fault-tolerant variant over a
:class:`~repro.multi.cluster.Cluster`: every attempt re-reads the
placement directory, routes to the slot's primary and hands it the
epoch it routed under (``ClusterNode.submit(op, deadline_ns, epoch)``:
the operation itself is never copied or re-stamped); retryable NACKs
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
from typing import Dict, List, Optional, Sequence

from repro.client.client import ClientStats, KVClient
from repro.client.robust import BackoffPolicy, CircuitBreaker, RetryBudget
from repro.core.operations import KVOperation, KVResult, fan_out, merge_scan
from repro.driver import latency_fields
from repro.errors import (
    ConfigurationError,
    KVDirectError,
    NodeDown,
    RetryExhausted,
    WrongEpoch,
)
from repro.sim.engine import Simulator
from repro.sim.stats import Counter, Histogram, mops


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

    def as_dict(self) -> Dict[str, float]:
        return {
            "shards": float(self.shards),
            "operations": float(self.operations),
            "elapsed_ns": self.elapsed_ns,
            "throughput_mops": self.throughput_mops,
            "per_shard_mops": self.per_shard_mops,
            "latency_p50_ns": self.latency_p50_ns,
            "latency_p95_ns": self.latency_p95_ns,
            "latency_p99_ns": self.latency_p99_ns,
            "latency_mean_ns": self.latency_mean_ns,
        }


class ShardRouter:
    """One KVClient per server stack, routed by key hash."""

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

    def run(self, ops: Sequence[KVOperation]) -> RouterStats:
        """Route and send all operations; blocks (simulated) until every
        shard's client finished, then aggregates their statistics."""
        if not ops:
            raise ConfigurationError("no operations to run")
        if len(self.clients) != len(self.stacks):
            # zip() below would silently drop the excess shards' ops.
            raise ConfigurationError(
                f"router has {len(self.clients)} clients but "
                f"{len(self.stacks)} stacks: stacks were mutated after "
                f"construction"
            )
        # Mirrors the server's shard function; scans go to every shard
        # and are merged afterwards by :meth:`scan_results`.
        parts = fan_out(ops, self.shards)
        start = self.sim.now
        procs = []
        ran: List[int] = []
        for index, (client, part) in enumerate(zip(self.clients, parts)):
            if part:
                procs.append(client.start(part))
                ran.append(index)
        self.sim.run(self.sim.all_of(procs))
        elapsed = self.sim.now - start
        per_shard = [
            self.clients[index].collect_stats(len(parts[index]), elapsed)
            for index in ran
        ]
        total = mops(len(ops), elapsed)
        latencies = Histogram()
        for client in self.clients:
            latencies.record_many(client.latencies.samples())
        return RouterStats(
            shards=self.shards,
            operations=len(ops),
            elapsed_ns=elapsed,
            throughput_mops=total,
            per_shard_mops=total / self.shards,
            per_shard=per_shard,
            **latency_fields(latencies),
        )


class ClusterRouter:
    """Epoch-aware, failover-tolerant routing over a replicated cluster.

    :meth:`perform` is a generator meant to run inside a simulation
    process (``result = yield from router.perform(op)``): each attempt
    re-reads the :class:`~repro.multi.cluster.ClusterMap` and its epoch,
    pays ``route_delay_ns`` of wire time (during which the epoch may move
    - that is how :class:`~repro.errors.WrongEpoch` fires) and submits the
    operation with that epoch to the slot's primary (a RANGE/SCAN: to
    every primary, merging the partial results).  Retryable NACKs back
    off through a dedicated :class:`~repro.client.robust.BackoffPolicy`
    stream, bounded by ``retry_limit`` and the optional
    :class:`~repro.client.robust.RetryBudget`; the optional
    :class:`~repro.client.robust.CircuitBreaker` fails fast while open.
    Non-retryable failures (shed, deadline, injected faults) propagate to
    the caller unchanged.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster,
        seed: int = 0,
        retry_limit: int = 32,
        route_delay_ns: float = 50.0,
        backoff: Optional[BackoffPolicy] = None,
        retry_budget: Optional[RetryBudget] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        if type(retry_limit) is not int or retry_limit < 0:
            raise ConfigurationError(
                f"retry limit must be a non-negative int: {retry_limit!r}"
            )
        if not route_delay_ns >= 0:
            raise ConfigurationError("route delay must be non-negative")
        self.sim = sim
        self.cluster = cluster
        self.retry_limit = retry_limit
        self.route_delay_ns = route_delay_ns
        self.backoff = backoff or BackoffPolicy(
            base_ns=1_000.0,
            max_ns=100_000.0,
            jitter=0.1,
            seed=seed,
            stream="cluster",
        )
        self.budget = retry_budget
        self.breaker = breaker
        self.counters = Counter()
        self.latency_ns = Histogram()

    def perform(self, op: KVOperation, deadline_ns: Optional[float] = None):
        """Generator: route one operation to ack or a terminal failure.

        A point operation goes to its slot's primary.  Slot placement
        scatters adjacent keys across the cluster, so a RANGE/SCAN has no
        single owner: it goes to every *distinct* primary concurrently
        (in node-index order, for determinism) and the partial payloads
        are k-way merged by key, truncated to ``op.count``.  Either way a
        retryable NACK restarts the whole attempt against the re-read
        map - partials from a failed attempt are discarded, so a merged
        result always reflects one epoch.
        """
        sim = self.sim
        cluster = self.cluster
        cmap = cluster.map
        scan = op.carries_count
        attempt = 0
        while True:
            if self.breaker is not None and not self.breaker.allow():
                self.counters["breaker_fast_fails"] += 1
                yield sim.timeout(max(self.breaker.wait_ns(), 1.0))
                continue
            if scan:
                targets = sorted(
                    {cmap.primary(slot) for slot in range(cmap.num_slots)}
                )
                # Partials of a NACKed attempt may still be in flight at
                # the other primaries, and a processor tracks an in-flight
                # op by identity: each fan-out attempt sends its own copy.
                sent = copy(op)
            else:
                targets = (cmap.primary(cmap.slot_of(op.key, op.key_hash)),)
                sent = op
            epoch = cmap.epoch
            # Wire time between routing and arrival: an epoch bump can
            # land in this window, which is exactly the stale-routing race
            # the WrongEpoch NACK exists for.
            yield sim.timeout(self.route_delay_ns)
            events = [
                cluster.nodes[node].submit(sent, deadline_ns, epoch)
                for node in targets
            ]
            try:
                results = []
                for event in events:
                    results.append((yield event))
            except NodeDown as exc:
                if exc.reason == "killed":
                    cluster.notice_node_down(exc.node)
                self.counters["node_down_retries"] += 1
            except WrongEpoch:
                self.counters["wrong_epoch_retries"] += 1
            else:
                if self.breaker is not None:
                    self.breaker.record(True)
                if self.budget is not None:
                    self.budget.on_success()
                if not scan:
                    return results[0]
                self.counters["scan_fanouts"] += 1
                merged = merge_scan(op, results)
                return KVResult(
                    op.op, ok=merged is not None, value=merged, seq=op.seq
                )
            if self.breaker is not None:
                self.breaker.record(False)
            attempt += 1
            if attempt > self.retry_limit:
                self.counters["give_ups"] += 1
                raise RetryExhausted(
                    f"{op.op.name} on {op.key!r} NACKed {attempt} times"
                )
            if self.budget is not None and not self.budget.try_spend():
                self.counters["give_ups"] += 1
                raise RetryExhausted(
                    f"{op.op.name} on {op.key!r}: retry budget exhausted"
                )
            yield sim.timeout(self.backoff.delay(attempt))

    def run(self, ops: Sequence[KVOperation], concurrency: int = 64) -> dict:
        """Closed-loop run: ``concurrency`` workers drain the op stream
        through :meth:`perform`, then the cluster quiesces (channels
        drained, failovers finished) before statistics are read."""
        if not ops:
            raise ConfigurationError("no operations to run")
        if concurrency <= 0:
            raise ConfigurationError("concurrency must be positive")
        sim = self.sim
        start = sim.now
        stream = iter(ops)
        outcomes = {"completed": 0, "failed": 0}

        def worker():
            for op in stream:
                issued = sim.now
                try:
                    yield from self.perform(op)
                except KVDirectError:
                    outcomes["failed"] += 1
                else:
                    outcomes["completed"] += 1
                    self.latency_ns.record(sim.now - issued)

        workers = [
            sim.process(worker())
            for __ in range(min(concurrency, len(ops)))
        ]
        sim.run(sim.all_of(workers))
        sim.run(sim.process(self.cluster.quiesce()))
        elapsed = sim.now - start
        stats = {
            "nodes": float(len(self.cluster.nodes)),
            "slots": float(self.cluster.map.num_slots),
            "operations": float(len(ops)),
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
        snapshot = {
            "node_down_retries": self.counters.get("node_down_retries"),
            "wrong_epoch_retries": self.counters.get("wrong_epoch_retries"),
            "retry_give_ups": self.counters.get("give_ups"),
            "breaker_fast_fails": self.counters.get("breaker_fast_fails"),
            "breaker_opens": (
                self.breaker.opens if self.breaker is not None else 0
            ),
            "budget_spent": (
                self.budget.spent if self.budget is not None else 0
            ),
            "budget_refused": (
                self.budget.refused if self.budget is not None else 0
            ),
        }
        return snapshot

    def register_metrics(self, registry) -> None:
        """Register the router's counters under ``cluster.router``."""
        registry.register("cluster.router", self.counters)
        registry.register("cluster.router_latency_ns", self.latency_ns)
