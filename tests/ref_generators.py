"""The cold-path generators, kept as the reference their chains replaced.

The client's batches (``KVClient._run`` / ``_send_batch`` and the two loops
under them), the shard and cluster routers' runs and ``perform``, the
cluster's failover and ``quiesce``, the soak's drivers and the overload
sweep's open-loop submitter used to be generator processes.  They are
chains now, and must occupy the same queue positions (``docs/MODELING.md``,
"Rule for writing a chain").  Their bodies live on here verbatim, as
subclasses that put them back - a test-only reference that
``tests/test_cold_chains.py`` runs next to the chains.  The one edit: a
wait on several processes goes through :func:`tests.waiting.all_of`, the
kernel's old ``Simulator.all_of``.
"""

from copy import copy
from typing import Callable, Dict, Generator, List, Optional, Sequence

from repro.chaos.overload import _processor, _workload
from repro.chaos.soak import SoakReport, _Soak
from repro.client.client import KVClient, _response_size
from repro.client.router import ClusterRouter, RouterStats, ShardRouter
from repro.core.admission import OverloadPolicy
from repro.core.operations import KVOperation, KVResult, fan_out, merge_scan
from repro.driver import latency_fields
from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    FaultInjected,
    KVDirectError,
    NodeDown,
    RetryExhausted,
    ServerBusy,
    WrongEpoch,
)
from repro.multi.cluster import (
    MIGRATION_DELAY_PER_KEY_NS,
    POLL_NS,
    Cluster,
    Placement,
)
from repro.network.batching import decode_batch, encode_batch
from repro.network.rdma import packet_wire_bytes
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Event, Process
from repro.sim.stats import Histogram, mops
from tests.waiting import all_of


class RefKVClient(KVClient):
    """The client with its run and every batch as generator processes."""

    def start(self, ops: List[KVOperation]) -> Process:
        """Launch the run as a simulated process without blocking.

        Lets several clients (e.g. one per shard, see
        :class:`~repro.client.router.ShardRouter`) be driven concurrently
        under one ``sim.run``; the returned process settles when every
        batch has, and fails if a batch exhausts its retries."""
        if not ops:
            raise ConfigurationError("no operations to run")
        return self.sim.process(self._run(ops))

    def _run(self, ops: List[KVOperation]) -> Generator:
        batches = [
            ops[i : i + self.batch_size]
            for i in range(0, len(ops), self.batch_size)
        ]
        if not batches:
            return
        state = {"outstanding": 0, "next": 0, "done": 0, "total": len(batches)}
        all_done = self.sim.event()

        def watch(proc: Process) -> None:
            # A batch that exhausts its retries fails its process; surface
            # that instead of deadlocking the run.
            def on_settle(event: Event) -> None:
                if event.exception is not None and not all_done.triggered:
                    all_done.fail(event.exception)

            proc.add_callback(on_settle)

        def launch() -> None:
            while (
                state["next"] < state["total"]
                and state["outstanding"] < self.max_outstanding
            ):
                batch = batches[state["next"]]
                state["next"] += 1
                state["outstanding"] += 1
                watch(self.sim.process(self._send_batch(batch, on_batch_done)))

        def on_batch_done() -> None:
            state["outstanding"] -= 1
            state["done"] += 1
            if state["done"] == state["total"]:
                if not all_done.triggered:
                    all_done.succeed()
            else:
                launch()

        launch()
        yield all_done

    def _send_batch(self, batch: List[KVOperation], callback) -> Generator:
        start = self.sim.now
        network = self.processor.network
        deadline = (
            self.sim.now + self.deadline_budget_ns
            if self.deadline_budget_ns is not None
            else None
        )
        pending = batch
        busy_attempt = 0
        completed = 0
        while True:
            yield from self._breaker_gate()
            payload = encode_batch(
                pending, checksum=self.checksum, deadline_ns=deadline
            )
            wire = packet_wire_bytes(len(payload))
            self._trace(
                "client.batch.send", f"ops={len(pending)} wire={wire}B"
            )
            # Request flight: serialization on the port plus propagation.  A
            # lost request never reached the server; resend the whole batch.
            yield from self._flight_with_retries(
                lambda w=wire: network.receive(w), wire, "request"
            )
            # Server side: verify + unpack as the NIC batch decoder would,
            # then process every op.  (The submitted ops keep their seq
            # numbers; the decode is the integrity check.)
            if self.checksum:
                decode_batch(payload, checksum=True)
            events = [
                self.processor.submit(op, deadline_ns=deadline)
                for op in pending
            ]
            yield self._settled(events)
            busy_ops, succeeded = self._collect(pending, events)
            completed += succeeded
            # Response flight back to the client.  These ops already
            # executed (or were NACKed), so only the send retries (server
            # retransmit buffer).
            response_payload = sum(_response_size(event) for event in events)
            response_wire = packet_wire_bytes(response_payload)
            yield from self._flight_with_retries(
                lambda w=response_wire: network.send(w, nacks=len(busy_ops)),
                response_wire,
                "response",
            )
            if not busy_ops:
                break
            busy_attempt += 1
            if busy_attempt > self.busy_retry_limit:
                self._give_up(busy_ops, "busy retry limit")
                break
            if self.retry_budget is not None and not (
                self.retry_budget.try_spend()
            ):
                self._give_up(busy_ops, "retry budget exhausted")
                break
            self.busy_retries += 1
            delay = self._busy_backoff.delay(busy_attempt)
            self._trace(
                "client.busy_retry",
                f"ops={len(busy_ops)} attempt={busy_attempt} "
                f"backoff={delay:.0f}ns",
            )
            yield self.sim.timeout(delay)
            pending = busy_ops
        latency = self.sim.now - start
        self._trace("client.batch.done", f"ops={len(batch)}")
        # One sample per op that succeeded: like the processor's, the
        # client's latencies time completed ops only.
        self.latencies.extend([latency] * completed)
        callback()

    def _breaker_gate(self) -> Generator:
        """Hold the batch while the circuit breaker is open."""
        if self.breaker is None:
            return
        while not self.breaker.allow():
            wait = max(self.breaker.wait_ns(), 1.0)
            self._trace("client.breaker.wait", f"{wait:.0f}ns")
            yield self.sim.timeout(wait)

    def _flight_with_retries(
        self, flight: Callable[[], Event], wire: int, direction: str
    ) -> Generator:
        """Run one network flight, retrying injected losses with capped
        exponential backoff; raises
        :class:`~repro.errors.RetryExhausted` past the retry limit."""
        attempt = 0
        waited = 0.0
        while True:
            if direction == "request":
                self._request_bytes += wire
            else:
                self._response_bytes += wire
            try:
                yield flight()
            except FaultInjected as exc:
                attempt += 1
                if attempt > self.retry_limit:
                    raise RetryExhausted(
                        f"{direction} flight lost {attempt} times "
                        f"(retry limit {self.retry_limit}, waited "
                        f"{waited:.0f} ns in backoff)"
                    ) from exc
                if self.retry_budget is not None and not (
                    self.retry_budget.try_spend()
                ):
                    raise RetryExhausted(
                        f"{direction} flight lost {attempt} times and the "
                        f"shared retry budget is exhausted (waited "
                        f"{waited:.0f} ns in backoff)"
                    ) from exc
                self.retries += 1
                delay = self._loss_backoff.delay(attempt)
                waited += delay
                self._trace(
                    "client.retry",
                    f"{direction} attempt={attempt} backoff={delay:.0f}ns",
                )
                yield self.sim.timeout(delay)
                continue
            if self.retry_budget is not None:
                self.retry_budget.on_success()
            return

    def _settled(self, events: List[Event]) -> Event:
        """An event firing once every op event settled - succeeded *or*
        failed.  (``sim.all_of`` fails fast, which would abandon the rest
        of the batch mid-flight.)"""
        gate = self.sim.event()
        state = {"remaining": len(events)}

        def on_settle(event: Event) -> None:
            state["remaining"] -= 1
            if state["remaining"] == 0:
                gate.succeed()

        if not events:
            gate.succeed()
            return gate
        for event in events:
            event.add_callback(on_settle)
        return gate


class RefShardRouter(ShardRouter):
    """The shard router waiting on its clients' run processes; its clients
    are :class:`RefKVClient` s."""

    def __init__(self, sim, stacks, **client_kwargs):
        super().__init__(sim, stacks, **client_kwargs)
        for client in self.clients:
            client.__class__ = RefKVClient

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
        self.sim.run(all_of(self.sim, procs))
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


class RefClusterRouter(ClusterRouter):
    """The cluster router with ``perform`` a generator and one worker
    process per unit of concurrency."""

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
        sim.run(all_of(sim, workers))
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


class RefCluster(Cluster):
    """The cluster with failover and ``quiesce`` as generator processes."""

    def notice_node_down(self, node_id: int) -> None:
        """Start failover for a dead node (idempotent; routers call this
        on the first ``NodeDown(reason="killed")`` they observe)."""
        node = self.nodes[node_id]
        if node.alive or node_id in self._failed_over:
            return
        self._failed_over.add(node_id)
        self._failovers_active += 1
        self.sim.process(self._fail_over(node_id))

    def _quiesce_slot(self, slot: int):
        """Wait until a write-blocked slot has no in-flight ops and an
        empty replication channel (its state is fully settled)."""
        while self.slot_outstanding[slot] > 0:
            yield self.sim.timeout(POLL_NS)
        while self.channels[slot].pending:
            yield self.sim.timeout(POLL_NS)

    def _fail_over(self, node_id: int):
        """The failover process: drain, promote, bump, re-replicate."""
        started = self.sim.now
        node = self.nodes[node_id]
        self.annotate("cluster.failover_start", f"node{node_id}")
        # In-flight ops at the dead node settle normally (their acks
        # were or will be delivered), and each settled write enqueues its
        # replication record - wait for all of them before draining.
        while node.outstanding > 0:
            yield self.sim.timeout(POLL_NS)
        primary_slots = self.map.slots_owned(node_id)
        backup_slots = self.map.slots_backed(node_id)
        for slot in primary_slots:
            # Write-block, then drain: every acknowledged write's record
            # reaches the backup before it becomes the primary.
            self.migrating_slots.add(slot)
            yield from self._quiesce_slot(slot)
            new_primary = self.map.backup(slot)
            if new_primary is None or not self.nodes[new_primary].alive:
                self.counters["slots_lost"] += 1
                self.migrating_slots.discard(slot)
                continue
            self.map.placements[slot] = Placement(
                primary=new_primary, backup=None
            )
            self.counters["promotions"] += 1
        self.map.bump()
        self.counters["epoch_bumps"] += 1
        self.annotate("cluster.epoch_bump", f"epoch={self.map.epoch}")
        # Re-establish the replication factor for every slot the dead
        # node touched; each slot stays write-blocked during its copy so
        # the snapshot cannot race concurrent writes.
        for slot in primary_slots + backup_slots:
            placement = self.map.placements[slot]
            owner = placement.primary
            if owner == node_id or not self.nodes[owner].alive:
                self.migrating_slots.discard(slot)
                continue
            self.migrating_slots.add(slot)
            yield from self._quiesce_slot(slot)
            new_backup = self._pick_backup(exclude=owner)
            if new_backup is None:
                self.counters["unreplicated_slots"] += 1
                self.map.placements[slot] = Placement(
                    primary=owner, backup=None
                )
                self.migrating_slots.discard(slot)
                continue
            target = self.nodes[new_backup]
            # Clear any stale copy of this slot before the fresh snapshot
            # (a delete at the primary must not resurrect at the backup).
            # Both lists are sorted: migration order, and so every
            # timestamp, must not depend on set iteration order.
            for key in sorted(self.directory[new_backup][slot]):
                self.apply_state(target, slot, key, None)
            snapshot = sorted(
                self._slot_items(self.nodes[owner], slot).items()
            )
            for key, value in snapshot:
                yield self.sim.timeout(MIGRATION_DELAY_PER_KEY_NS)
                if self.apply_state(target, slot, key, value):
                    self.counters["migrated_keys"] += 1
            self.map.placements[slot] = Placement(
                primary=owner, backup=new_backup
            )
            self.migrating_slots.discard(slot)
            self.annotate(
                "cluster.slot_migrated",
                f"slot={slot} keys={len(snapshot)} backup=node{new_backup}",
            )
        self.failover_time_ns.record(self.sim.now - started)
        self.counters["failovers"] += 1
        self._failovers_active -= 1
        self.annotate(
            "cluster.failover_done",
            f"node{node_id} took={self.sim.now - started:.0f}ns",
        )

    def quiesce(self):
        """Generator: wait for every channel to drain and every failover
        to finish (run it to compare replicas differentially)."""
        while True:
            busy = self._failovers_active > 0 or any(
                channel.pending for channel in self.channels
            )
            if not busy:
                return
            yield self.sim.timeout(POLL_NS)


class RefSoak(_Soak):
    """The soak with one driver process per key, over the reference
    cluster and router when it runs a cluster."""

    def __init__(self, cfg, tracer):
        super().__init__(cfg, tracer)
        self.perform = self._submit_direct
        if self.cluster is not None:
            self.cluster.__class__ = RefCluster
            self.router.__class__ = RefClusterRouter
            self.perform = self.router.perform

    def _submit_direct(self, op: KVOperation, deadline_ns: Optional[float]):
        return (yield self.topology.submit(op, deadline_ns=deadline_ns))

    def _driver(self, key_idx: int):
        cfg = self.cfg
        for i, (op, gap) in enumerate(self.schedule[key_idx]):
            yield self.sim.timeout(gap)
            deadline = (
                self.sim.now + cfg.deadline_budget_ns
                if cfg.deadline_budget_ns is not None
                else None
            )
            self.report.submitted += 1
            outcome = "ok"
            try:
                result = yield from self.perform(op, deadline)
            except ServerBusy:
                self.report.shed += 1
                outcome = "shed"
                self._reconcile_failure(op)
            except DeadlineExceeded as exc:
                self.report.expired += 1
                outcome = f"expired:{exc.stage}"
                self._reconcile_failure(op)
            except KVDirectError as exc:
                self.report.failed += 1
                outcome = f"failed:{type(exc).__name__}"
                self._reconcile_failure(op)
            else:
                self.report.completed += 1
                self._check_response(op, result)
            self._hash.update(
                f"out|{key_idx}|{i}|{op.seq}|{outcome}\n".encode()
            )

    def run(self) -> SoakReport:
        procs = [
            self.sim.process(self._driver(key_idx))
            for key_idx in range(self.cfg.num_keys)
        ]
        done = all_of(self.sim, procs)
        self.sim.run(done)
        report = self.report
        if self.cluster is not None:
            # Let replication channels drain and any in-flight failover
            # finish before the replicas are compared differentially.
            self.sim.run(self.sim.process(self.cluster.quiesce()))
        report.elapsed_ns = self.sim.now
        report.final_state_matches = (
            self.topology.primary_state() == self.model.state
        )
        report.faults_fired = self.topology.faults_fired
        for line in self.topology.fault_digest_lines():
            self._hash.update(f"faults|{line}\n".encode())
        if self.cluster is not None:
            cluster = self.cluster
            report.divergences.extend(cluster.replication_divergences())
            # Both comparisons above read the stores through the cluster's
            # key directory; hold the directory itself to a bucket walk.
            report.divergences.extend(cluster.directory_divergences())
            self._hash.update(f"epoch|{cluster.map.epoch}\n".encode())
            report.robustness = self.router.robustness_snapshot()
            report.cluster = {
                "nodes": len(cluster.nodes),
                "alive_nodes": cluster.alive_nodes,
                "slots": cluster.map.num_slots,
                "epoch": cluster.map.epoch,
                "epoch_bumps": cluster.counters.get("epoch_bumps"),
                "failovers": cluster.counters.get("failovers"),
                "promotions": cluster.counters.get("promotions"),
                "migrated_keys": cluster.counters.get("migrated_keys"),
                "replication_records": cluster.counters.get(
                    "replication_records"
                ),
                "replication_applies": cluster.counters.get(
                    "replication_applies"
                ),
                "replication_skipped": cluster.counters.get(
                    "replication_skipped"
                ),
                "replication_lag_p99_ns": (
                    round(cluster.replication_lag_ns.percentile(99), 3)
                    if cluster.replication_lag_ns.count
                    else None
                ),
                "failover_time_ns": [
                    round(sample, 3)
                    for sample in cluster.failover_time_ns.samples()
                ],
            }
        report.digest = self._hash.hexdigest()
        return report


def ref_run_point(
    multiplier: float,
    shed: bool,
    capacity_ops_per_ns: float,
    seed: int = 0,
    num_ops: int = 2000,
    memory_size: int = 4 << 20,
    queue_depth: int = 64,
    shed_policy: str = "reject-new",
    deadline_budget_ns: Optional[float] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, float]:
    """One sweep point: open-loop arrivals at ``multiplier`` x capacity.

    When ``registry`` is given, every processor layer (including the
    ingress/shed counters) is registered on it before the run, so the
    caller can export this point's metrics afterwards.
    """
    overload = (
        OverloadPolicy(queue_depth=queue_depth, shed_policy=shed_policy)
        if shed
        else None
    )
    processor = _processor(memory_size, seed, overload)
    sim = processor.sim
    if registry is not None:
        processor.register_metrics(registry)
    ops = _workload(seed, num_ops)
    gap_ns = 1.0 / (multiplier * capacity_ops_per_ns)
    outcome = {"completed": 0, "shed": 0, "expired": 0, "failed": 0}
    done = sim.event()
    state = {"settled": 0}

    def on_settle(event) -> None:
        if event.ok:
            outcome["completed"] += 1
        elif isinstance(event.exception, ServerBusy):
            outcome["shed"] += 1
        elif isinstance(event.exception, DeadlineExceeded):
            outcome["expired"] += 1
        else:
            outcome["failed"] += 1
        state["settled"] += 1
        if state["settled"] == num_ops and not done.triggered:
            done.succeed()

    def submitter():
        for op in ops:
            deadline = (
                sim.now + deadline_budget_ns
                if deadline_budget_ns is not None
                else None
            )
            processor.submit(op, deadline_ns=deadline).add_callback(on_settle)
            yield sim.timeout(gap_ns)

    sim.process(submitter())
    sim.run(done)
    elapsed = sim.now
    latencies = processor.latencies
    point = {
        "multiplier": multiplier,
        "shed_enabled": float(shed),
        "offered_mops": multiplier * capacity_ops_per_ns * 1e3,
        "submitted": float(num_ops),
        "completed": float(outcome["completed"]),
        "shed": float(outcome["shed"]),
        "expired": float(outcome["expired"]),
        "failed": float(outcome["failed"]),
        "shed_rate": outcome["shed"] / num_ops,
        "goodput_mops": mops(outcome["completed"], elapsed),
        "elapsed_ns": elapsed,
    }
    if latencies.count:
        point["latency_p50_ns"] = latencies.percentile(50)
        point["latency_p99_ns"] = latencies.percentile(99)
    return point
