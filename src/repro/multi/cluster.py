"""Fault-tolerant cluster mode: a placement directory over the shard server.

KV-Direct scales by composing share-nothing NICs
(:class:`~repro.multi.multinic.MultiNICServer`); this layer makes that
composition survive a NIC (node) death without building anything twice:
a :class:`Cluster` owns one server, wraps each of its stacks in a
:class:`ClusterNode` gate, and adds placement, replication and
fail-over on top.  A :class:`ClusterMap` is the placement directory:
keys hash to *slots* (key ranges), each slot names a primary and a
backup node, and the whole map carries a versioned *epoch*.
Writes apply at the slot's primary and are asynchronously replicated to
its backup through a cluster-owned :class:`ReplicationChannel` (FIFO,
state-based: each ``(key, key_hash, value, acked_at)`` record carries a
full value snapshot taken when the write settled, so replay is
idempotent and last-writer-wins).  The key is hashed once per operation,
by the router, and the hash is handed down with it: to the node gate,
the processor's context and the record - never kept on the op.

Node-level faults (``node<i>.kill`` / ``node<i>.stall`` sites, driven by
:class:`~repro.faults.plan.FaultPlan` probabilities or scheduled
explicitly) take a whole stack down mid-run.  A dead node NACKs every
operation with a retryable :class:`~repro.errors.NodeDown` and has no
further side effects; failover then

1. waits for the dead node's in-flight operations to settle,
2. write-blocks the affected slots and drains their replication
   channels (an acknowledged write always enqueued its record *at ack
   time*, and the channels are owned by the cluster, not the dying node
   - so draining guarantees **zero lost acknowledged writes**),
3. promotes each slot's backup to primary and bumps the epoch
   (operations routed under the stale epoch - the router passes it as
   ``ClusterNode.submit(..., epoch=)`` - NACK with
   :class:`~repro.errors.WrongEpoch` and re-route),
4. migrates each affected slot's keys to a freshly chosen backup to
   re-establish the replication factor, then unblocks writes.

The cluster also keeps a **live-key directory** - per node, per slot, the
set of keys that node's store holds - maintained where cluster-mode
mutations already pass (:meth:`Cluster.preload`, :meth:`Cluster.replicate`
at write settle, :meth:`Cluster.apply_state`).  Snapshots and replica
comparison read exactly a slot's keys through the store's uncounted point
lookup instead of walking every bucket; the directory holds keys only, so
every compared value is still the store's own bytes.

Everything runs in simulated time under deterministic seeds: failover
time and replication lag are histograms in sim-ns, and the fault log
(including the kill itself) folds into the soak digest, so two runs of
the same config are byte-identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.core.config import KVDirectConfig
from repro.core.hashing import fnv1a64, shard_of_hash
from repro.core.operations import KVOperation
from repro.core.store import KVDirectStore
from repro.errors import (
    ConfigurationError,
    KVDirectError,
    NodeDown,
    WrongEpoch,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.multi.multinic import MultiNICServer
from repro.multi.stack import ServerStack
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.sim.engine import Event, Simulator
from repro.sim.stats import Counter, Histogram

#: Simulated cost of applying one replication record at the backup.
REPLICATION_DELAY_NS = 200.0
#: Simulated cost of copying one key during a slot migration.
MIGRATION_DELAY_PER_KEY_NS = 300.0
#: How often quiesce/failover loops re-check for in-flight work.
POLL_NS = 100.0


@dataclass(frozen=True)
class Placement:
    """One slot's owners: primary serves everything, backup replicates.

    ``backup`` is ``None`` while a slot runs unreplicated (mid-failover,
    or when too few nodes survive to re-establish the factor).
    """

    primary: int
    backup: Optional[int] = None


class ClusterMap:
    """The placement directory: key -> slot -> (primary, backup), versioned.

    Slots are key ranges under the same hash the shard router uses
    (:func:`~repro.core.hashing.shard_of` over ``num_slots``).  The
    initial layout round-robins: slot ``s`` has primary ``s % n`` and
    backup ``(s + 1) % n``.  Every failover that repoints placements
    bumps :attr:`epoch`; clients stamp operations with the epoch they
    routed under, and nodes reject stale stamps with
    :class:`~repro.errors.WrongEpoch` before any side effect.
    """

    def __init__(self, num_slots: int, num_nodes: int) -> None:
        if num_slots <= 0:
            raise ConfigurationError("cluster map needs at least one slot")
        if num_nodes <= 0:
            raise ConfigurationError("cluster map needs at least one node")
        self.num_slots = num_slots
        self.num_nodes = num_nodes
        self.epoch = 0
        self.placements: List[Placement] = [
            Placement(
                primary=slot % num_nodes,
                backup=(slot + 1) % num_nodes if num_nodes > 1 else None,
            )
            for slot in range(num_slots)
        ]

    def slot_of(self, key: bytes, h: Optional[int] = None) -> int:
        """The slot owning a key (same hash family as shard routing);
        ``h`` is ``fnv1a64(key)`` when the caller already has it."""
        return shard_of_hash(
            fnv1a64(key) if h is None else h, self.num_slots
        )

    def primary(self, slot: int) -> int:
        return self.placements[slot].primary

    def backup(self, slot: int) -> Optional[int]:
        return self.placements[slot].backup

    def bump(self) -> int:
        """Advance the epoch (placements changed); returns the new epoch."""
        self.epoch += 1
        return self.epoch

    def slots_owned(self, node: int) -> List[int]:
        """Slots where ``node`` is the current primary."""
        return [
            s for s, p in enumerate(self.placements) if p.primary == node
        ]

    def slots_backed(self, node: int) -> List[int]:
        """Slots where ``node`` is the current backup."""
        return [
            s for s, p in enumerate(self.placements) if p.backup == node
        ]


class ClusterNode:
    """One cluster member: a full :class:`ServerStack` plus liveness state.

    The node gates every arriving operation - liveness, node-fault draws,
    epoch check, migration write-block - before handing it to the stack's
    pipeline, so a refused operation provably had no side effects.
    """

    def __init__(
        self, cluster: "Cluster", index: int, stack: ServerStack
    ) -> None:
        self.cluster = cluster
        self.index = index
        self.name = f"node{index}"
        self.stack = stack
        self.sim = stack.sim
        self.alive = True
        self.stalled_until = -1.0
        #: Operations accepted into the pipeline and not yet settled.
        self.outstanding = 0
        #: Operations accepted over the node's lifetime.
        self.accepted = 0
        #: Die when ``accepted`` reaches this (deterministic mid-run kill).
        self.kill_after_accepts: Optional[int] = None

    @property
    def store(self) -> KVDirectStore:
        return self.stack.store

    def die(self, reason: str = "scheduled") -> None:
        """Kill this node now: no new operations are served, in-flight
        ones settle normally (their acks still reach the client)."""
        if not self.alive:
            return
        self.alive = False
        self.cluster.injector.fire(
            f"{self.name}.kill", "node_kill", 1.0, self.sim.now,
            detail=reason,
        )
        self.cluster.annotate("cluster.node_kill", f"{self.name} {reason}")

    def _nack(self, exc: KVDirectError) -> Event:
        self.cluster.counters.add(
            "wrong_epoch_nacks"
            if isinstance(exc, WrongEpoch)
            else "node_down_nacks"
        )
        event = self.sim.event()
        event.fail(exc)
        return event

    def submit(
        self,
        op: KVOperation,
        deadline_ns: Optional[float] = None,
        epoch: int = -1,
        key_hash: Optional[int] = None,
    ) -> Event:
        """Gate and submit one operation; the returned event settles with
        the :class:`~repro.core.operations.KVResult` or fails with a
        retryable NACK / pipeline error.

        ``epoch`` is the cluster-map epoch the caller routed under (the
        router passes it rather than stamping a copy of the op); -1 skips
        the check.  ``key_hash`` is ``fnv1a64(op.key)`` when the caller
        routed by it; the gate hashes the key itself otherwise."""
        sim = self.sim
        cluster = self.cluster
        now = sim.now
        if self.alive and (
            self.kill_after_accepts is not None
            and self.accepted >= self.kill_after_accepts
        ):
            self.die(reason="kill_after_accepts")
        if not self.alive:
            return self._nack(
                NodeDown(f"{self.name} is down", node=self.index,
                         reason="killed")
            )
        if now < self.stalled_until:
            return self._nack(
                NodeDown(f"{self.name} is stalled", node=self.index,
                         reason="stalled")
            )
        if cluster.has_node_faults:
            injector = cluster.injector
            plan = injector.plan
            if injector.fire(
                f"{self.name}.kill", "node_kill", plan.node_kill_prob, now
            ):
                self.alive = False
                return self._nack(
                    NodeDown(f"{self.name} died", node=self.index,
                             reason="killed")
                )
            if injector.fire(
                f"{self.name}.stall", "node_stall", plan.node_stall_prob, now
            ):
                self.stalled_until = now + plan.node_stall_ns
                return self._nack(
                    NodeDown(f"{self.name} stalled", node=self.index,
                             reason="stalled")
                )
        if epoch != -1 and epoch != cluster.map.epoch:
            return self._nack(
                WrongEpoch(
                    f"operation stamped epoch {epoch}, cluster is at "
                    f"{cluster.map.epoch}",
                    expected=cluster.map.epoch,
                    got=epoch,
                )
            )
        h = fnv1a64(op.key) if key_hash is None else key_hash
        slot = cluster.map.slot_of(op.key, h)
        if op.is_write and slot in cluster.migrating_slots:
            return self._nack(
                NodeDown(
                    f"slot {slot} is write-blocked during migration",
                    node=self.index,
                    reason="migrating",
                )
            )
        self.accepted += 1
        self.outstanding += 1
        cluster.slot_outstanding[slot] += 1
        event = self.stack.processor.submit(op, deadline_ns, h)
        event.add_callback(partial(self._settled, op, slot, h))
        return event

    def _settled(
        self, op: KVOperation, slot: int, h: int, _event: Event
    ) -> None:
        """An accepted op settled: release it and replicate a write."""
        self.outstanding -= 1
        cluster = self.cluster
        cluster.slot_outstanding[slot] -= 1
        if op.is_write:
            cluster.replicate(slot, op.key, h, self)


class ReplicationChannel:
    """Cluster-owned FIFO of state records for one slot.

    Records are ``(key, key_hash, value-or-None, acked_at_ns)`` snapshots
    of the primary's state when the write settled; a lazy drain chain
    applies them to the slot's *current* backup after
    :data:`REPLICATION_DELAY_NS` each.  One ``call_after`` per record fixes
    each apply's place among same-instant events (docs/MODELING.md,
    "Same-instant ordering contract").  Because the channel outlives its
    nodes, every record enqueued at ack time survives a primary kill -
    failover drains the channel into the backup before promoting it.
    """

    def __init__(self, cluster: "Cluster", slot: int) -> None:
        self.cluster = cluster
        self.slot = slot
        self.queue: Deque[
            Tuple[bytes, int, Optional[bytes], float]
        ] = deque()
        self._draining = False

    @property
    def pending(self) -> int:
        return len(self.queue)

    def enqueue(
        self, key: bytes, h: int, value: Optional[bytes], acked_at: float
    ) -> None:
        self.queue.append((key, h, value, acked_at))
        self.cluster.counters["replication_records"] += 1
        if not self._draining:
            self._draining = True
            self.cluster.sim.call_soon(self._drain)

    def _drain(self, _kick) -> None:
        """Wait out the head record's delay (the drain's bootstrap hop)."""
        self.cluster.sim.call_after(REPLICATION_DELAY_NS, self._apply)

    def _apply(self, _kick) -> None:
        """Apply the head record to the current backup, then wait out the
        next one's delay or stop draining."""
        cluster = self.cluster
        key, h, value, acked_at = self.queue.popleft()
        backup = cluster.map.backup(self.slot)
        if backup is None or not cluster.nodes[backup].alive:
            cluster.counters["replication_skipped"] += 1
        elif cluster.apply_state(
            cluster.nodes[backup], self.slot, key, value, h
        ):
            cluster.counters["replication_applies"] += 1
            cluster.replication_lag_ns.record(cluster.sim.now - acked_at)
        if self.queue:
            cluster.sim.call_after(REPLICATION_DELAY_NS, self._apply)
        else:
            self._draining = False


class Cluster:
    """A :class:`MultiNICServer` whose stacks are replicated nodes behind
    a :class:`ClusterMap`.

    Route through :class:`~repro.client.router.ClusterRouter`; submitting
    directly to :attr:`nodes` bypasses epoch stamping and retries.
    """

    def __init__(
        self,
        sim: Simulator,
        num_nodes: int,
        num_slots: int = 8,
        config: Optional[KVDirectConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if num_nodes <= 0:
            raise ConfigurationError("cluster needs at least one node")
        self.sim = sim
        self.map = ClusterMap(num_slots, num_nodes)
        #: The stacks (built, seeded and observed by the shard server);
        #: node i gates stack i.
        self.server = MultiNICServer(sim, num_nodes, config, tracer=tracer)
        base = self.server.config
        self.counters = Counter()
        self.replication_lag_ns = Histogram()
        self.failover_time_ns = Histogram()
        #: Kept for failover/migration annotations (Perfetto instant
        #: events via :meth:`Tracer.annotate`); never affects span goldens.
        self.tracer = tracer
        #: Node-level fault sites (``node<i>.kill`` / ``node<i>.stall``)
        #: share one injector with per-site RNG streams; scheduled kills
        #: also land here so the fault log covers them.
        self.injector = FaultInjector(
            base.fault_plan or FaultPlan(), seed=base.seed
        )
        plan = self.injector.plan
        #: Whether arrivals draw the node kill/stall sites at all (a
        #: zero-probability draw never fires and never touches the RNG).
        self.has_node_faults = (
            plan.node_kill_prob > 0.0 or plan.node_stall_prob > 0.0
        )
        self.nodes: List[ClusterNode] = [
            ClusterNode(self, index, stack)
            for index, stack in enumerate(self.server.stacks)
        ]
        self.channels = [
            ReplicationChannel(self, slot) for slot in range(num_slots)
        ]
        #: The live-key directory: ``directory[node][slot]`` is the set of
        #: keys of that slot held by that node's store (keys only - values
        #: are always read from the store itself).
        self.directory: List[List[Set[bytes]]] = [
            [set() for __ in range(num_slots)] for __ in self.nodes
        ]
        #: Slots currently write-blocked by an in-progress migration.
        self.migrating_slots: Set[int] = set()
        self.slot_outstanding: List[int] = [0] * num_slots
        self._failed_over: Set[int] = set()
        self._failovers_active = 0

    # -- data path ---------------------------------------------------------

    def preload(self, key: bytes, value: bytes) -> None:
        """Functional insert to primary *and* backup (benchmark prep): a
        ``store.put`` on each holder, the key hashed once for them all."""
        h = fnv1a64(key)
        slot = self.map.slot_of(key, h)
        placement = self.map.placements[slot]
        for holder in (placement.primary, placement.backup):
            if holder is not None:
                self.nodes[holder].store.index.insert(key, value, h)
                self.directory[holder][slot].add(key)

    def owner(self, key: bytes) -> ServerStack:
        """The stack currently authoritative for a key (its primary's)."""
        return self.nodes[self.map.primary(self.map.slot_of(key))].stack

    def replicate(
        self, slot: int, key: bytes, h: int, primary: ClusterNode
    ) -> None:
        """Enqueue a state record for a settled write (ack-time snapshot);
        ``h`` is ``fnv1a64(key)``, carried in the record to the backup.

        Called on *every* write settle - success or failure - because a
        hardware fault during timing replay can fire after functional
        execution; snapshotting the store's actual state is correct in
        both cases and keeps replication idempotent.  The same snapshot
        tells the directory whether the primary now holds the key.  It is
        read through the uncounted ``table.peek``: no DMA is replayed for
        it, so no access counter or cost distribution may see it.
        """
        value = primary.store.table.peek(key, h)
        self._track(primary, slot, key, value is not None)
        self.channels[slot].enqueue(key, h, value, self.sim.now)

    def apply_state(
        self,
        node: ClusterNode,
        slot: int,
        key: bytes,
        value: Optional[bytes],
        h: Optional[int] = None,
    ) -> bool:
        """Apply one state record of ``slot`` to a node's store (put or
        delete); returns whether it landed.  ``h`` is ``fnv1a64(key)``
        when the caller already has it.

        Injected slab exhaustion is a fresh draw per attempt, so a failed
        apply retries (bounded) rather than silently dropping the record.
        Past the bound the record is counted as a failure, the directory
        is left as it was, and the caller must not account it as applied.
        """
        index = node.store.index
        for __ in range(64):
            try:
                if value is None:
                    index.delete(key, h)
                else:
                    index.insert(key, value, h)
            except KVDirectError:
                self.counters["replication_apply_retries"] += 1
            else:
                self._track(node, slot, key, value is not None)
                return True
        self.counters["replication_apply_failures"] += 1
        return False

    def _track(
        self, node: ClusterNode, slot: int, key: bytes, present: bool
    ) -> None:
        """Record in the directory that ``node`` holds / dropped ``key``."""
        keys = self.directory[node.index][slot]
        if present:
            keys.add(key)
        else:
            keys.discard(key)

    # -- faults and failover ----------------------------------------------

    def kill_after_accepts(self, node_id: int, accepts: int) -> None:
        """Kill one node once it has accepted ``accepts`` operations.

        Count-based (not time-based), so the kill lands mid-run for any
        workload without estimating its duration; deterministic for a
        fixed schedule.
        """
        self.nodes[node_id].kill_after_accepts = accepts

    @property
    def alive_nodes(self) -> int:
        return sum(1 for node in self.nodes if node.alive)

    def notice_node_down(self, node_id: int) -> None:
        """Start failover for a dead node (idempotent; routers call this
        on the first ``NodeDown(reason="killed")`` they observe)."""
        node = self.nodes[node_id]
        if node.alive or node_id in self._failed_over:
            return
        self._failed_over.add(node_id)
        self._failovers_active += 1
        self.sim.call_soon(_Failover(self, node_id).start)

    def _pick_backup(self, exclude: int) -> Optional[int]:
        """Round-robin choice of an alive backup node != ``exclude``."""
        n = len(self.nodes)
        for offset in range(1, n):
            candidate = (exclude + offset) % n
            if self.nodes[candidate].alive:
                return candidate
        return None

    def _poll(
        self, busy: Callable[[], bool], then: Callable[[], None], _kick=None
    ) -> None:
        """Call ``then()`` once ``busy()`` is false, re-checking every
        :data:`POLL_NS`: at once if it already is."""
        if busy():
            self.sim.call_after(POLL_NS, partial(self._poll, busy, then))
        else:
            then()

    def _slot_settled(self, slot: int, then: Callable[[], None]) -> bool:
        """Whether a write-blocked slot has settled: no in-flight ops, and
        then an empty replication channel.  If it has not, ``then()`` runs
        in the poll step that sees it settle."""
        channel = self.channels[slot]
        drained = partial(self._poll, lambda: channel.pending, then)
        if self.slot_outstanding[slot] > 0:
            self._poll(lambda: self.slot_outstanding[slot] > 0, drained)
            return False
        if channel.pending:
            drained()
            return False
        return True

    def annotate(self, name: str, detail: str = "") -> None:
        """Forward an instant-event marker to the tracer, if any."""
        if self.tracer is not None:
            self.tracer.annotate(name, detail)

    # -- settling ----------------------------------------------------------

    def _slot_items(
        self, node: ClusterNode, slot: int
    ) -> Dict[bytes, Optional[bytes]]:
        """One node's copy of one slot: the directory's keys, each value
        read from the node's own memory image (uncounted, so snapshots
        and replica comparison never move a measured number)."""
        peek = node.store.peek
        return {key: peek(key) for key in self.directory[node.index][slot]}

    def quiesce(self, then: Callable[[], None]) -> None:
        """Call ``then()`` once every channel has drained and every
        failover has finished (then compare replicas differentially).

        The wait kick-starts on the next entry at the current instant, and
        ``then`` runs in the step that sees the cluster idle: a caller that
        runs the simulator until then passes ``partial(sim.finish, done)``
        and runs until ``done``."""
        self.sim.call_soon(partial(self._poll, self._busy, then))

    def _busy(self) -> bool:
        return self._failovers_active > 0 or any(
            channel.pending for channel in self.channels
        )

    def primary_state(self) -> dict:
        """The authoritative key space: each slot read at its primary."""
        merged = {}
        for slot in range(self.map.num_slots):
            merged.update(
                self._slot_items(self.nodes[self.map.primary(slot)], slot)
            )
        return merged

    def replication_divergences(self) -> List[str]:
        """Per-slot primary-vs-backup mismatches (call after quiesce)."""
        problems: List[str] = []
        for slot, placement in enumerate(self.map.placements):
            if placement.backup is None:
                continue
            primary = self.nodes[placement.primary]
            backup = self.nodes[placement.backup]
            if not primary.alive or not backup.alive:
                continue
            want = self._slot_items(primary, slot)
            have = self._slot_items(backup, slot)
            if want != have:
                missing = sorted(set(want) - set(have))
                extra = sorted(set(have) - set(want))
                stale = sorted(
                    key for key in set(want) & set(have)
                    if want[key] != have[key]
                )
                problems.append(
                    f"slot {slot}: backup node{placement.backup} diverged "
                    f"from primary node{placement.primary} "
                    f"(missing={missing!r}, extra={extra!r}, "
                    f"stale={stale!r})"
                )
        return problems

    def directory_divergences(self) -> List[str]:
        """Per live node and slot, directory-vs-store mismatches.

        The reference is a full bucket walk of the node's memory image
        (one per node), which shares nothing with the directory's
        bookkeeping.  Call once traffic has settled: a write reaches the
        directory when it settles, not when it executes.
        """
        problems: List[str] = []
        slot_of = self.map.slot_of
        for node in self.nodes:
            if not node.alive:
                continue
            walked: List[Set[bytes]] = [
                set() for __ in range(self.map.num_slots)
            ]
            for key in node.store.keys():
                walked[slot_of(key)].add(key)
            for slot, want in enumerate(walked):
                have = self.directory[node.index][slot]
                if have != want:
                    problems.append(
                        f"{node.name} slot {slot}: directory diverged "
                        f"from the store walk "
                        f"(missing={sorted(want - have)!r}, "
                        f"extra={sorted(have - want)!r})"
                    )
        return problems

    @property
    def faults_fired(self) -> int:
        """Faults injected so far: node-level sites plus every stack's."""
        return self.injector.fired + self.server.faults_fired

    def fault_digest_lines(self) -> List[str]:
        """Canonical fault-digest lines (cluster sites + per-node stores)
        for folding into a soak digest."""
        lines = [f"cluster|{self.injector.schedule_digest()}"]
        for index, node in enumerate(self.nodes):
            if node.store.injector is not None:
                lines.append(
                    f"node{index}|{node.store.injector.schedule_digest()}"
                )
        return lines

    # -- observability ------------------------------------------------------

    def register_metrics(
        self, registry: Optional[MetricsRegistry] = None
    ) -> MetricsRegistry:
        """Register the ``cluster.*`` metrics."""
        registry = registry if registry is not None else MetricsRegistry()
        registry.register("cluster.events", self.counters)
        registry.register(
            "cluster.replication_lag_ns", self.replication_lag_ns
        )
        registry.register("cluster.failover_time_ns", self.failover_time_ns)
        registry.register("cluster.faults", self.injector.counters)
        registry.register_gauge(
            "cluster.epoch", lambda: float(self.map.epoch)
        )
        registry.register_gauge(
            "cluster.alive_nodes", lambda: float(self.alive_nodes)
        )
        registry.register_gauge(
            "cluster.migrating_slots",
            lambda: float(len(self.migrating_slots)),
        )
        return registry

    def attach_timeline(self, sampler) -> None:
        """Attach each node's processor (``node<i>`` series) and the
        cluster gauges to a timeline sampler."""
        sampler.bind(self.sim)
        for node in self.nodes:
            sampler.attach_processor(node.name, node.stack.processor)
        sampler.attach_cluster(self)


class _Failover:
    """One failover as a chain: wait for the dead node's in-flight ops,
    write-block and drain each slot it owned and promote the slot's
    backup, bump the epoch, then re-replicate every slot it touched.  Both
    loops over slots run on in place while each slot has settled already,
    and resume from the poll step that sees one settle."""

    __slots__ = ("cluster", "node_id", "started", "owned", "slots",
                 "target", "snapshot", "resume_at")

    def __init__(self, cluster: Cluster, node_id: int) -> None:
        self.cluster, self.node_id = cluster, node_id

    def start(self, _kick) -> None:
        cluster = self.cluster
        self.started = cluster.sim.now
        node = cluster.nodes[self.node_id]
        cluster.annotate("cluster.failover_start", f"node{self.node_id}")
        # In-flight ops at the dead node settle normally (their acks
        # were or will be delivered), and each settled write enqueues its
        # replication record - wait for all of them before draining.
        cluster._poll(lambda: node.outstanding > 0, self.drained)

    def drained(self) -> None:
        cmap = self.cluster.map
        self.owned = cmap.slots_owned(self.node_id)
        self.slots = self.owned + cmap.slots_backed(self.node_id)
        self.promote_from(0)

    def promote_from(self, index: int, settled: bool = False) -> None:
        """Write-block, then drain: every acknowledged write's record
        reaches the backup before it becomes the primary."""
        cluster = self.cluster
        cmap = cluster.map
        while index < len(self.owned):
            slot = self.owned[index]
            resume = partial(self.promote_from, index, True)
            if not settled:
                cluster.migrating_slots.add(slot)
                if not cluster._slot_settled(slot, resume):
                    return
            settled = False
            index += 1
            new_primary = cmap.backup(slot)
            if new_primary is None or not cluster.nodes[new_primary].alive:
                cluster.counters["slots_lost"] += 1
                cluster.migrating_slots.discard(slot)
                continue
            cmap.placements[slot] = Placement(primary=new_primary, backup=None)
            cluster.counters["promotions"] += 1
        cmap.bump()
        cluster.counters["epoch_bumps"] += 1
        cluster.annotate("cluster.epoch_bump", f"epoch={cmap.epoch}")
        # Re-establish the replication factor for every slot the dead
        # node touched; each slot stays write-blocked during its copy so
        # the snapshot cannot race concurrent writes.
        self.migrate_from(0)

    def migrate_from(self, index: int, owner: Optional[int] = None) -> None:
        """``owner`` is the primary read before the wait, when resuming on
        the slot at ``index`` that has just settled."""
        cluster = self.cluster
        while index < len(self.slots):
            slot = self.slots[index]
            index += 1
            if owner is None:
                owner = cluster.map.placements[slot].primary
                if owner == self.node_id or not cluster.nodes[owner].alive:
                    cluster.migrating_slots.discard(slot)
                    owner = None
                    continue
                cluster.migrating_slots.add(slot)
                resume = partial(self.migrate_from, index - 1, owner)
                if not cluster._slot_settled(slot, resume):
                    return
            if not self.copy(slot, owner, index):
                return
            owner = None
        cluster.failover_time_ns.record(cluster.sim.now - self.started)
        cluster.counters["failovers"] += 1
        cluster._failovers_active -= 1
        cluster.annotate(
            "cluster.failover_done",
            f"node{self.node_id} took={cluster.sim.now - self.started:.0f}ns",
        )

    def copy(self, slot: int, owner: int, index: int) -> bool:
        """Re-replicate a settled slot to a fresh backup, one key per
        :data:`MIGRATION_DELAY_PER_KEY_NS`; whether that is done at once.
        If not, the last key's step resumes the loop at ``index``."""
        cluster = self.cluster
        new_backup = cluster._pick_backup(exclude=owner)
        if new_backup is None:
            cluster.counters["unreplicated_slots"] += 1
            cluster.map.placements[slot] = Placement(
                primary=owner, backup=None
            )
            cluster.migrating_slots.discard(slot)
            return True
        target = self.target = cluster.nodes[new_backup]
        # Clear any stale copy of this slot before the fresh snapshot
        # (a delete at the primary must not resurrect at the backup).
        # Both lists are sorted: migration order, and so every
        # timestamp, must not depend on set iteration order.
        for key in sorted(cluster.directory[new_backup][slot]):
            cluster.apply_state(target, slot, key, None)
        self.snapshot = sorted(
            cluster._slot_items(cluster.nodes[owner], slot).items()
        )
        self.resume_at = index
        return self.copy_key(slot, owner, 0)

    def copy_key(self, slot: int, owner: int, position: int, _kick=None):
        """Wait out the next key's delay and copy it; once every key is
        copied, point the slot at its new backup.  Returns whether the
        slot is done at once (it had no key)."""
        cluster = self.cluster
        snapshot = self.snapshot
        if _kick is not None:
            key, value = snapshot[position - 1]
            if cluster.apply_state(self.target, slot, key, value):
                cluster.counters["migrated_keys"] += 1
        if position < len(snapshot):
            cluster.sim.call_after(
                MIGRATION_DELAY_PER_KEY_NS,
                partial(self.copy_key, slot, owner, position + 1),
            )
            return False
        cluster.map.placements[slot] = Placement(
            primary=owner, backup=self.target.index
        )
        cluster.migrating_slots.discard(slot)
        cluster.annotate(
            "cluster.slot_migrated",
            f"slot={slot} keys={position} backup={self.target.name}",
        )
        if _kick is not None:
            self.migrate_from(self.resume_at)
        return True
