"""Fault-tolerant cluster mode: placement, replication, failover.

The differential discipline mirrors the chaos soak: every invariant is
checked against plain-dict bookkeeping, and the hard guarantees - zero
lost acknowledged writes across a primary kill, read-your-writes across
the epoch bump, byte-identical digests for seeded runs - are exercised
end to end through the :class:`~repro.client.router.ClusterRouter`.
"""

import cProfile
import pstats
import random
import struct
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import scenario
from repro.chaos import SoakConfig, run_soak
from repro.client import router as router_module
from repro.client.robust import RetryBudget
from repro.client.router import ClusterRouter
from repro.core.config import KVDirectConfig
from repro.core.hashing import fnv1a64
from repro.core.hashtable import HashTable
from repro.core.operations import KVOperation
from repro.core.vector import FETCH_ADD
from repro.errors import (
    AllocationError,
    ConfigurationError,
    NodeDown,
    RetryExhausted,
    SimulationError,
    WrongEpoch,
)
from repro.faults import FaultPlan
from repro.multi import Cluster, ClusterMap, MultiNICServer, Placement
from repro.obs import MetricsRegistry
from repro.sim import Simulator
from tests.waiting import performed


def _cluster(nodes=3, slots=8, **kwargs):
    sim = Simulator()
    cluster = Cluster(
        sim, num_nodes=nodes, num_slots=slots,
        config=KVDirectConfig(memory_size=2 << 20), **kwargs
    )
    return sim, cluster


def _perform(sim, router, op, results):
    def runner():
        results.append((yield performed(router, op)))

    return sim.process(runner())


class TestClusterMap:
    def test_round_robin_layout(self):
        cmap = ClusterMap(num_slots=8, num_nodes=3)
        for slot in range(8):
            assert cmap.primary(slot) == slot % 3
            assert cmap.backup(slot) == (slot + 1) % 3
            assert cmap.primary(slot) != cmap.backup(slot)

    def test_single_node_runs_unreplicated(self):
        cmap = ClusterMap(num_slots=4, num_nodes=1)
        for slot in range(4):
            assert cmap.primary(slot) == 0
            assert cmap.backup(slot) is None

    def test_bump_advances_epoch(self):
        cmap = ClusterMap(num_slots=2, num_nodes=2)
        assert cmap.epoch == 0
        assert cmap.bump() == 1
        assert cmap.epoch == 1

    def test_owned_and_backed_partition_the_slots(self):
        cmap = ClusterMap(num_slots=9, num_nodes=3)
        owned = [cmap.slots_owned(n) for n in range(3)]
        assert sorted(sum(owned, [])) == list(range(9))
        for node in range(3):
            assert cmap.slots_backed(node) == [
                s for s in range(9) if cmap.backup(s) == node
            ]

    def test_slot_of_is_stable_and_in_range(self):
        cmap = ClusterMap(num_slots=8, num_nodes=3)
        for i in range(200):
            key = b"key%06d" % i
            slot = cmap.slot_of(key)
            assert 0 <= slot < 8
            assert slot == cmap.slot_of(key)

    @given(st.binary(min_size=1, max_size=64), st.integers(1, 64))
    def test_slot_of_a_passed_hash_is_slot_of_the_key(self, key, slots):
        cmap = ClusterMap(slots, 3)
        assert cmap.slot_of(key, fnv1a64(key)) == cmap.slot_of(key)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterMap(num_slots=0, num_nodes=1)
        with pytest.raises(ConfigurationError):
            ClusterMap(num_slots=4, num_nodes=0)


class TestScenarioBuild:
    def test_a_profiled_cluster_build_is_refused(self):
        """Regression: ``build(nodes=3, profile=True)`` built a cluster
        with no profiler and said nothing (``server.profilers == []``)."""
        with pytest.raises(ConfigurationError, match="ROADMAP.md"):
            scenario.build(nodes=3, profile=True)


class TestKillSemantics:
    def test_dead_node_nacks_without_side_effects(self):
        sim, cluster = _cluster()
        node = cluster.nodes[0]
        node.die()
        before = dict(node.store.items())
        accepted = node.accepted
        event = node.submit(KVOperation.put(b"k", b"v", seq=0))
        assert event.triggered and not event.ok
        assert isinstance(event.exception, NodeDown)
        assert event.exception.reason == "killed"
        assert event.exception.node == 0
        assert dict(node.store.items()) == before
        assert node.accepted == accepted

    def test_kill_lands_in_the_fault_log(self):
        sim, cluster = _cluster()
        assert cluster.injector.fired == 0
        cluster.nodes[1].die(reason="test")
        assert cluster.injector.fired == 1
        digest_after_kill = cluster.injector.schedule_digest()
        sim2, cluster2 = _cluster()
        assert cluster2.injector.schedule_digest() != digest_after_kill

    def test_kill_after_accepts_counts_accepted_ops(self):
        sim, cluster = _cluster(nodes=2, slots=2)
        cluster.kill_after_accepts(0, 1)
        node = cluster.nodes[0]
        slot = next(
            s for s in range(2) if cluster.map.primary(s) == 0
        )
        key = next(
            b"key%06d" % i for i in range(100)
            if cluster.map.slot_of(b"key%06d" % i) == slot
        )
        first = node.submit(KVOperation.put(key, b"v", seq=0))
        sim.run()
        assert first.ok
        second = node.submit(KVOperation.put(key, b"w", seq=1))
        assert not second.ok
        assert isinstance(second.exception, NodeDown)
        assert not node.alive

    def test_stalled_node_recovers(self):
        sim, cluster = _cluster(
            nodes=2, slots=2,
        )
        node = cluster.nodes[0]
        node.stalled_until = 1_000.0
        event = node.submit(KVOperation.get(b"k", seq=0))
        assert isinstance(event.exception, NodeDown)
        assert event.exception.reason == "stalled"
        sim.run(until=2_000.0)
        assert node.alive

    def test_wrong_epoch_nacks_before_side_effects(self):
        sim, cluster = _cluster()
        slot0_key = next(
            b"key%06d" % i for i in range(100)
            if cluster.map.slot_of(b"key%06d" % i) == 0
        )
        node = cluster.nodes[cluster.map.primary(0)]
        op = KVOperation.put(slot0_key, b"v", seq=0)
        event = node.submit(op, None, epoch=5)  # routed under a stale map
        assert not event.ok
        assert isinstance(event.exception, WrongEpoch)
        assert event.exception.expected == 0
        assert event.exception.got == 5
        assert node.store.get(slot0_key) is None


class TestReplication:
    def test_writes_converge_to_the_backup(self):
        sim, cluster = _cluster()
        router = ClusterRouter(sim, cluster)
        ops = [
            KVOperation.put(b"key%06d" % i, b"v%d" % i, seq=i)
            for i in range(64)
        ]
        stats = router.run(ops)
        assert stats["completed"] == 64
        assert cluster.replication_divergences() == []
        assert cluster.counters.get("replication_applies") > 0

    def test_deletes_replicate_too(self):
        sim, cluster = _cluster()
        router = ClusterRouter(sim, cluster)
        key = b"key000000"
        ops = [
            KVOperation.put(key, b"v", seq=0),
            KVOperation.delete(key, seq=1),
        ]
        stats = router.run(ops, concurrency=1)
        assert stats["completed"] == 2
        assert cluster.replication_divergences() == []
        backup = cluster.map.backup(cluster.map.slot_of(key))
        assert cluster.nodes[backup].store.get(key) is None

    def test_write_settle_reads_no_counted_memory(self):
        """The ack-time snapshot is bookkeeping, not a replayed access: a
        replicated PUT costs the primary its PUT's accesses and no GET."""
        sim, cluster = _cluster()
        key = b"key000000"
        primary = cluster.nodes[cluster.map.primary(cluster.map.slot_of(key))]
        table = primary.store.table
        before = table.memory.accesses
        ClusterRouter(sim, cluster).run([KVOperation.put(key, b"v", seq=0)])
        assert cluster.counters["replication_applies"] == 1
        assert table.counters["gets"] == 0 and table.get_cost.count == 0
        assert table.put_cost.count == 1
        assert table.memory.accesses - before == table.put_cost.mean

    def test_replication_lag_is_recorded(self):
        sim, cluster = _cluster()
        router = ClusterRouter(sim, cluster)
        router.run([KVOperation.put(b"k", b"v", seq=0)])
        assert cluster.replication_lag_ns.count > 0
        assert cluster.replication_lag_ns.mean() > 0


class TestFailover:
    def test_kill_primary_preserves_read_your_writes(self):
        sim, cluster = _cluster()
        router = ClusterRouter(sim, cluster)
        key = b"key000000"
        slot = cluster.map.slot_of(key)
        primary = cluster.map.primary(slot)
        results = []
        write = KVOperation.put(key, b"acked-value", seq=0)
        _perform(sim, router, write, results)
        sim.run()
        assert results and results[0].ok
        # The write was acknowledged; now the primary dies.
        cluster.nodes[primary].die()
        read = KVOperation.get(key, seq=1)
        _perform(sim, router, read, results)
        sim.run()
        cluster.quiesce()
        # The read NACKed, triggered failover, retried against the
        # promoted backup - and saw the acknowledged write.
        assert results[1].ok
        assert results[1].value == b"acked-value"
        assert cluster.map.epoch == 1
        assert cluster.map.primary(slot) != primary
        assert cluster.counters.get("failovers") == 1
        assert cluster.failover_time_ns.count == 1
        assert router.counters.get("node_down_retries") >= 1

    def test_failover_reestablishes_replication_factor(self):
        sim, cluster = _cluster()
        router = ClusterRouter(sim, cluster)
        ops = [
            KVOperation.put(b"key%06d" % i, b"v%d" % i, seq=i)
            for i in range(64)
        ]
        router.run(ops)
        cluster.nodes[0].die()
        cluster.notice_node_down(0)
        cluster.quiesce()
        # Every slot again has an alive primary and an alive backup.
        for slot, placement in enumerate(cluster.map.placements):
            assert cluster.nodes[placement.primary].alive, slot
            assert placement.backup is not None, slot
            assert cluster.nodes[placement.backup].alive, slot
            assert placement.backup != placement.primary, slot
        assert cluster.replication_divergences() == []
        assert cluster.migrating_slots == set()
        assert cluster.counters.get("migrated_keys") > 0

    def test_two_node_cluster_survives_one_kill(self):
        sim, cluster = _cluster(nodes=2)
        router = ClusterRouter(sim, cluster)
        ops = [
            KVOperation.put(b"key%06d" % i, b"v", seq=i) for i in range(32)
        ]
        router.run(ops)
        cluster.nodes[0].die()
        cluster.notice_node_down(0)
        cluster.quiesce()
        # No second node remains to back up: slots run unreplicated but
        # stay available at the survivor.
        for placement in cluster.map.placements:
            assert placement.primary == 1
            assert placement.backup is None
        results = []
        _perform(sim, router, KVOperation.get(b"key%06d" % 0, seq=99),
                 results)
        sim.run()
        assert results[0].ok

    def test_notice_node_down_is_idempotent(self):
        sim, cluster = _cluster()
        cluster.nodes[0].die()
        cluster.notice_node_down(0)
        cluster.notice_node_down(0)
        cluster.quiesce()
        assert cluster.counters.get("failovers") == 1
        # A live node is never failed over.
        cluster.notice_node_down(1)
        cluster.quiesce()
        assert cluster.counters.get("failovers") == 1

    def test_each_slot_wait_ends_in_the_step_that_drains_the_slot(self):
        """A slot's promotion and its copy start at the instant it was
        write-blocked if it was settled then, else in the step whose
        record apply empties its channel - not on a later timer tick, and
        not after a gap in a GET stream to the slot that never pauses."""
        sim, cluster = _cluster()
        router = ClusterRouter(sim, cluster)
        for i in range(0, 96, 2):
            cluster.preload(b"key%06d" % i, struct.pack("<q", i))
        log = []

        class Blocks(set):
            def add(self, slot):
                log.append((sim.now, "block", slot))
                super().add(slot)

        class Placements(list):
            def __setitem__(self, slot, placement):
                if placement.backup is None:
                    log.append((sim.now, "promote", slot))
                super().__setitem__(slot, placement)

        def spy_drain(channel, apply):
            def drain(kick):
                apply(kick)
                if not channel.queue:
                    log.append((sim.now, "drained", channel.slot))
            channel._apply = drain

        def spy_copy(node, slot):
            log.append((sim.now, "copy", slot))
            if slot == streamed:
                streaming.append(in_flight[0])
            return slot_items(node, slot)

        slot_items = cluster._slot_items
        cluster._slot_items = spy_copy
        cluster.migrating_slots = Blocks()
        cluster.map.placements = Placements(cluster.map.placements)
        for channel in cluster.channels:
            spy_drain(channel, channel._apply)
        owned = cluster.map.slots_owned(0)
        touched = owned + cluster.map.slots_backed(0)
        streamed = owned[0]
        key = next(
            b"key%06d" % i for i in range(96)
            if cluster.map.slot_of(b"key%06d" % i) == streamed
        )
        gets = iter(range(1000, 1400))
        in_flight, streaming = [0], []

        def get(_result=None, _error=None):
            seq = next(gets, None)
            if seq is not None:
                in_flight[0] += 1
                router.perform(KVOperation.get(key, seq=seq), None, got)

        def got(_result, _error):
            in_flight[0] -= 1
            get()

        for __ in range(4):
            get()
        cluster.kill_after_accepts(0, 64)
        router.run(_mixed_ops(600), concurrency=8)
        assert cluster.counters.get("failovers") == 1
        assert streaming and streaming[0] > 0
        blocked, drained, waits = {}, {}, []
        for now, kind, slot in log:
            if kind == "block":
                blocked[slot] = now
            elif kind == "drained":
                drained.setdefault(slot, []).append(now)
            elif slot in blocked:
                waits.append((slot, kind, blocked.pop(slot), now))
        assert [(slot, kind) for slot, kind, __, __ in waits] == [
            (slot, "promote") for slot in owned
        ] + [(slot, "copy") for slot in touched]
        for slot, kind, blocked_at, ended_at in waits:
            last = max(
                (t for t in drained.get(slot, ()) if t <= ended_at),
                default=blocked_at,
            )
            assert ended_at == max(blocked_at, last), (slot, kind)
        # Some slot was still busy when blocked, so a wait really ran.
        assert any(ended > start for __, __, start, ended in waits)

    def test_a_quiesce_that_can_never_finish_raises(self):
        """A channel record no drain will apply keeps the cluster busy
        forever: the simulator runs out of events instead of spinning."""
        __, cluster = _cluster()
        key = b"key000000"
        cluster.channels[0].queue.append((key, fnv1a64(key), b"v", 0.0))
        with pytest.raises(SimulationError, match="ran out of events"):
            cluster.quiesce()


def _walk_slot_items(cluster, node, slot):
    """The reference ``_slot_items``: filter a full bucket walk."""
    return {
        key: value for key, value in node.store.items()
        if cluster.map.slot_of(key) == slot
    }


def _mixed_ops(count):
    """PUTs (inline and slab-sized), DELETEs, fetch-adds and GETs over a
    small key space, so keys appear, change representation and vanish."""
    rng = random.Random(0)
    ops = []
    for seq in range(count):
        key = b"key%06d" % rng.randrange(96)
        kind = rng.randrange(10)
        if kind < 5:
            value = struct.pack("<q", seq) * rng.choice((1, 5))
            ops.append(KVOperation.put(key, value, seq=seq))
        elif kind < 7:
            ops.append(KVOperation.delete(key, seq=seq))
        elif kind < 9:
            ops.append(KVOperation.update(
                key, FETCH_ADD, struct.pack("<q", 3), seq=seq
            ))
        else:
            ops.append(KVOperation.get(key, seq=seq))
    return ops


def _killed_run(plan=None):
    """Preload, route mixed traffic, kill node 0 mid-run, quiesce."""
    sim = Simulator()
    cluster = Cluster(
        sim, num_nodes=3, num_slots=8,
        config=KVDirectConfig(memory_size=2 << 20, fault_plan=plan),
    )
    for i in range(0, 96, 2):
        cluster.preload(b"key%06d" % i, struct.pack("<q", i))
    cluster.kill_after_accepts(0, 64)
    stats = ClusterRouter(sim, cluster).run(_mixed_ops(600), concurrency=8)
    return cluster, stats


class TestKeyDirectory:
    """The per-node, per-slot live-key directory against the bucket walk
    it replaced on the failover and replica-comparison paths."""

    @pytest.mark.parametrize(
        "plan",
        [
            None,
            FaultPlan(
                slab_exhaust_prob=0.05,
                node_stall_prob=0.02, node_stall_ns=500.0,
            ),
        ],
        ids=["clean", "slab-exhaust+node-stall"],
    )
    def test_directory_equals_the_bucket_walk(self, plan):
        cluster, stats = _killed_run(plan)
        assert cluster.counters.get("failovers") == 1
        assert cluster.counters.get("migrated_keys") > 0
        if plan is None:
            assert stats["failed"] == 0
        else:
            assert cluster.faults_fired > 0
        for node in cluster.nodes:
            if not node.alive:
                continue
            for slot in range(cluster.map.num_slots):
                walked = _walk_slot_items(cluster, node, slot)
                assert cluster.directory[node.index][slot] == set(walked)
                assert cluster._slot_items(node, slot) == walked
        assert cluster.directory_divergences() == []
        assert cluster.replication_divergences() == []

    def test_directory_divergence_is_reported(self):
        __, cluster = _cluster()
        node = cluster.nodes[1]
        # A write behind the cluster's back is exactly what the walk is
        # kept to catch.
        node.store.put(b"untracked", b"v")
        slot = cluster.map.slot_of(b"untracked")
        (problem,) = cluster.directory_divergences()
        assert f"{node.name} slot {slot}" in problem
        assert "missing=[b'untracked']" in problem

    def test_data_path_never_walks_buckets(self, monkeypatch):
        want = _killed_run()[0].counters.get("migrated_keys")

        def no_walk(self):
            raise AssertionError("bucket walk on the cluster data path")

        monkeypatch.setattr(HashTable, "items", no_walk)
        cluster, stats = _killed_run()
        assert stats["completed"] == stats["operations"]
        assert cluster.counters.get("failovers") == 1
        assert cluster.counters.get("migrated_keys") == want
        assert cluster.replication_divergences() == []
        assert len(cluster.primary_state()) == sum(
            len(cluster.directory[cluster.map.primary(slot)][slot])
            for slot in range(cluster.map.num_slots)
        )

    def test_deletes_leave_no_trace_and_do_not_resurrect(self):
        sim, cluster = _cluster()
        router = ClusterRouter(sim, cluster)
        key = b"key000000"
        slot = cluster.map.slot_of(key)
        placement = cluster.map.placements[slot]
        spare = cluster.nodes[
            3 - placement.primary - placement.backup
        ]
        # A stale copy where the slot will be re-replicated to.
        assert cluster.apply_state(spare, slot, key, b"stale")
        router.run(
            [KVOperation.put(key, b"v", seq=0),
             KVOperation.delete(key, seq=1)],
            concurrency=1,
        )
        for index in (placement.primary, placement.backup):
            assert key not in cluster.directory[index][slot]
            assert cluster.nodes[index].store.get(key) is None
        cluster.nodes[placement.backup].die()
        cluster.notice_node_down(placement.backup)
        cluster.quiesce()
        assert cluster.map.backup(slot) == spare.index
        assert key not in cluster.directory[spare.index][slot]
        assert spare.store.get(key) is None
        assert key not in cluster.primary_state()
        assert cluster.directory_divergences() == []


class TestFailedApply:
    """A state record that never lands is a failure, not an apply."""

    @staticmethod
    def _break_puts(node):
        def insert(key, value, h=None):
            raise AllocationError("injected: dynamic area exhausted")

        node.store.index.insert = insert

    def test_apply_state_reports_whether_the_record_landed(self):
        sim, cluster = _cluster()
        node = cluster.nodes[0]
        assert cluster.apply_state(node, 0, b"k", b"v")
        assert cluster.apply_state(node, 0, b"k", None)
        self._break_puts(node)
        assert not cluster.apply_state(node, 0, b"k", b"v")
        assert cluster.counters.get("replication_apply_retries") == 64
        assert cluster.counters.get("replication_apply_failures") == 1
        assert cluster.directory[0][0] == set()

    def test_failed_replication_is_not_counted_as_applied(self):
        sim, cluster = _cluster()
        key = b"key000000"
        slot = cluster.map.slot_of(key)
        backup = cluster.map.backup(slot)
        self._break_puts(cluster.nodes[backup])
        ClusterRouter(sim, cluster).run([KVOperation.put(key, b"v", seq=0)])
        assert cluster.counters.get("replication_records") == 1
        assert cluster.counters.get("replication_apply_failures") == 1
        assert cluster.counters.get("replication_applies") == 0
        assert cluster.replication_lag_ns.count == 0
        assert key not in cluster.directory[backup][slot]
        assert len(cluster.replication_divergences()) == 1

    def test_failed_migration_copies_are_not_counted_as_migrated(self):
        sim, cluster = _cluster()
        for i in range(32):
            cluster.preload(b"key%06d" % i, b"v")
        for node in cluster.nodes[1:]:
            self._break_puts(node)
        cluster.nodes[0].die()
        cluster.notice_node_down(0)
        cluster.quiesce()
        assert cluster.counters.get("failovers") == 1
        assert cluster.counters.get("replication_apply_failures") > 0
        assert cluster.counters.get("migrated_keys") == 0
        assert cluster.directory_divergences() == []


class TestNodeFaultDraws:
    def test_no_draws_without_node_faults_in_the_plan(self, monkeypatch):
        sim, cluster = _cluster()
        assert not cluster.has_node_faults
        drawn = []
        fire = cluster.injector.fire
        monkeypatch.setattr(
            cluster.injector, "fire",
            lambda site, *args, **kwargs: (
                drawn.append(site) or fire(site, *args, **kwargs)
            ),
        )
        cluster.kill_after_accepts(0, 4)
        stats = ClusterRouter(sim, cluster).run(_mixed_ops(64))
        assert stats["completed"] == 64
        # Only the scheduled kill reaches the injector (and its log).
        assert drawn == ["node0.kill"]
        assert cluster.injector.fired == 1

    @pytest.mark.parametrize("field", ["node_kill_prob", "node_stall_prob"])
    def test_either_probability_turns_the_draws_on(self, field):
        sim = Simulator()
        cluster = Cluster(
            sim, num_nodes=2,
            config=KVDirectConfig(
                memory_size=2 << 20, fault_plan=FaultPlan(**{field: 0.5}),
            ),
        )
        assert cluster.has_node_faults
        ClusterRouter(sim, cluster).run(_mixed_ops(32))
        assert cluster.injector.fired > 0


_RETRY_OPS = {
    "point": KVOperation.put(b"key000000", b"v", seq=0),
    "scan": KVOperation.range(b"key000000", 4, seq=0),
}


@pytest.mark.parametrize("kind", sorted(_RETRY_OPS))
class TestRetryLoop:
    """The one ClusterRouter retry loop, for point ops (one primary) and
    scans (every primary): each retryable NACK re-reads the map and
    retries; the retry limit and the retry budget bound the churn."""

    @pytest.fixture(autouse=True)
    def _slow_route(self, monkeypatch):
        monkeypatch.setattr(router_module, "ROUTE_DELAY_NS", 100.0)

    def _setup(self, **router_kwargs):
        sim = Simulator()
        cluster = Cluster(
            sim, num_nodes=3, num_slots=8,
            config=KVDirectConfig(memory_size=2 << 20, ordered_index=True),
        )
        cluster.preload(b"key000000", b"old")
        router = ClusterRouter(sim, cluster, **router_kwargs)
        return sim, cluster, router

    def _bump_in_flight(self, sim, cluster):
        def bumper():
            # Land strictly inside the op's [stamp, arrival) window.
            yield sim.timeout(50.0)
            cluster.map.bump()

        sim.process(bumper())

    def _outcome(self, sim, router, kind):
        outcome = []

        def runner():
            try:
                outcome.append((yield performed(router, _RETRY_OPS[kind])))
            except RetryExhausted as exc:
                outcome.append(exc)

        sim.process(runner())
        sim.run()
        return outcome[0]

    def test_node_down_fails_over_and_retries(self, kind):
        sim, cluster, router = self._setup()
        cluster.nodes[
            cluster.map.primary(cluster.map.slot_of(b"key000000"))
        ].die()
        result = self._outcome(sim, router, kind)
        cluster.quiesce()
        assert result.ok
        assert router.counters.get("node_down_retries") >= 1
        assert cluster.counters.get("failovers") == 1
        assert cluster.map.epoch == 1

    def test_epoch_bump_in_flight_forces_reroute(self, kind):
        """An epoch bump inside the route delay window NACKs the stale
        stamp and the router re-reads the map and retries."""
        sim, cluster, router = self._setup()
        self._bump_in_flight(sim, cluster)
        assert self._outcome(sim, router, kind).ok
        assert router.counters.get("wrong_epoch_retries") >= 1
        assert router.counters.get("give_ups") == 0

    def test_retry_limit_bounds_epoch_churn(self, kind, monkeypatch):
        monkeypatch.setattr(router_module, "RETRY_LIMIT", 0)
        sim, cluster, router = self._setup()
        self._bump_in_flight(sim, cluster)
        assert isinstance(self._outcome(sim, router, kind), RetryExhausted)
        assert router.counters.get("give_ups") == 1

    def test_empty_retry_budget_gives_up(self, kind):
        budget = RetryBudget(capacity=0.5)
        sim, cluster, router = self._setup(retry_budget=budget)
        self._bump_in_flight(sim, cluster)
        outcome = self._outcome(sim, router, kind)
        assert isinstance(outcome, RetryExhausted)
        assert "budget" in str(outcome)
        assert budget.refused == 1
        assert router.counters.get("give_ups") == 1


class TestClusterSoak:
    KILL = SoakConfig(
        cluster_nodes=3, kill_node=True, num_keys=10, ops_per_key=24,
        goodput_floor=0.3,
    )

    def test_kill_node_soak_is_deterministic(self):
        first = run_soak(self.KILL)
        second = run_soak(self.KILL)
        assert first.digest == second.digest
        assert first.as_dict() == second.as_dict()

    def test_kill_node_soak_loses_no_acked_writes(self):
        report = run_soak(self.KILL)
        assert report.check() == []
        assert report.final_state_matches
        assert report.divergences == []
        assert report.cluster["failovers"] == 1
        assert report.cluster["epoch"] == 1
        assert report.cluster["alive_nodes"] == 2
        assert report.robustness["node_down_retries"] > 0
        assert report.robustness["retry_give_ups"] == 0

    def test_kill_changes_the_digest(self):
        calm = run_soak(replace(self.KILL, kill_node=False))
        killed = run_soak(self.KILL)
        assert calm.digest != killed.digest
        assert calm.cluster["failovers"] == 0
        assert calm.cluster["epoch"] == 0

    def test_cluster_soak_with_node_fault_plan(self):
        plan = FaultPlan(node_stall_prob=0.02, node_stall_ns=500.0)
        report = run_soak(
            SoakConfig(
                cluster_nodes=2, num_keys=8, ops_per_key=20,
                fault_plan=plan, goodput_floor=0.3,
            )
        )
        assert report.check() == []
        assert report.digest == run_soak(
            SoakConfig(
                cluster_nodes=2, num_keys=8, ops_per_key=20,
                fault_plan=plan, goodput_floor=0.3,
            )
        ).digest

    def test_cluster_mode_validation(self):
        with pytest.raises(ConfigurationError):
            SoakConfig(cluster_nodes=2, num_shards=2)
        with pytest.raises(ConfigurationError):
            SoakConfig(kill_node=True, cluster_nodes=1)
        with pytest.raises(ConfigurationError):
            SoakConfig(cluster_nodes=1, cluster_slots=0)


class TestClusterMetrics:
    def test_registered_names_and_values(self):
        sim, cluster = _cluster()
        router = ClusterRouter(sim, cluster)
        registry = MetricsRegistry()
        cluster.register_metrics(registry)
        router.register_metrics(registry)
        router.run([
            KVOperation.put(b"key%06d" % i, b"v", seq=i) for i in range(16)
        ])
        exported = registry.collect()
        assert exported["cluster.epoch"] == 0.0
        assert exported["cluster.alive_nodes"] == 3.0
        assert exported["cluster.migrating_slots"] == 0.0
        assert exported["cluster.events.replication_records"] > 0
        assert exported["cluster.replication_lag_ns.count"] > 0
        assert exported["cluster.router_latency_ns.count"] == 16

    def test_soak_registry_covers_cluster_mode(self):
        registry = MetricsRegistry()
        run_soak(
            SoakConfig(cluster_nodes=2, num_keys=6, ops_per_key=10,
                       goodput_floor=0.3),
            registry=registry,
        )
        exported = registry.collect()
        assert "cluster.epoch" in exported
        assert "cluster.router.node_down_retries" in str(
            sorted(exported)
        ) or any(name.startswith("cluster.router") for name in exported)


class TestPlacement:
    def test_placement_is_frozen(self):
        placement = Placement(primary=0, backup=1)
        with pytest.raises(AttributeError):
            placement.primary = 2


class TestOneHashPerOp:
    """The router hashes each op once and hands the hash down - to the
    node gate, the processor's context and the replication record - and a
    station write-back inherits its key's: over a seeded run with a
    primary kill, FNV-1a runs once per op, and otherwise only for the
    failover's uncounted snapshot peeks and the migration applies that
    copy them."""

    def test_fnv1a64_runs_once_per_op_plus_the_failover(self):
        sim, cluster = _cluster()
        for i in range(96):
            cluster.preload(b"key%06d" % i, b"v%d" % i)
        rng = random.Random(3)
        ops = [
            KVOperation.put(b"key%06d" % rng.randrange(96), b"w", seq=seq)
            if rng.random() < 0.5 else
            KVOperation.get(b"key%06d" % rng.randrange(96), seq=seq)
            for seq in range(300)
        ]
        cluster.kill_after_accepts(cluster.map.primary(0), 100)
        router = ClusterRouter(sim, cluster, seed=3)
        profile = cProfile.Profile()
        profile.enable()
        stats = router.run(ops, concurrency=16)
        profile.disable()
        assert stats["completed"] == len(ops)
        migrated = cluster.counters["migrated_keys"]
        assert cluster.counters["failovers"] == 1 and migrated
        assert cluster.counters["replication_applies"]
        (hashed,) = [
            (calls, callers)
            for (__, __, name), (__, calls, __, __, callers)
            in pstats.Stats(profile).stats.items()
            if name == "fnv1a64"
        ]
        calls, callers = hashed
        per_op = sum(
            count for (path, __, name), (count, *__) in callers.items()
            if path.endswith("router.py") and name == "__init__"
        )
        assert per_op <= len(ops), per_op
        # Each migrated key: one peek at the owner, one insert at the
        # new backup (4.9 calls per op before the hash was shared).
        assert calls - per_op <= 2 * migrated, (calls, per_op, migrated)


def _fnv1a64_calls(load, pairs):
    """Run ``load(key, value)`` over ``pairs`` under cProfile; the number
    of ``fnv1a64`` calls it made."""
    profile = cProfile.Profile()
    profile.enable()
    for key, value in pairs:
        load(key, value)
    profile.disable()
    return sum(
        calls
        for (__, __, name), (__, calls, *__)
        in pstats.Stats(profile).stats.items()
        if name == "fnv1a64"
    )


def _store_state(store):
    return (
        sorted(store.items()),
        store.dma_stats(),
        dict(store.table.counters),
    )


class TestOneHashPerPreloadedKey:
    """A functional preload hashes each key once - for the shard or slot
    and for every holder's index - and leaves each store exactly as
    ``store.put`` would: same contents, same access counters."""

    PAIRS = [(b"key%06d" % i, b"v%d" % (i % 7) * (1 + i % 40))
             for i in range(200)] + [(b"key%06d" % 3, b"replaced")]

    @pytest.mark.parametrize("ordered", [False, True])
    def test_put_direct_hashes_each_key_once(self, ordered):
        config = KVDirectConfig(memory_size=2 << 20, ordered_index=ordered)
        server = MultiNICServer(Simulator(), nic_count=4, config=config)
        reference = MultiNICServer(Simulator(), nic_count=4, config=config)
        assert _fnv1a64_calls(server.put_direct, self.PAIRS) == len(
            self.PAIRS
        )
        for key, value in self.PAIRS:
            reference.owner(key).store.put(key, value)
        for stack, ref in zip(server.stacks, reference.stacks):
            assert _store_state(stack.store) == _store_state(ref.store)
            assert len(stack.store)

    def test_cluster_preload_hashes_each_key_once(self):
        __, cluster = _cluster()
        __, reference = _cluster()
        assert _fnv1a64_calls(cluster.preload, self.PAIRS) == len(
            self.PAIRS
        )
        for key, value in self.PAIRS:
            slot = reference.map.slot_of(key)
            placement = reference.map.placements[slot]
            for holder in (placement.primary, placement.backup):
                reference.nodes[holder].store.put(key, value)
                reference.directory[holder][slot].add(key)
        assert cluster.directory == reference.directory
        for node, ref in zip(cluster.nodes, reference.nodes):
            assert _store_state(node.store) == _store_state(ref.store)
            assert len(node.store)
