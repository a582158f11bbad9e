"""The client, router, failover, soak and overload chains against the
generator processes they replaced.

``tests/ref_generators.py`` keeps the generators verbatim.  Each test drives
the chains and the reference through the same seeded run and requires
everything observable to match: responses and stats, client, router and
cluster counters and histograms, every tracer span (retry and backoff times
included), the ordered log of Ethernet bookings and op submissions, the
failover's state applies, soak digests, ``sim.now`` and the heap pushes.

The chains also queue exactly the reference's deque entries less the
completions that nothing waited on - ``dropped`` in each test.  A batch's
completion only ran a callback that acts on a failure, a failover's and an
overload submitter's ran nothing, and a worker's or soak driver's only
counted the rest down: the last one's is kept, because the every-worker
entry after it is where the run returns.  A run's or ``quiesce``'s
completion, where ``sim.run`` stops, is kept; ``quiesce``'s kick-start is
not, as its chain starts waiting in the call itself.
"""

import dataclasses
import random
from collections import Counter as Tally
from collections import deque

import pytest

from repro import scenario
from repro.chaos import overload
from repro.chaos.soak import SoakConfig, _Soak
from repro.client import client as client_module
from repro.client.client import KVClient
from repro.client.robust import CircuitBreaker, RetryBudget
from repro.client.router import ClusterRouter, ShardRouter
from repro.core.admission import OverloadPolicy
from repro.core.operations import KVOperation
from repro.errors import RetryExhausted
from repro.faults import FaultPlan
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer
from tests import ref_generators
from tests.ref_generators import (
    RefCluster,
    RefClusterRouter,
    RefKVClient,
    RefShardRouter,
    RefSoak,
    ref_run_point,
)


class _CountingDeque(deque):
    appends = 0

    def append(self, item):
        self.appends += 1
        super().append(item)


class Ledger:
    """A simulator's deque appends, the processes created on it (by
    generator name, and whether each succeeded) and a log of calls."""

    def __init__(self, sim):
        assert not sim._dq and not sim._queue
        self.sim = sim
        self.entries = sim._dq = _CountingDeque()
        sim.call_soon = self.entries.append
        self.processes = []
        self.log = []
        spawn = sim.process

        def process(generator):
            proc = spawn(generator)
            self.processes.append((generator.gi_code.co_name, proc))
            return proc

        sim.process = process

    def created(self):
        return Tally(name for name, __ in self.processes)

    def succeeded(self, name):
        return sum(
            proc.triggered and proc.exception is None
            for created, proc in self.processes if created == name
        )

    def spy(self, target, method, label, args=lambda args: args):
        call = getattr(target, method)

        def logged(*a, **kw):
            self.log.append((self.sim.now, label, method, args(a)))
            return call(*a, **kw)

        setattr(target, method, logged)

    def spy_stack(self, stack, name):
        """Each Ethernet booking and each op the processor is handed."""
        network = stack.processor.network
        for channel, label in ((network.ingress, "rx"), (network.egress, "tx")):
            self.spy(channel, "reserve", f"{name}.{label}",
                     args=lambda a: a[:1])
        self.spy(stack.processor, "submit", name, args=lambda a: a[0].seq)

    def observed(self, tracer=None):
        seen = {
            "log": self.log,
            "now": self.sim.now,
            "heap_pushes": self.sim._sequence,
        }
        if tracer is not None:
            seen["spans"] = [
                (span.at_ns, span.seq, span.stage, span.detail)
                for span in tracer.spans
            ]
        return seen


def assert_matches(chains, reference, dropped):
    """Same observations; the chains queue no process and exactly the
    reference's entries less ``dropped``."""
    assert chains[0] == reference[0]
    assert not chains[1].processes
    assert chains[1].entries.appends == reference[1].entries.appends - dropped


# -- the batching client --------------------------------------------------------


def mixed_ops(seed, count, keys=40):
    rng = random.Random(seed)
    ops = []
    for seq in range(count):
        key = b"key%04d" % rng.randrange(keys)
        if rng.random() < 0.4:
            ops.append(KVOperation.put(key, b"v%d" % seq * 8, seq=seq))
        else:
            ops.append(KVOperation.get(key, seq=seq))
    return ops


def client_run(client_cls, fault_plan, ops, **client_options):
    """One client over one NIC, built with the client's seed: its stats (or
    the error it raised), responses, and everything the ledger saw."""
    tracer = Tracer()
    built = scenario.build(
        seed=client_options.get("seed", 0), memory_size=2 << 20, corpus=40, kv_size=24, tracer=tracer,
        fault_plan=fault_plan, max_inflight=4,
        overload=OverloadPolicy(queue_depth=6, shed_policy="drop-oldest"),
    )
    ledger = Ledger(built.sim)
    ledger.spy_stack(built.server.stacks[0], "nic0")
    client = client_cls(built.sim, built.processor, **client_options)
    try:
        outcome = dataclasses.asdict(client.run(ops))
    except RetryExhausted as exc:
        outcome = str(exc)
    seen = ledger.observed(tracer)
    seen.update(
        outcome=outcome, responses=client.responses,
        metrics=built.processor.register_metrics().collect(),
    )
    return seen, ledger


class TestClientChainsMatchTheGenerators:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_loss_busy_nacks_breaker_and_budget(self, seed, monkeypatch):
        plan = FaultPlan(
            packet_loss_prob=0.1, packet_duplicate_prob=0.1,
            packet_reorder_prob=0.1,
        )
        for name, value in (
            ("RETRY_LIMIT", 16), ("RETRY_BACKOFF_NS", 300.0),
            ("BACKOFF_JITTER", 0.2), ("BUSY_RETRY_LIMIT", 3),
            ("BUSY_BACKOFF_NS", 500.0),
        ):
            monkeypatch.setattr(client_module, name, value)

        def run(client_cls):
            sim_clock = []
            options = dict(
                batch_size=8, max_outstanding_batches=6, seed=seed,
                deadline_budget_ns=40_000.0,
                retry_budget=RetryBudget(capacity=400.0, refill_per_success=0.5),
                breaker=CircuitBreaker(
                    clock=lambda: sim_clock[0].now, window_ns=20_000.0,
                    failure_threshold=0.3, min_samples=8, open_ns=3_000.0,
                ),
            )

            class Clocked(client_cls):
                def __init__(self, sim, *args, **kwargs):
                    sim_clock.append(sim)
                    super().__init__(sim, *args, **kwargs)

            return client_run(
                Clocked, plan, mixed_ops(seed, 400), **options
            )

        reference, chains = run(RefKVClient), run(KVClient)
        outcome = chains[0]["outcome"]
        assert outcome["retries"] and outcome["busy_retries"]
        assert outcome["breaker_opens"] and outcome["busy_give_ups"]
        assert_matches(
            chains, reference, reference[1].succeeded("_send_batch")
        )

    def test_retry_exhaustion_fails_the_run_at_the_same_entry(
        self, monkeypatch
    ):
        monkeypatch.setattr(client_module, "RETRY_LIMIT", 1)
        monkeypatch.setattr(client_module, "RETRY_BACKOFF_NS", 200.0)

        def run(client_cls):
            return client_run(
                client_cls, FaultPlan(packet_loss_prob=0.6),
                mixed_ops(3, 120), batch_size=4, seed=3,
            )

        reference, chains = run(RefKVClient), run(KVClient)
        assert "flight lost 2 times" in chains[0]["outcome"]
        assert_matches(
            chains, reference, reference[1].succeeded("_send_batch")
        )


# -- the shard router -----------------------------------------------------------


def sharded(router_cls, seed, shards=4, ops=600):
    """The ``net-sharded`` shape: Zipf reads of 254 B records over
    ``shards`` NICs behind batching clients."""
    tracer = Tracer()
    built = scenario.build(
        seed=seed, memory_size=2 << 20, corpus=1000, kv_size=254,
        put_ratio=0.05, distribution="zipf", shards=shards, tracer=tracer,
    )
    ledger = Ledger(built.sim)
    for index, stack in enumerate(built.server.stacks):
        ledger.spy_stack(stack, f"nic{index}")
    router = router_cls(built.sim, built.server.stacks, batch_size=32,
                        seed=seed)
    stats = router.run(built.operations(ops))
    seen = ledger.observed(tracer)
    seen.update(
        stats=dataclasses.asdict(stats),
        responses=[client.responses for client in router.clients],
    )
    return seen, ledger


class TestShardRouterMatchesTheGenerators:
    @pytest.mark.parametrize("seed,shards", [(7, 4), (11, 3)])
    def test_net_sharded_run(self, seed, shards):
        reference = sharded(RefShardRouter, seed, shards)
        chains = sharded(ShardRouter, seed, shards)
        batches = reference[1].created()["_send_batch"]
        assert reference[1].created()["_run"] == shards
        assert_matches(chains, reference, batches)


# -- the cluster router, failover and quiesce -----------------------------------


def cluster_run(refs, nodes, seed, scans=False, breaker=False):
    """One seeded ClusterRouter run with a primary killed mid-run."""
    tracer = Tracer()
    built = scenario.build(
        seed=seed, memory_size=2 << 20, nodes=nodes, tracer=tracer,
        ordered_index=scans,
    )
    sim, cluster = built.sim, built.cluster
    ledger = Ledger(sim)
    for node in cluster.nodes:
        ledger.spy(node, "submit", node.name, args=lambda a: (a[0].seq, a[2]))
    applies = []
    apply_state = cluster.apply_state

    def logged_apply(node, slot, key, value, h=None):
        landed = apply_state(node, slot, key, value, h)
        applies.append((sim.now, node.index, slot, key, value, landed))
        return landed

    cluster.apply_state = logged_apply
    for i in range(64):
        cluster.preload(b"key%04d" % i, b"v%d" % i)
    rng = random.Random(seed)
    ops = []
    for seq in range(300):
        key = b"key%04d" % rng.randrange(80)
        kind = rng.random()
        if scans and kind < 0.1:
            ops.append(KVOperation.range(key, rng.randint(1, 12), seq=seq))
        elif kind < 0.45:
            ops.append(KVOperation.put(key, b"w%d" % seq, seq=seq))
        elif kind < 0.55:
            ops.append(KVOperation.delete(key, seq=seq))
        else:
            ops.append(KVOperation.get(key, seq=seq))
    cluster.kill_after_accepts(cluster.map.primary(0), len(ops) // (2 * nodes))
    options = {}
    if breaker:
        options = dict(
            retry_budget=RetryBudget(capacity=20.0, refill_per_success=0.2),
            breaker=CircuitBreaker(
                clock=lambda: sim.now, window_ns=50_000.0,
                failure_threshold=0.02, min_samples=4, open_ns=2_000.0,
            ),
        )
    router_cls = ClusterRouter
    if refs:
        cluster.__class__ = RefCluster
        router_cls = RefClusterRouter
    router = router_cls(sim, cluster, seed=seed, **options)
    stats = router.run(ops, concurrency=16)
    seen = ledger.observed(tracer)
    seen.update(
        stats=stats,
        router=router.counters.snapshot(),
        robustness=router.robustness_snapshot(),
        cluster=cluster.counters.snapshot(),
        lag=cluster.replication_lag_ns.samples(),
        failover=cluster.failover_time_ns.samples(),
        latency=router.latency_ns.samples(),
        applies=applies,
        state=sorted(cluster.primary_state().items()),
        placements=cluster.map.placements,
        directory=cluster.directory,
    )
    return seen, ledger


class TestClusterChainsMatchTheGenerators:
    @pytest.mark.parametrize("nodes,seed,scans,breaker", [
        (3, 1, False, False), (3, 2, True, False), (2, 3, False, False),
        (4, 4, True, True),
    ])
    def test_failover_run(self, nodes, seed, scans, breaker):
        reference = cluster_run(True, nodes, seed, scans, breaker)
        chains = cluster_run(False, nodes, seed, scans, breaker)
        created = reference[1].created()
        assert created["quiesce"] == 1 and created["_fail_over"] == 1
        assert_matches(chains, reference, created["worker"] - 1
                       + created["_fail_over"] + created["quiesce"])
        events = chains[0]["cluster"]
        assert events["failovers"] == 1
        assert chains[0]["router"]["node_down_retries"]
        assert bool(events.get("migrated_keys")) == (nodes > 2)
        if scans:
            assert chains[0]["router"]["scan_fanouts"]
        if breaker:
            assert chains[0]["robustness"]["breaker_opens"]


# -- the soak and the overload sweep --------------------------------------------


def soak_run(soak_cls, cfg):
    soak = soak_cls(cfg, None)
    ledger = Ledger(soak.sim)
    report = soak.run()
    seen = ledger.observed()
    seen["report"] = report.as_dict()
    return seen, ledger


class TestSoakAndOverloadChainsMatchTheGenerators:
    @pytest.mark.parametrize("overrides", [
        dict(fault_plan=FaultPlan.chaos(0.03), deadline_budget_ns=20_000.0),
        dict(num_shards=2, fault_plan=FaultPlan.chaos(0.02)),
        dict(cluster_nodes=3, kill_node=True,
             fault_plan=FaultPlan.chaos(0.02)),
    ], ids=["one-nic", "two-shards", "cluster-kill"])
    def test_soak(self, overrides):
        cfg = SoakConfig(seed=5, num_keys=8, ops_per_key=20, **overrides)
        reference, chains = soak_run(RefSoak, cfg), soak_run(_Soak, cfg)
        created = reference[1].created()
        assert created["_driver"] == cfg.num_keys
        assert chains[0]["report"]["ok"]
        assert_matches(chains, reference, created["_driver"] - 1
                       + created["_fail_over"] + created["quiesce"])

    @pytest.mark.parametrize("shed", [True, False])
    def test_overload_point(self, shed, monkeypatch):
        capacity = overload.probe_capacity(2 << 20, seed=4, num_ops=400)
        ledgers = []

        def counted(*args, **kwargs):
            processor = make(*args, **kwargs)
            ledgers.append(Ledger(processor.sim))
            return processor

        make = overload._processor
        monkeypatch.setattr(overload, "_processor", counted)
        monkeypatch.setattr(ref_generators, "_processor", counted)
        points = []
        for run_point in (ref_run_point, overload.run_point):
            registry = MetricsRegistry()
            point = run_point(
                3.0, shed, capacity, seed=4, num_ops=400, memory_size=2 << 20,
                queue_depth=8, deadline_budget_ns=30_000.0, registry=registry,
            )
            points.append((point, registry.collect(), ledgers[-1].observed()))
        reference, chains = ledgers
        assert points[1] == points[0]
        assert points[1][0]["shed"] or not shed
        assert reference.created() == {"submitter": 1}
        assert not chains.processes
        assert chains.entries.appends == reference.entries.appends - 1

