"""Every driver pulls its ops from any iterable and keeps none of them.

``run_closed_loop``, ``KVClient`` (alone and under ``ShardRouter``) and
``ClusterRouter.run`` take a generator as readily as a list, and a run fed
one equals the run fed the other bit for bit: stats, latency samples,
per-op results, DMA and pipeline counters, the span log.  Each op's key
is hashed once on every path and the hash lives only in the op's
in-flight state, never on the op.  An empty stream means one thing to
every driver (a ``ConfigurationError``), and so does a concurrency that
is not a positive ``int``.
"""

import cProfile
import math
import random

import pytest

from repro import scenario
from repro.client.router import ClusterRouter
from repro.core.admission import OverloadPolicy
from repro.core.operations import KVOperation
from repro.driver import run_closed_loop
from repro.errors import ConfigurationError
from repro.obs.tracer import Tracer

#: Wall-clock context, not simulated results.
WALL = ("wall_clock_s", "sim_ops_per_wall_s")


def _processors(built):
    if built.cluster is not None:
        return [node.stack.processor for node in built.cluster.nodes]
    return built.server.processors


def _observed(built, tracer, stats, results):
    """Everything simulated a run leaves behind."""
    processors = _processors(built)
    return {
        "stats": stats,
        "results": results,
        "latencies": [list(p.latencies.samples()) for p in processors],
        "metrics": [p.register_metrics().collect() for p in processors],
        "dma": [p.store.dma_stats() for p in processors],
        "spans": [
            (span.at_ns, span.seq, span.stage, span.detail)
            for span in tracer.spans
        ],
        "now": built.sim.now,
    }


def _closed_loop(lazy, shards):
    tracer = Tracer()
    built = scenario.build(
        seed=5, memory_size=2 << 20, corpus=600, workload="E",
        shards=shards, tracer=tracer,
    )
    ops = built.generator.stream(500) if lazy else built.operations(500)
    results, merged = [], {}
    stats = run_closed_loop(
        built.server if shards > 1 else built.processor, ops,
        concurrency=24, scan_results=merged,
        sink=lambda op, result: results.append((op.seq, result)),
    )
    stats = {k: v for k, v in stats.items() if k not in WALL}
    return _observed(built, tracer, stats, (results, merged))


def _sharded(lazy):
    tracer = Tracer()
    built = scenario.build(
        seed=7, memory_size=2 << 20, corpus=1000, kv_size=254,
        put_ratio=0.05, distribution="zipf", shards=4, tracer=tracer,
    )
    ops = built.generator.stream(900) if lazy else built.operations(900)
    router = built.server.router(batch_size=32, seed=7)
    stats = router.run(ops)
    results = [client.responses for client in router.clients]
    latencies = [list(client.latencies.samples()) for client in router.clients]
    summary = (stats.as_dict(), [s.as_dict() for s in stats.per_shard])
    return _observed(built, tracer, summary, (results, latencies))


def _sharded_busy(lazy):
    """Two shards under an overload policy that sheds, so batches retry
    their NACKed ops (with the hashes they were routed by)."""
    built = scenario.build(
        seed=3, memory_size=2 << 20, corpus=300, put_ratio=0.5, shards=2,
        max_inflight=4,
        overload=OverloadPolicy(queue_depth=6, shed_policy="drop-oldest"),
    )
    ops = built.generator.stream(600) if lazy else built.operations(600)
    router = built.server.router(batch_size=16, seed=3)
    calls, stats = _counting_fnv(lambda: router.run(ops))
    return calls, stats, [client.responses for client in router.clients]


def _cluster_kill(lazy):
    tracer = Tracer()
    built = scenario.build(
        seed=7, memory_size=2 << 20, corpus=600, put_ratio=0.5, nodes=3,
        tracer=tracer,
    )
    cluster = built.cluster
    cluster.kill_after_accepts(cluster.map.primary(0), 60)
    results = []
    router = ClusterRouter(
        built.sim, cluster, seed=7,
        sink=lambda op, result: results.append((op.seq, result)),
    )
    ops = built.generator.stream(600) if lazy else built.operations(600)
    stats = router.run(ops, concurrency=32)
    assert cluster.counters["failovers"] == 1
    extra = (
        dict(cluster.counters), list(router.latency_ns.samples()),
        list(cluster.replication_lag_ns.samples()),
    )
    return _observed(built, tracer, stats, (results, extra))


class TestGeneratorFedEqualsListFed:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_run_closed_loop(self, shards):
        listed = _closed_loop(False, shards)
        assert listed["results"][0] and listed["results"][1]
        assert _closed_loop(True, shards) == listed

    def test_shard_router(self):
        listed = _sharded(False)
        assert _sharded(True) == listed

    def test_shard_router_retrying_shed_ops(self):
        calls, stats, responses = _sharded_busy(False)
        assert sum(shard.busy_retries for shard in stats.per_shard)
        assert calls == 600  # a retried op keeps its hash
        lazy_calls, lazy_stats, lazy_responses = _sharded_busy(True)
        assert (lazy_calls, lazy_stats, lazy_responses) == (
            calls, stats, responses
        )

    def test_cluster_router_with_a_kill(self):
        listed = _cluster_kill(False)
        assert _cluster_kill(True) == listed

    def test_lazy_pulls_draw_what_the_list_drew(self):
        """A workload generator draws from its own ``random.Random``s only:
        pulled op by op while the simulation runs (and draws its own
        backoff jitter), it yields exactly the list built up front and
        leaves its streams in the same state."""
        drawn = []
        for lazy in (False, True):
            built = scenario.build(seed=3, corpus=500, put_ratio=0.5,
                                   distribution="zipf", nodes=2)
            generator = built.generator
            ops = generator.stream(400) if lazy else built.operations(400)
            seen = []
            ClusterRouter(
                built.sim, built.cluster, seed=3,
                sink=lambda op, result: seen.append(op),
            ).run(ops, concurrency=8)
            drawn.append((
                sorted((op.seq, op.op, op.key, op.value) for op in seen),
                generator.sampler._rng.getstate(),
                generator._rng.getstate(),
            ))
        assert drawn[0] == drawn[1]
        assert len(drawn[0][0]) == 400


def _counting_fnv(run):
    """Run ``run()`` under cProfile: the FNV-1a calls it made, and what
    it returned."""
    profile = cProfile.Profile()
    profile.enable()
    ops = run()
    profile.disable()
    calls = sum(
        entry.callcount for entry in profile.getstats()
        if not isinstance(entry.code, str)
        and entry.code.co_name == "fnv1a64"
    )
    return calls, ops


class TestOneHashNowhereOnTheOp:
    def test_closed_loop_one_and_four_lanes(self):
        for shards in (1, 4):
            built = scenario.build(seed=7, memory_size=1 << 20, corpus=800,
                                   put_ratio=0.5, shards=shards)
            ops = built.operations(400)
            target = built.server if shards > 1 else built.processor
            calls, __ = _counting_fnv(
                lambda: run_closed_loop(target, ops, concurrency=16)
            )
            assert calls == len(ops)
            assert not any("key_hash" in vars(op) for op in ops)

    def test_shard_router(self):
        built = scenario.build(seed=7, memory_size=2 << 20, corpus=800,
                               put_ratio=0.5, shards=4)
        ops = built.operations(400)
        router = built.server.router(batch_size=16, seed=7)
        calls, __ = _counting_fnv(lambda: router.run(ops))
        assert calls == len(ops)
        assert not any("key_hash" in vars(op) for op in ops)

    def test_cluster_router(self):
        built = scenario.build(seed=7, memory_size=2 << 20, corpus=400,
                               put_ratio=0.5, nodes=3)
        ops = built.operations(300)
        router = ClusterRouter(built.sim, built.cluster, seed=7)
        calls, __ = _counting_fnv(lambda: router.run(ops, concurrency=16))
        assert calls == len(ops)
        assert not any("key_hash" in vars(op) for op in ops)

    def test_a_scan_fanned_out_to_every_lane_hashes_once(self):
        built = scenario.build(seed=7, memory_size=1 << 20, corpus=400,
                               workload="E", shards=4)
        ops = built.operations(120)
        calls, __ = _counting_fnv(
            lambda: run_closed_loop(built.server, ops, concurrency=8)
        )
        assert calls == len(ops)


def _point(seed=1):
    return scenario.build(seed=seed, corpus=200, put_ratio=0.5)


def _drivers():
    """Every driver, as ``name -> run(ops, concurrency)``."""
    def closed_loop(ops, concurrency=8):
        return run_closed_loop(_point().processor, ops, concurrency)

    def sharded(ops, concurrency=None):
        return scenario.build(corpus=200, shards=2).server.router().run(ops)

    def client(ops, concurrency=None):
        built = _point()
        return built.server.stacks[0].client().run(ops)

    def cluster(ops, concurrency=8):
        built = scenario.build(corpus=200, nodes=2)
        return ClusterRouter(built.sim, built.cluster).run(ops, concurrency)

    return {"run_closed_loop": closed_loop, "ShardRouter": sharded,
            "KVClient": client, "ClusterRouter": cluster}


DRIVERS = _drivers()


class TestOneMeaningPerInput:
    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_an_empty_stream_is_a_configuration_error(self, name):
        """``run_closed_loop([])`` used to return zero stats while the
        routers and the client raised."""
        for empty in ([], (op for op in ())):
            with pytest.raises(ConfigurationError, match="no operations"):
                DRIVERS[name](empty)

    @pytest.mark.parametrize("name", ["run_closed_loop", "ClusterRouter"])
    @pytest.mark.parametrize(
        "concurrency", [0, -3, 2.5, 4.0, math.inf, math.nan, True, "4"],
        ids=["zero", "negative", "fraction", "float", "inf", "nan", "bool",
             "str"],
    )
    def test_concurrency_must_be_a_positive_int(self, name, concurrency):
        ops = [KVOperation.get(b"k%d" % i, seq=i) for i in range(4)]
        with pytest.raises(ConfigurationError, match="concurrency"):
            DRIVERS[name](ops, concurrency)

    @pytest.mark.parametrize("name", ["run_closed_loop", "ClusterRouter"])
    def test_a_positive_int_concurrency_runs(self, name):
        rng = random.Random(1)
        ops = [KVOperation.get(b"k%d" % rng.randrange(50), seq=i)
               for i in range(20)]
        stats = DRIVERS[name](iter(ops), 3)
        assert stats["operations"] == 20.0


class TestSinks:
    def test_a_client_sink_replaces_the_responses_dict(self):
        built = _point()
        ops = built.operations(100)
        seen = []
        client = built.server.stacks[0].client(
            sink=lambda op, result: seen.append((op, result)),
        )
        stats = client.run(iter(ops))
        assert stats.operations == 100
        assert client.responses == {}
        assert sorted(op.seq for op, __ in seen) == list(range(100))
        assert all(result.seq == op.seq for op, result in seen)

    def test_the_default_sink_is_the_responses_dict(self):
        built = _point()
        client = built.server.stacks[0].client()
        client.run(built.generator.stream(64))
        assert sorted(client.responses) == list(range(64))

    def test_a_shard_router_hands_its_sink_to_every_client(self):
        built = scenario.build(corpus=300, put_ratio=0.5, shards=3)
        seen = []
        router = built.server.router(
            batch_size=8, sink=lambda op, result: seen.append(op.seq)
        )
        stats = router.run(built.generator.stream(150))
        assert stats.operations == 150
        assert sorted(seen) == list(range(150))
        assert all(client.responses == {} for client in router.clients)
