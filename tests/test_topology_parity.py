"""A 1-NIC MultiNICServer is byte-identical to the bare single-NIC path.

This is what licenses the CLI (and every other caller) to build *only*
servers: the same seeded corpus and op stream through ``KVProcessor`` +
``KVClient`` by hand and through ``scenario.build(shards=1)`` must give
the same tracer digest, the same unprefixed metrics export and the same
profile JSON.  The same holds for every config override the figure
benchmarks pass through ``build(**overrides)``, and for a replicated
cluster built by hand against ``build(nodes=3)``.
"""

import json

import pytest

from repro import scenario
from repro.client.client import KVClient
from repro.client.router import ClusterRouter
from repro.core.config import KVDirectConfig
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.multi import Cluster
from repro.obs import MetricsRegistry, StageProfiler, Tracer
from repro.obs.profiler import merged_dict
from repro.sim import Simulator
from repro.workloads import KeySpace, WorkloadSpec, YCSBGenerator

SEED, CORPUS, OPS, MEMORY = 7, 300, 400, 4 << 20

#: The config overrides the figure benchmarks hand to ``scenario.build``.
OVERRIDES = [
    {"out_of_order": False},
    {"max_inflight": 16},
    {"reservation_slots": 16},
    {"pcie_links": 1},
    {"network_bandwidth": 12.5e9},
]


def _exports(processor, client, tracer, profilers, registry):
    client.register_metrics(registry)
    return {
        "trace": tracer.digest(),
        "spans": tracer.render_lines(),
        "profile": json.dumps(merged_dict(profilers), sort_keys=True),
        "completed": processor.completed,
        "elapsed_ns": processor.sim.now,
        "client_p99": client.latencies.percentile(99),
        "metrics": registry.to_prometheus(),
    }


def _bare(**overrides):
    sim = Simulator()
    store = KVDirectStore.create(memory_size=MEMORY, seed=SEED, **overrides)
    keyspace = KeySpace(count=CORPUS, kv_size=13, seed=SEED)
    for key, value in keyspace.pairs():
        store.put(key, value)
    store.reset_measurements()
    tracer = Tracer(seed=SEED)
    profiler = StageProfiler()
    processor = KVProcessor(sim, store, tracer=tracer, profiler=profiler)
    client = KVClient(sim, processor, batch_size=16)
    generator = YCSBGenerator(
        keyspace, WorkloadSpec(put_ratio=0.5, seed=SEED)
    )
    client.run(generator.operations(OPS))
    return _exports(processor, client, tracer, [profiler],
                    processor.register_metrics(MetricsRegistry()))


def _one_nic_server(**overrides):
    tracer = Tracer(seed=SEED)
    built = scenario.build(
        seed=SEED, memory_size=MEMORY, corpus=CORPUS, put_ratio=0.5,
        tracer=tracer, profile=True, **overrides,
    )
    router = built.server.router(batch_size=16)
    router.run(built.operations(OPS))
    return _exports(built.processor, router.clients[0], tracer,
                    built.server.profilers, built.server.register_metrics())


@pytest.fixture(scope="module")
def both():
    return _bare(), _one_nic_server()


@pytest.mark.parametrize(
    "surface",
    ["trace", "spans", "metrics", "profile", "completed", "elapsed_ns",
     "client_p99"],
)
def test_one_nic_server_matches_bare_path(both, surface):
    bare, server = both
    assert server[surface] == bare[surface]


def test_the_comparison_is_not_vacuous(both):
    bare, __ = both
    assert bare["completed"] == OPS
    assert len(bare["spans"]) > OPS
    assert "processor_completed_ops" in bare["metrics"]
    assert not any(
        line.startswith("nic0") for line in bare["metrics"].splitlines()
    )
    assert "op_classes" in json.loads(bare["profile"])


@pytest.mark.parametrize(
    "overrides", OVERRIDES,
    ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
)
def test_overridden_one_nic_server_matches_bare_path(both, overrides):
    """Each override reaches the built stack: the run matches the bare
    path given the same override, and differs from the default run."""
    bare = _bare(**overrides)
    assert _one_nic_server(**overrides) == bare
    assert bare["trace"] != both[0]["trace"]


def _cluster_exports(sim, cluster, ops, tracer):
    stats = ClusterRouter(sim, cluster).run(ops)
    return {
        "trace": tracer.digest(),
        "stats": stats,
        "state": cluster.primary_state(),
        "accesses": [
            stack.store.memory.accesses for stack in cluster.server.stacks
        ],
        "metrics": cluster.register_metrics().to_prometheus(),
    }


def test_three_node_cluster_matches_hand_built():
    """``build(nodes=3)`` is the replicated cluster built, preloaded and
    reset by hand."""
    tracer = Tracer(seed=SEED)
    sim = Simulator()
    cluster = Cluster(
        sim, 3, config=KVDirectConfig(memory_size=MEMORY, seed=SEED),
        tracer=tracer,
    )
    keyspace = KeySpace(count=CORPUS, kv_size=13, seed=SEED)
    for key, value in keyspace.pairs():
        cluster.preload(key, value)
    cluster.server.reset_measurements()
    generator = YCSBGenerator(
        keyspace, WorkloadSpec(put_ratio=0.5, seed=SEED)
    )
    by_hand = _cluster_exports(
        sim, cluster, generator.operations(OPS), tracer
    )

    tracer = Tracer(seed=SEED)
    built = scenario.build(
        seed=SEED, memory_size=MEMORY, corpus=CORPUS, put_ratio=0.5,
        nodes=3, tracer=tracer,
    )
    assert _cluster_exports(
        built.sim, built.cluster, built.operations(OPS), tracer
    ) == by_hand
    assert by_hand["stats"]["completed"] == OPS
    assert len(by_hand["state"]) == CORPUS
