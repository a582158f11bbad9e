"""A 1-NIC MultiNICServer is byte-identical to the bare single-NIC path.

This is what licenses the CLI (and every other caller) to build *only*
servers: the same seeded corpus and op stream through ``KVProcessor`` +
``KVClient`` by hand and through ``scenario.build(shards=1)`` must give
the same tracer digest, the same unprefixed metrics export and the same
profile JSON.
"""

import json

import pytest

from repro import scenario
from repro.client.client import KVClient
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.obs import MetricsRegistry, StageProfiler, Tracer
from repro.obs.profiler import merged_dict
from repro.sim import Simulator
from repro.workloads import KeySpace, WorkloadSpec, YCSBGenerator

SEED, CORPUS, OPS, MEMORY = 7, 300, 400, 4 << 20


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


def _bare():
    sim = Simulator()
    store = KVDirectStore.create(memory_size=MEMORY, seed=SEED)
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


def _one_nic_server():
    tracer = Tracer(seed=SEED)
    built = scenario.build(
        seed=SEED, memory_size=MEMORY, corpus=CORPUS, put_ratio=0.5,
        tracer=tracer, profile=True,
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
