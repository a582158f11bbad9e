"""Multi-NIC scaling (section 1 / Table 3 bottom row).

"KV-Direct can achieve near linear scalability with multiple NICs.  With
10 programmable NIC cards in a commodity server, we achieve 1.22 billion
KV operations per second."

Each NIC owns a disjoint memory shard, its own PCIe links and port;
scaling is near-linear because they share nothing.  Two measurements:

- **end-to-end**: key-hash routed clients drive every NIC through the
  full client -> network -> batch decode -> admission -> pipeline path
  (one :class:`~repro.client.client.KVClient` per shard, via
  :meth:`MultiNICServer.router`) - the configuration the paper
  actually ships,
- **direct-submit**: the processor-bound closed loop (shared harness in
  :mod:`repro.driver`) isolating the KV pipeline from the wire.
"""

import pytest

from repro import scenario
from repro.analysis.report import format_series
from repro.core.hashing import shard_of
from repro.core.operations import KVOperation
from repro.driver import run_closed_loop

NIC_COUNTS = [1, 2, 4, 10]
OPS_PER_NIC = 1500
CORPUS = 4096
E2E_TOTAL_OPS = 12000
E2E_CORPUS = 512


def _server(nic_count: int, corpus: int):
    server = scenario.build(memory_size=4 << 20, shards=nic_count).server
    keys = [b"key%06d" % i for i in range(corpus)]
    for key in keys:
        server.put_direct(key, b"v" * 5)
    return server, keys


def _balanced_gets(keys, nic_count: int, total: int):
    """A GET stream offering every shard the same load.

    Keys are pooled by owning shard and the stream round-robins across
    pools, so elapsed time measures aggregate capacity rather than the
    binomial imbalance of a finite random key draw.
    """
    pools = [[] for __ in range(nic_count)]
    for key in keys:
        pools[shard_of(key, nic_count)].append(key)
    ops = []
    for i in range(total):
        pool = pools[i % nic_count]
        ops.append(KVOperation.get(pool[(i // nic_count) % len(pool)], seq=i))
    return ops


def _end_to_end_throughput(nic_count: int) -> float:
    server, keys = _server(nic_count, E2E_CORPUS)
    ops = _balanced_gets(keys, nic_count, E2E_TOTAL_OPS)
    stats = server.router(
        batch_size=16, max_outstanding_batches=8
    ).run(ops)
    return stats.throughput_mops


def _direct_stats(nic_count: int) -> dict:
    server, __ = _server(nic_count, CORPUS)
    ops = [
        KVOperation.get(b"key%06d" % (i % CORPUS), seq=i)
        for i in range(OPS_PER_NIC * nic_count)
    ]
    return run_closed_loop(server, ops, concurrency=200)


@pytest.fixture(scope="module")
def e2e_scaling():
    return [_end_to_end_throughput(n) for n in NIC_COUNTS]


@pytest.fixture(scope="module")
def direct_stats():
    return [_direct_stats(n) for n in NIC_COUNTS]


@pytest.fixture(scope="module")
def scaling(direct_stats):
    return [stats["throughput_mops"] for stats in direct_stats]


def test_multinic_end_to_end_scaling(benchmark, e2e_scaling, emit):
    """Full-stack scaling: 4 shards must deliver >= 3.5x one shard."""
    benchmark.pedantic(
        lambda: _end_to_end_throughput(2), rounds=1, iterations=1
    )
    per_nic = [t / n for t, n in zip(e2e_scaling, NIC_COUNTS)]
    emit(
        "multinic_e2e_scaling",
        format_series(
            "Multi-NIC end-to-end scaling: aggregate throughput (Mops)",
            "NICs",
            NIC_COUNTS,
            [("aggregate", e2e_scaling), ("per NIC", per_nic)],
        ),
    )
    by_count = dict(zip(NIC_COUNTS, e2e_scaling))
    assert by_count[4] >= 3.5 * by_count[1]
    # And the sharded stack keeps scaling past 4: 10 NICs beat 8x.
    assert by_count[10] > 8 * by_count[1]


def test_multinic_near_linear_scaling(benchmark, scaling, emit):
    benchmark.pedantic(
        lambda: _direct_stats(2), rounds=1, iterations=1
    )
    per_nic = [t / n for t, n in zip(scaling, NIC_COUNTS)]
    emit(
        "multinic_scaling",
        format_series(
            "Multi-NIC scaling: aggregate throughput (Mops)",
            "NICs",
            NIC_COUNTS,
            [("aggregate", scaling), ("per NIC", per_nic)],
        ),
    )
    # Near-linear: 10 NICs reach at least 8x one NIC.
    assert scaling[-1] > 8 * scaling[0]
    # Per-NIC throughput stays within 20 % of the single-NIC value.
    for value in per_nic:
        assert value > per_nic[0] * 0.8


def test_multinic_sharded_latency_percentiles(benchmark, direct_stats, emit):
    """The sharded closed loop reports latency over the *merged* per-shard
    histograms, so aggregate percentiles are comparable across NIC counts
    (adding shards must not inflate the measured tail)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for stats in direct_stats:
        for field in ("latency_p50_ns", "latency_p95_ns",
                      "latency_p99_ns", "latency_mean_ns"):
            assert stats[field] is not None and stats[field] > 0.0
        assert (stats["latency_p50_ns"] <= stats["latency_p95_ns"]
                <= stats["latency_p99_ns"])
    emit(
        "multinic_latency",
        format_series(
            "Multi-NIC direct submit: aggregate latency (ns)",
            "NICs",
            NIC_COUNTS,
            [
                ("p50", [s["latency_p50_ns"] for s in direct_stats]),
                ("p99", [s["latency_p99_ns"] for s in direct_stats]),
            ],
        ),
    )
    # Sharding spreads a fixed per-shard load: the aggregate p99 stays in
    # the same decade as the single-NIC tail rather than stacking up.
    p99 = [s["latency_p99_ns"] for s in direct_stats]
    assert max(p99) < 10 * min(p99)


def test_multinic_order_of_magnitude_vs_single(benchmark, scaling, emit):
    """The 10-NIC configuration is ~an order of magnitude above one NIC
    (the paper's 1.22 GOps vs 180 Mops)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    ratio = scaling[-1] / scaling[0]
    emit(
        "multinic_ratio",
        format_series(
            "Multi-NIC: 10-NIC to 1-NIC throughput ratio",
            "metric",
            ["ratio"],
            [("value", [ratio])],
        ),
    )
    assert 8.0 < ratio < 12.5
