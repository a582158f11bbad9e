"""Figure 17: latency of KV-Direct at peak YCSB throughput.

(a) with client-side batching, (b) without.  Paper: tail latency 3-9 us
without batching; batching adds less than 1 us; PUT slightly above GET
(extra memory access); skewed below uniform (NIC DRAM cache hits).
"""

import pytest

from repro import scenario
from repro.analysis.report import format_series

KV_SIZES = [10, 62]
OPS = 1500
CORPUS = 4000


def _latency(kv_size, put_ratio, distribution, batch_size):
    built = scenario.build(
        memory_size=8 << 20,
        corpus=CORPUS,
        kv_size=kv_size,
        put_ratio=put_ratio,
        distribution=distribution,
    )
    client = built.server.stacks[0].client(
        batch_size=batch_size,
        max_outstanding_batches=max(2, 128 // batch_size),
    )
    stats = client.run(built.operations(OPS))
    return stats.latency_p95_ns / 1e3  # us


@pytest.fixture(scope="module")
def figure17():
    data = {}
    for batch, label in ((32, "batched"), (1, "nonbatched")):
        for distribution in ("uniform", "zipf"):
            for op, put_ratio in (("GET", 0.0), ("PUT", 1.0)):
                data[(label, distribution, op)] = [
                    _latency(size, put_ratio, distribution, batch)
                    for size in KV_SIZES
                ]
    return data


def _emit_panel(emit, data, label, title):
    emit(
        f"fig17_{label}",
        format_series(
            title,
            "KV size (B)",
            KV_SIZES,
            [
                ("GET uniform", data[(label, "uniform", "GET")]),
                ("GET skewed", data[(label, "zipf", "GET")]),
                ("PUT uniform", data[(label, "uniform", "PUT")]),
                ("PUT skewed", data[(label, "zipf", "PUT")]),
            ],
        ),
    )


def test_fig17a_batched_latency(benchmark, figure17, emit):
    benchmark.pedantic(
        lambda: _latency(10, 0.0, "uniform", 32), rounds=1, iterations=1
    )
    _emit_panel(
        emit, figure17, "batched",
        "Figure 17a: p95 latency (us) with batching, at load",
    )
    for distribution in ("uniform", "zipf"):
        for op in ("GET", "PUT"):
            for latency in figure17[("batched", distribution, op)]:
                assert latency < 15.0  # single-digit-us regime


def test_fig17b_nonbatched_latency(benchmark, figure17, emit):
    benchmark.pedantic(
        lambda: _latency(10, 0.0, "uniform", 1), rounds=1, iterations=1
    )
    _emit_panel(
        emit, figure17, "nonbatched",
        "Figure 17b: p95 latency (us) without batching",
    )
    for distribution in ("uniform", "zipf"):
        for op in ("GET", "PUT"):
            values = figure17[("nonbatched", distribution, op)]
            # Paper: 3-9 us tail depending on size/op/distribution.
            assert all(1.0 < v < 12.0 for v in values)
            # Larger KVs take longer (network + PCIe transfer).
            assert values[-1] >= values[0] * 0.9


def test_fig17_shape_relations(figure17, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    # Batching adds only a small latency premium (paper: < 1 us).
    for distribution in ("uniform", "zipf"):
        for op in ("GET", "PUT"):
            batched = figure17[("batched", distribution, op)]
            plain = figure17[("nonbatched", distribution, op)]
            for b, p in zip(batched, plain):
                assert b < p + 4.0
    # PUT latency >= GET latency for uniform small KVs (extra access).
    assert (
        figure17[("nonbatched", "uniform", "PUT")][0]
        >= figure17[("nonbatched", "uniform", "GET")][0] * 0.95
    )
