"""Figure 15: efficiency of network batching.

X-axis is the *batched payload size* - how many (small) KV operations are
packed per RDMA packet.  (a) Throughput rises up to ~4x as the 88 B packet
overhead amortizes; (b) latency grows by well under a microsecond at
matched load.

The total in-flight operation budget is held constant across batch sizes
so the latency comparison isolates the batching delay, not queueing.
"""

import pytest

from repro import scenario
from repro.analysis.report import format_series
from repro.core.operations import KVOperation

KV_SIZE = 13
BATCH_OPS = [1, 4, 16, 32, 64]
#: In-flight ops while measuring *throughput*: enough to saturate the
#: network for every batch size.
SATURATING_INFLIGHT = 2048
#: In-flight ops while measuring *latency*: moderate load so the numbers
#: isolate the batching delay rather than queueing.
MODERATE_INFLIGHT = 64
OPS = 6000
CORPUS = 2000


def _run(batch_ops: int, inflight_ops: int, ops: int = OPS, **overrides):
    """GETs cycling through the corpus, ``batch_ops`` to a packet;
    ``overrides`` are further config fields (the link's bandwidth)."""
    built = scenario.build(
        memory_size=8 << 20, corpus=CORPUS, kv_size=KV_SIZE, **overrides
    )
    stream = [
        KVOperation.get(built.keyspace.key(i % CORPUS), seq=i)
        for i in range(ops)
    ]
    client = built.server.stacks[0].client(
        batch_size=batch_ops,
        max_outstanding_batches=max(1, inflight_ops // batch_ops),
    )
    return client.run(stream)


@pytest.fixture(scope="module")
def figure15():
    """Throughput runs: saturating load."""
    return [_run(b, SATURATING_INFLIGHT) for b in BATCH_OPS]


@pytest.fixture(scope="module")
def figure15_latency():
    """Latency runs: moderate load."""
    return [_run(b, MODERATE_INFLIGHT, ops=1600) for b in BATCH_OPS]


def _batched_bytes(stats, batch_ops):
    return stats.request_bytes_on_wire / (stats.operations / batch_ops) - 88


def test_fig15a_throughput(benchmark, figure15, emit):
    benchmark.pedantic(lambda: _run(16, 64, ops=600), rounds=1, iterations=1)
    payloads = [
        round(_batched_bytes(s, b)) for s, b in zip(figure15, BATCH_OPS)
    ]
    emit(
        "fig15a_batching_throughput",
        format_series(
            "Figure 15a: throughput vs batched KV payload (13 B KVs)",
            "batched bytes",
            payloads,
            [
                ("Mops", [s.throughput_mops for s in figure15]),
                ("ops/batch", BATCH_OPS),
            ],
        ),
    )
    gain = figure15[-1].throughput_mops / figure15[0].throughput_mops
    # Paper: network batching increases throughput by up to 4x.
    assert gain > 3.0
    # Monotone non-decreasing in batch size (within noise).
    tputs = [s.throughput_mops for s in figure15]
    for a, b in zip(tputs, tputs[1:]):
        assert b > a * 0.9


def test_fig15b_latency(benchmark, figure15_latency, emit):
    figure15 = figure15_latency
    benchmark.pedantic(lambda: _run(1, 64, ops=600), rounds=1, iterations=1)
    emit(
        "fig15b_batching_latency",
        format_series(
            "Figure 15b: latency vs ops per batch (13 B KVs, constant "
            "in-flight budget)",
            "ops/batch",
            BATCH_OPS,
            [
                ("p50 (us)", [s.latency_p50_ns / 1e3 for s in figure15]),
                ("p95 (us)", [s.latency_p95_ns / 1e3 for s in figure15]),
            ],
        ),
    )
    # Paper: batching keeps networking latency below 3.5 us and adds
    # less than ~1 us over non-batched operation.
    unbatched_p95 = figure15[0].latency_p95_ns
    for stats in figure15:
        assert stats.latency_p95_ns < 10_000.0
        assert stats.latency_p95_ns < unbatched_p95 + 2_500.0


def test_fig15_wire_overhead_accounting(benchmark, figure15, emit):
    """Batched runs move far fewer wire bytes per op."""
    benchmark.pedantic(
        lambda: figure15[0].request_bytes_on_wire, rounds=1, iterations=1
    )
    per_op = [
        s.request_bytes_on_wire / s.operations for s in figure15
    ]
    emit(
        "fig15_wire_bytes",
        format_series(
            "Figure 15 detail: request wire bytes per op (13 B KVs)",
            "ops/batch",
            BATCH_OPS,
            [("bytes/op", per_op)],
        ),
    )
    assert per_op[0] > 88  # a full header per op when unbatched
    assert per_op[-1] < per_op[0] / 4


def test_fig15_future_100gbe_reduces_batching_need(benchmark, emit):
    """Section 4, looking forward: 'batching would be unnecessary if
    higher-bandwidth network is available.'  At 100 GbE the unbatched
    configuration recovers most of the batched throughput."""

    def sweep():
        return [
            _run(
                batch_ops, SATURATING_INFLIGHT, ops=4000,
                network_bandwidth=bandwidth,
            ).throughput_mops
            for bandwidth, batch_ops in ((5e9, 1), (5e9, 32), (12.5e9, 1))
        ]

    f_un, f_b, h_un = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "fig15_future_100gbe",
        format_series(
            "Figure 15 extension: 100 GbE removes the batching need",
            "configuration",
            ["40GbE unbatched", "40GbE batched", "100GbE unbatched"],
            [("Mops", [f_un, f_b, h_un])],
        ),
    )
    # 100 GbE unbatched beats 40 GbE unbatched by >2x ...
    assert h_un > 2 * f_un
    # ... and recovers a large share of what batching bought at 40 GbE.
    assert h_un > 0.6 * f_b
