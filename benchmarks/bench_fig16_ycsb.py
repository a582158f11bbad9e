"""Figure 16: KV-Direct throughput under YCSB, vs KV size.

(a) uniform, (b) long-tail (Zipf 0.99); PUT ratios 0/50/100 %.

Every cell runs as the paper measured it: networked clients batching 32
ops a packet over the 40 GbE link into one NIC, 64 batches in flight
(``scenario.build`` -> ``server.router``, the client and wire the
multi-NIC benchmark and Figures 15 and 17 run through).  So a cell is
bound by whichever of clock, PCIe and link saturates first, and each
panel prints the link utilisation next to its Mops: the port's busier
direction, in bytes, over elapsed time x line rate (the formula of the
e2e ``net-sharded`` workload).

Paper shape: tiny inline KVs run near the clock/PCIe bound; throughput
falls with KV size (hash collisions for inline, network bytes for large);
long-tail is faster than uniform (NIC DRAM caching + OoO merging of hot
keys); higher PUT ratios are slower (two accesses per PUT).
"""

from typing import Tuple

import pytest

import _common
from repro import scenario
from repro.analysis.report import format_series

KV_SIZES = [10, 15, 62, 126]
PUT_RATIOS = [0.0, 0.5, 1.0]
OPS = 4000
CORPUS = 5000
MEMORY = 8 << 20


def _cell(
    kv_size: int, put_ratio: float, distribution: str
) -> Tuple[float, float]:
    """``(Mops, link utilisation)`` of one cell.  With ``--export-metrics``
    its registry, stage profile and snapshot are written too (the profiler
    is attached only then: nothing else reads it)."""
    exporting = _common.EXPORT_METRICS_DIR is not None
    built = scenario.build(
        memory_size=MEMORY,
        corpus=CORPUS,
        kv_size=kv_size,
        put_ratio=put_ratio,
        distribution=distribution,
        profile=exporting,
    )
    stats = built.server.router(
        batch_size=32, max_outstanding_batches=64
    ).run(built.generator.operations(OPS))
    port = built.server.stacks[0].network.counters
    line_rate = built.server.config.network_bandwidth / 1e9  # bytes per ns
    utilisation = max(port["rx_bytes"], port["tx_bytes"]) / (
        stats.elapsed_ns * line_rate
    )
    if exporting:
        name = f"fig16_{distribution}_{kv_size}B_{int(put_ratio * 100)}put"
        _common.export_registry(built.server.register_metrics(), name)
        _common.export_profile(built.processor, name, stats.as_dict())
    return stats.throughput_mops, utilisation


@pytest.fixture(scope="module")
def figure16():
    """``{(distribution, put_ratio): [(Mops, link utilisation), ...]}``,
    one pair per KV size."""
    return {
        (distribution, put_ratio): [
            _cell(size, put_ratio, distribution) for size in KV_SIZES
        ]
        for distribution in ("uniform", "zipf")
        for put_ratio in PUT_RATIOS
    }


def _mops(figure16, distribution, put_ratio):
    return [mops for mops, __ in figure16[(distribution, put_ratio)]]


def _emit_panel(emit, data, distribution, label):
    series = []
    for r in PUT_RATIOS:
        cells = data[(distribution, r)]
        series.append(
            (f"{int(r * 100)}% PUT", [f"{mops:.1f}" for mops, __ in cells])
        )
        series.append(("link", [f"{link:.2f}" for __, link in cells]))
    emit(
        f"fig16{label}_{distribution}",
        format_series(
            f"Figure 16{label}: YCSB throughput (Mops) and 40 GbE link "
            f"utilisation, {distribution}",
            "KV size (B)",
            KV_SIZES,
            series,
        ),
    )


def test_no_cell_is_above_the_line_rate(figure16):
    for cells in figure16.values():
        for __, utilisation in cells:
            assert 0.0 < utilisation <= 1.0


def test_fig16a_uniform(benchmark, figure16, emit):
    benchmark.pedantic(
        lambda: _cell(10, 0.0, "uniform"), rounds=1, iterations=1
    )
    _emit_panel(emit, figure16, "uniform", "a")
    get_series = _mops(figure16, "uniform", 0.0)
    put_series = _mops(figure16, "uniform", 1.0)
    # Small inline KVs land in the 100+ Mops band (paper: ~120 uniform).
    assert get_series[0] > 80.0
    # GETs beat PUTs for small inline KVs (1 vs 2 accesses).
    assert get_series[0] > put_series[0]
    # Throughput declines toward larger, non-inline KVs.
    assert get_series[-1] < get_series[0]


def test_fig16b_longtail(benchmark, figure16, emit):
    benchmark.pedantic(
        lambda: _cell(10, 0.0, "zipf"), rounds=1, iterations=1
    )
    _emit_panel(emit, figure16, "zipf", "b")
    get_series = _mops(figure16, "zipf", 0.0)
    # Long-tail, read-intensive: near the clock bound (paper: 180 Mops).
    assert get_series[0] > 120.0
    # Long-tail >= uniform at every KV size (caching + OoO merging).
    uniform = _mops(figure16, "uniform", 0.0)
    for longtail, flat in zip(get_series, uniform):
        assert longtail >= flat * 0.9
    # Non-inline long-tail GETs are network-bound: caching and OoO merging
    # lift them until the link is what saturates.
    for size in (62, 126):
        __, utilisation = figure16[("zipf", 0.0)][KV_SIZES.index(size)]
        assert utilisation >= 0.8, (size, utilisation)


def test_fig16_inline_threshold_boundary(benchmark, emit):
    """62 B KVs are non-inline: one extra access drops throughput versus
    a 15 B inline KV under the same mix."""

    def pair():
        return (
            _cell(15, 0.5, "uniform")[0],
            _cell(62, 0.5, "uniform")[0],
        )

    inline_tput, offline_tput = benchmark.pedantic(
        pair, rounds=1, iterations=1
    )
    emit(
        "fig16_inline_boundary",
        format_series(
            "Figure 16 detail: inline (15 B) vs non-inline (62 B), "
            "uniform 50 % PUT",
            "KV size (B)",
            [15, 62],
            [("Mops", [inline_tput, offline_tput])],
        ),
    )
    assert inline_tput > offline_tput
