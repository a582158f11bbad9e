"""Timeline sampler: observational transparency and failover visibility.

The :class:`~repro.obs.timeline.TimelineSampler` rides the simulator's
own event loop, so it must be a pure *observer*: attaching it cannot
change a single simulated outcome.  This suite pins that contract - the
paper-reproduction numbers every other benchmark reports must be
byte-for-byte the same with the sampler on - and exercises the one
dynamic the end-of-run aggregates cannot show: the failover window of a
killed cluster primary (throughput dip, epoch bump, recovery), which
the timeline must make visible with zero lost acknowledged writes.
"""

import json

import _common
from repro import scenario
from repro.analysis.report import format_series
from repro.client.router import ClusterRouter
from repro.driver import run_closed_loop
from repro.obs.timeline import TimelineSampler

CORPUS = 512
TOTAL_OPS = 3000
WINDOW_NS = 2000.0


def _seeded_run(timeline=None):
    built = scenario.build(
        seed=7, memory_size=8 << 20, corpus=CORPUS, put_ratio=0.5
    )
    if timeline is not None:
        built.server.attach_timeline(timeline)
    stats = run_closed_loop(
        built.processor, built.operations(TOTAL_OPS), timeline=timeline
    )
    return stats


def _killed_cluster_run(timeline):
    """A 3-node cluster whose first op's primary dies a ninth of the way
    through the run, sampled by ``timeline``."""
    built = scenario.build(memory_size=4 << 20, nodes=3)
    cluster = built.cluster
    ops = _common.cluster_workload(cluster, CORPUS, TOTAL_OPS)
    target = cluster.map.primary(cluster.map.slot_of(ops[0].key))
    cluster.kill_after_accepts(target, max(1, TOTAL_OPS // 9))
    cluster.attach_timeline(timeline)
    timeline.start()
    stats = ClusterRouter(built.sim, cluster).run(ops)
    timeline.finish()
    stats["failovers"] = cluster.counters.get("failovers")
    return stats


def test_timeline_is_observationally_transparent(benchmark, emit):
    """Sim metrics with the sampler attached == without, to the bit."""
    plain = _seeded_run()

    def instrumented():
        return _seeded_run(TimelineSampler(window_ns=WINDOW_NS))

    sampled = benchmark.pedantic(instrumented, rounds=1, iterations=1)
    compared = [
        key for key in sorted(plain)
        if not key.startswith(("wall_clock", "sim_ops_per_wall",
                               "timeline_"))
    ]
    for key in compared:
        assert sampled[key] == plain[key], (
            key, sampled[key], plain[key]
        )
    assert sampled["timeline_windows"] > 0
    assert plain["timeline_windows"] is None
    emit(
        "timeline_transparency",
        format_series(
            "Timeline sampler transparency "
            "(simulated metrics, on == off verified)",
            "metric",
            compared,
            [("on == off", [1.0] * len(compared))],
        ),
    )


def test_timeline_windows_scale_with_duration(benchmark):
    """Halving the window doubles (about) the closed-window count."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    counts = {}
    for window_ns in (WINDOW_NS, WINDOW_NS / 2):
        sampler = TimelineSampler(window_ns=window_ns)
        _seeded_run(sampler)
        counts[window_ns] = sampler.windows
    assert counts[WINDOW_NS / 2] >= 2 * counts[WINDOW_NS] - 2
    # Same run -> same final simulated instant, so the fine sampler's
    # last window closes at the same end_ns as the coarse one's.


def test_timeline_shows_failover_window(benchmark, emit):
    """The kill-node cluster timeline shows dip, epoch bump, recovery."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    sampler = TimelineSampler(window_ns=WINDOW_NS)
    stats = _killed_cluster_run(sampler)
    rows = [json.loads(line) for line in sampler.lines()]
    cluster_rows = [r for r in rows if r["shard"] == "cluster"]
    agg = [r for r in rows if r["shard"] == "all"]
    assert stats["failovers"] == 1
    # Zero lost acked writes: every op completed despite the kill.
    assert stats["completed"] == TOTAL_OPS
    assert stats["failed"] == 0
    # Epoch bump and node loss are visible as timeline series...
    assert cluster_rows[0]["epoch"] == 0
    assert cluster_rows[-1]["epoch"] == 1
    assert min(r["alive_nodes"] for r in cluster_rows) == 2
    # ...and the failover dip recovers: some post-kill window completes
    # ops again at the bumped epoch.
    kill_idx = next(
        i for i, r in enumerate(cluster_rows) if r["epoch_bumps"] > 0
    )
    assert any(r["completed"] > 0 for r in agg[kill_idx + 1:])
    emit(
        "timeline_failover",
        format_series(
            "Cluster failover window (aggregate completed ops per "
            f"{WINDOW_NS:.0f} ns window; kill at window {kill_idx})",
            "window",
            [r["window"] for r in agg],
            [("completed", [float(r["completed"]) for r in agg])],
        ),
    )
