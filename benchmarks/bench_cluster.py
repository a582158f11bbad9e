"""Fault-tolerant cluster: replication overhead and failover bounds.

The cluster layer replicates every acknowledged write from a slot's
primary to its backup over an asynchronous, FIFO channel and fails over
by draining that channel before promoting the backup.  Two costs worth
tracking as the implementation evolves:

- **replication overhead** - a replicated 3-node cluster routed through
  the epoch-aware :class:`~repro.client.router.ClusterRouter` vs. a
  single node behind the same router (no backup, replication skipped).
  Replication is off the write path (records are applied after the ack),
  so client-visible throughput must stay close,
- **failover bounds** - when a primary is killed mid-run, every
  operation still completes (NACKed ops are retried against the promoted
  backup) and the failover itself - quiesce, promote, re-replicate -
  finishes in bounded simulated time.
"""

import pytest

import _common
from repro import scenario
from repro.analysis.report import format_series
from repro.client.router import ClusterRouter

CORPUS = 256
TOTAL_OPS = 3000
NODE_COUNTS = [1, 2, 3]


def _run(nodes: int, kill: bool = False) -> dict:
    built = scenario.build(memory_size=4 << 20, nodes=nodes)
    cluster = built.cluster
    ops = _common.cluster_workload(cluster, CORPUS, TOTAL_OPS)
    if kill:
        target = cluster.map.primary(cluster.map.slot_of(ops[0].key))
        cluster.kill_after_accepts(target, max(1, TOTAL_OPS // (3 * nodes)))
    router = ClusterRouter(built.sim, cluster)
    stats = router.run(ops)
    stats["divergences"] = cluster.replication_divergences()
    stats["failovers"] = cluster.counters.get("failovers")
    stats["failover_times_ns"] = cluster.failover_time_ns.samples()
    stats["robustness"] = router.robustness_snapshot()
    return stats


@pytest.fixture(scope="module")
def scaling_stats():
    return [_run(n) for n in NODE_COUNTS]


@pytest.fixture(scope="module")
def failover_stats():
    return _run(3, kill=True)


def test_cluster_replication_overhead(benchmark, scaling_stats, emit):
    """Async replication stays off the client-visible write path."""
    benchmark.pedantic(lambda: _run(2), rounds=1, iterations=1)
    throughput = [s["throughput_mops"] for s in scaling_stats]
    emit(
        "cluster_replication_overhead",
        format_series(
            "Cluster throughput vs. node count (Mops, fixed offered load)",
            "nodes",
            NODE_COUNTS,
            [("throughput", throughput)],
        ),
    )
    for stats in scaling_stats:
        assert stats["completed"] == TOTAL_OPS
        assert not stats["divergences"]
    # The replicated clusters route through the identical client path;
    # replication itself is asynchronous, so adding a backup must not
    # halve client throughput.
    assert throughput[1] > 0.5 * throughput[0]
    assert throughput[2] > 0.5 * throughput[0]


def test_cluster_failover_bounds(benchmark, failover_stats, emit):
    """A mid-run primary kill completes every op and fails over fast."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    stats = failover_stats
    times_us = [t / 1e3 for t in stats["failover_times_ns"]]
    emit(
        "cluster_failover",
        format_series(
            "Cluster failover: quiesce + promote + re-replicate (us)",
            "failover",
            list(range(1, len(times_us) + 1)),
            [("time", times_us)],
        ),
    )
    assert stats["failovers"] == 1
    # Zero lost acknowledged writes: every op eventually completed
    # against the promoted backup, none gave up.
    assert stats["completed"] == TOTAL_OPS
    assert stats["failed"] == 0
    assert stats["robustness"]["retry_give_ups"] == 0
    assert stats["robustness"]["node_down_retries"] > 0
    assert not stats["divergences"]
    # Bounded failover: well under a millisecond of simulated time.
    assert times_us and max(times_us) < 1000.0


def test_cluster_epoch_advances_once_per_failover(benchmark, failover_stats):
    """One kill produces exactly one epoch bump, visible to the router."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert failover_stats["epoch"] == 1.0
