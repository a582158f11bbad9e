"""YCSB-E (short range scans) on the ordered-index sidecar.

The paper's hash store supports no scans; the pluggable-index refactor
adds an ordered index beside the hash table and RANGE/SCAN ops that walk
it.  This bench measures what that costs:

- single-processor YCSB-E throughput (95 % RANGE / 5 % insert) against
  the point-op workloads' regime - scans touch one leaf per ~16 keys
  plus one probe per returned value, so a mean-length-13 RANGE should
  cost roughly an order of magnitude more memory accesses than the ~1
  of a GET;
- multi-NIC scaling at 1 vs 4 shards, where every scan fans out to all
  shards (hash sharding scatters the key range) and partial results are
  k-way merged - aggregate throughput stays roughly flat, because the
  fan-out replicates nearly the full scan work on every shard (the
  anti-scaling cost of ordered ops over hash sharding).

The committed baseline (``benchmarks/baselines/BENCH_ycsb-e.json``) is
produced by ``repro bench run --name ycsb-e --workload ycsb-e --seed 7
--ops 2000`` and gated by ``repro bench diff`` at 15 % in CI.
"""

import pytest

from repro.analysis.report import format_table
from repro.core.config import KVDirectConfig
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.driver import run_closed_loop
from repro.multi import MultiNICServer
from repro.obs import StageProfiler
from repro.sim import Simulator
from repro.workloads import KeySpace, StandardYCSB

OPS = 3000
CORPUS = 2000
SHARD_COUNTS = (1, 2, 4)


def _ordered_run() -> dict:
    """One single-processor YCSB-E run; returns stats + access costs."""
    sim = Simulator()
    store = KVDirectStore.create(memory_size=8 << 20, ordered_index=True)
    keyspace = KeySpace(count=CORPUS, kv_size=13)
    generator = StandardYCSB(keyspace, "E", seed=1)
    for op in generator.load_phase():
        store.execute(op)
    store.reset_measurements()
    profiler = StageProfiler()
    processor = KVProcessor(sim, store, profiler=profiler)
    stats = run_closed_loop(
        processor, generator.operations(OPS), concurrency=250
    )
    stats["accesses_per_range"] = profiler.accesses_per_op("range")
    stats["accesses_per_put"] = profiler.accesses_per_op("put")
    return stats


def _point_baseline() -> dict:
    """Read-only point lookups over the same corpus (the ~1/GET bar)."""
    sim = Simulator()
    store = KVDirectStore.create(memory_size=8 << 20)
    keyspace = KeySpace(count=CORPUS, kv_size=13)
    generator = StandardYCSB(keyspace, "C", seed=1)
    for op in generator.load_phase():
        store.execute(op)
    store.reset_measurements()
    profiler = StageProfiler()
    processor = KVProcessor(sim, store, profiler=profiler)
    stats = run_closed_loop(
        processor, generator.operations(OPS), concurrency=250
    )
    stats["accesses_per_get"] = profiler.accesses_per_op("get")
    return stats


def _sharded_run(nics: int) -> dict:
    """YCSB-E across N shards, scans fanned out and merged."""
    sim = Simulator()
    server = MultiNICServer(
        sim,
        nic_count=nics,
        config=KVDirectConfig(memory_size=8 << 20, ordered_index=True),
    )
    keyspace = KeySpace(count=CORPUS, kv_size=13)
    for key, value in keyspace.pairs():
        server.put_direct(key, value)
    generator = StandardYCSB(keyspace, "E", seed=1)
    scan_results: dict = {}
    stats = run_closed_loop(
        server,
        generator.operations(OPS),
        concurrency=128,
        scan_results=scan_results,
    )
    stats["merged_scans"] = float(len(scan_results))
    return stats


@pytest.fixture(scope="module")
def results():
    return {
        "E": _ordered_run(),
        "C": _point_baseline(),
        "shards": {n: _sharded_run(n) for n in SHARD_COUNTS},
    }


def test_ycsb_e_scan_cost(benchmark, results, emit):
    """RANGE costs an order of magnitude more accesses than a GET - the
    per-leaf reads plus the per-value probes, as modeled - while the
    workload still sustains a usable throughput."""
    benchmark.pedantic(lambda: _ordered_run(), rounds=1, iterations=1)
    ycsb_e = results["E"]
    baseline = results["C"]
    emit(
        "ycsb_e",
        format_table(
            "YCSB-E (95% RANGE / 5% insert) vs point-op baseline",
            ["metric", "value"],
            [
                ["E throughput (Mops)", ycsb_e["throughput_mops"]],
                ["C throughput (Mops)", baseline["throughput_mops"]],
                ["accesses per RANGE", ycsb_e["accesses_per_range"]],
                ["accesses per GET (C)", baseline["accesses_per_get"]],
                ["accesses per PUT (E)", ycsb_e["accesses_per_put"]],
            ],
        ),
    )
    # Scans really walk the ordered structure: far costlier than a GET,
    # but bounded by max-scan-length leaf reads + probes.
    assert ycsb_e["accesses_per_range"] > 4 * baseline["accesses_per_get"]
    assert ycsb_e["accesses_per_range"] < 40.0
    # Ordered maintenance puts a floor under insert cost.
    assert ycsb_e["accesses_per_put"] >= 3.0
    assert ycsb_e["throughput_mops"] > 0.5


def test_ycsb_e_sharded_scaling(benchmark, results, emit):
    """Scan fan-out scales sub-linearly (every shard answers every scan)
    but aggregate throughput must not regress when shards are added."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    shards = results["shards"]
    emit(
        "ycsb_e_scaling",
        format_table(
            "YCSB-E multi-NIC scaling (scans fanned out + merged)",
            ["NICs", "aggregate Mops", "merged scans"],
            [
                [
                    n,
                    shards[n]["throughput_mops"],
                    int(shards[n]["merged_scans"]),
                ]
                for n in SHARD_COUNTS
            ],
        ),
    )
    # Every scan that completed on all shards produced a merged result.
    for n in SHARD_COUNTS:
        assert shards[n]["merged_scans"] > 0, n
    # Each shard answers every scan down to the full count (its slice of
    # the key range is interleaved, not contiguous), so aggregate
    # throughput stays roughly flat: adding shards must not collapse it,
    # and cannot scale it linearly either.
    assert (
        shards[4]["throughput_mops"] >= shards[1]["throughput_mops"] * 0.75
    )
    assert shards[4]["throughput_mops"] < shards[1]["throughput_mops"] * 2.0
