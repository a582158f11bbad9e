"""Standard YCSB core workloads A/B/C/D/F on KV-Direct.

Extends the paper's GET/PUT-mix evaluation (Figure 16) to the named YCSB
presets.  Expected shape: C (read-only) fastest, A (update-heavy) slowest
of the Zipf trio, F close to A because KV-Direct's NIC-side atomics make
read-modify-write cost no more than a write (the §3.2 claim - a client-
side RMW would pay two round trips).
"""

import pytest

from repro.analysis.report import format_table
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.driver import run_closed_loop
from repro.sim import Simulator
from repro.workloads import KeySpace, StandardYCSB

OPS = 4000
CORPUS = 4000


def _run(workload: str) -> dict:
    sim = Simulator()
    store = KVDirectStore.create(memory_size=8 << 20)
    keyspace = KeySpace(count=CORPUS, kv_size=13)
    generator = StandardYCSB(keyspace, workload, seed=1)
    for op in generator.load_phase():
        store.execute(op)
    store.reset_measurements()
    processor = KVProcessor(sim, store)
    return run_closed_loop(
        processor, generator.operations(OPS), concurrency=250
    )


@pytest.fixture(scope="module")
def results():
    return {w: _run(w) for w in ("A", "B", "C", "D", "F")}


def test_ycsb_standard_suite(benchmark, results, emit):
    benchmark.pedantic(lambda: _run("C"), rounds=1, iterations=1)
    emit(
        "ycsb_standard",
        format_table(
            "Standard YCSB core workloads on KV-Direct (13 B KVs, Zipf)",
            ["workload", "Mops", "p99 latency (us)"],
            [
                [
                    w,
                    results[w]["throughput_mops"],
                    results[w]["latency_p99_ns"] / 1e3,
                ]
                for w in ("A", "B", "C", "D", "F")
            ],
        ),
    )
    tput = {w: results[w]["throughput_mops"] for w in results}
    # Read-only C is at least as fast as update-heavy A.
    assert tput["C"] >= tput["A"] * 0.95
    # Everything runs in the >50 Mops regime (no workload collapses).
    for w, value in tput.items():
        assert value > 50.0, w


def test_ycsb_f_rmw_costs_like_a_write(benchmark, results, emit):
    """NIC-side atomics make YCSB-F no slower than YCSB-A: RMW is one
    operation, not a read + a write round trip."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert (
        results["F"]["throughput_mops"]
        > results["A"]["throughput_mops"] * 0.8
    )
