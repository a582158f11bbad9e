"""Determinism and stability of the simulation.

A cycle-level simulator is only useful if runs are exactly reproducible
(same seed -> same numbers, bit for bit) and results are stable across
seeds (no knife-edge artifacts).
"""

import pytest

from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.driver import run_closed_loop
from repro.sim import Simulator
from repro.workloads import KeySpace, WorkloadSpec, YCSBGenerator


def _run(seed: int, workload_seed: int = 0):
    sim = Simulator()
    store = KVDirectStore.create(memory_size=4 << 20, seed=seed)
    keyspace = KeySpace(count=1500, kv_size=13, seed=workload_seed)
    for key, value in keyspace.pairs():
        store.put(key, value)
    store.reset_measurements()
    processor = KVProcessor(sim, store)
    generator = YCSBGenerator(
        keyspace,
        WorkloadSpec(put_ratio=0.5, distribution="zipf",
                     seed=workload_seed),
    )
    stats = run_closed_loop(
        processor, generator.operations(2000), concurrency=128
    )
    return stats


def _simulated(stats: dict) -> dict:
    """Strip the wall-clock fields: the only legitimately nondeterministic
    measurements in a closed-loop run (they time the host interpreter,
    not the simulation)."""
    return {
        k: v for k, v in stats.items()
        if k not in ("wall_clock_s", "sim_ops_per_wall_s")
    }


class TestExactReproducibility:
    def test_identical_runs_bit_for_bit(self):
        a = _run(seed=0)
        b = _run(seed=0)
        # every simulated stat, including simulated nanoseconds
        assert _simulated(a) == _simulated(b)
        assert a["wall_clock_s"] > 0
        assert a["sim_ops_per_wall_s"] > 0

    def test_latency_histograms_identical(self):
        sim_stats = [_run(seed=3) for __ in range(2)]
        assert (
            sim_stats[0]["latency_p99_ns"] == sim_stats[1]["latency_p99_ns"]
        )


class TestSeedStability:
    def test_throughput_stable_across_hardware_seeds(self):
        """PCIe latency draws differ by seed; throughput must not."""
        throughputs = [
            _run(seed=s)["throughput_mops"] for s in (0, 1, 2)
        ]
        spread = max(throughputs) - min(throughputs)
        assert spread < 0.1 * max(throughputs)

    def test_throughput_stable_across_workload_seeds(self):
        throughputs = [
            _run(seed=0, workload_seed=s)["throughput_mops"]
            for s in (0, 7, 42)
        ]
        spread = max(throughputs) - min(throughputs)
        assert spread < 0.15 * max(throughputs)


class TestFunctionalDeterminism:
    def test_store_state_independent_of_timing_seed(self):
        """The hardware seed changes timing only, never contents."""

        def contents(seed):
            store = KVDirectStore.create(memory_size=1 << 20, seed=seed)
            for i in range(500):
                store.put(b"k%04d" % i, b"v%04d" % i)
            for i in range(0, 500, 3):
                store.delete(b"k%04d" % i)
            return dict(store.items())

        assert contents(0) == contents(99)
