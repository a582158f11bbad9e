"""Executable versions of docs/MODELING.md's derivations.

Every bottleneck formula in the modeling note is checked against the
simulation it claims to predict, so the documentation cannot silently
drift from the code.
"""

import pytest

from repro import constants
from repro.pcie import DMAEngine, PCIeLinkConfig
from repro.pcie.tlp import effective_op_rate
from repro.sim import Simulator
from repro.sim.stats import mops
from tests.waiting import ignore


def _simulated_dma_rate(payload: int, write: bool, ops: int = 2500) -> float:
    sim = Simulator()
    engine = DMAEngine(sim, PCIeLinkConfig.gen3_x8())
    issue = engine.write if write else engine.read
    for __ in range(ops):  # all at once; nothing waits on one DMA
        issue(payload, -1, ignore)
    sim.run()
    return mops(ops, sim.now) * 1e6  # ops/s


class TestTagBoundFormula:
    def test_little_law_predicts_read_throughput(self):
        """X = tags / (mean latency + serialization), within 10 %."""
        mean_latency = (
            constants.PCIE_DMA_READ_CACHED_NS
            + constants.PCIE_DMA_READ_RANDOM_SPREAD_NS / 2
        )
        serialization = (64 + 26) / (constants.PCIE_GEN3_X8_BANDWIDTH / 1e9)
        request = 26 / (constants.PCIE_GEN3_X8_BANDWIDTH / 1e9)
        predicted = constants.PCIE_DMA_TAGS / (
            (mean_latency + serialization + request) / 1e9
        )
        measured = _simulated_dma_rate(64, write=False)
        assert measured == pytest.approx(predicted, rel=0.10)

    def test_bandwidth_bound_predicts_write_throughput(self):
        """X = raw bandwidth / (payload + TLP overhead), within 10 %."""
        predicted = effective_op_rate(constants.PCIE_GEN3_X8_BANDWIDTH, 64)
        measured = _simulated_dma_rate(64, write=True)
        assert measured == pytest.approx(predicted, rel=0.10)

    def test_large_payloads_are_bandwidth_bound_for_reads_too(self):
        """At 512 B the tag pool stops binding; bandwidth takes over."""
        predicted = effective_op_rate(constants.PCIE_GEN3_X8_BANDWIDTH, 512)
        measured = _simulated_dma_rate(512, write=False)
        assert measured == pytest.approx(predicted, rel=0.15)


class TestClockBoundFormula:
    def test_atomics_reach_most_of_the_clock(self):
        """Forwarded atomics approach f_clock; the residue is pipeline
        fill and the periodic write-back."""
        import struct

        from repro.core.operations import KVOperation
        from repro.core.processor import KVProcessor
        from repro.core.store import KVDirectStore
        from repro.core.vector import FETCH_ADD
        from repro.driver import run_closed_loop

        sim = Simulator()
        store = KVDirectStore.create(memory_size=2 << 20)
        store.put(b"ctr", struct.pack("<q", 0))
        processor = KVProcessor(sim, store)
        ops = [
            KVOperation.update(b"ctr", FETCH_ADD, struct.pack("<q", 1),
                               seq=i)
            for i in range(4000)
        ]
        stats = run_closed_loop(processor, ops, concurrency=250)
        measured = stats["throughput_mops"] * 1e6
        assert measured > 0.8 * constants.KV_CLOCK_HZ
        assert measured <= constants.KV_CLOCK_HZ * 1.01


class TestNetworkFormula:
    def test_unbatched_bound_is_header_dominated(self):
        """50 Mops = 5 GB/s / ~100 B-per-op, reproduced by the client."""
        from repro.client import KVClient
        from repro.core.operations import KVOperation
        from repro.core.processor import KVProcessor
        from repro.core.store import KVDirectStore
        from repro.workloads import KeySpace

        sim = Simulator()
        store = KVDirectStore.create(memory_size=4 << 20)
        keyspace = KeySpace(count=1000, kv_size=13)
        for key, value in keyspace.pairs():
            store.put(key, value)
        store.reset_measurements()
        processor = KVProcessor(sim, store)
        ops = [
            KVOperation.get(keyspace.key(i % 1000), seq=i)
            for i in range(3000)
        ]
        stats = KVClient(
            sim, processor, batch_size=1, max_outstanding_batches=512
        ).run(ops)
        per_op_wire = stats.request_bytes_on_wire / stats.operations
        predicted = constants.NETWORK_BANDWIDTH / per_op_wire
        measured = stats.throughput_mops * 1e6
        assert measured == pytest.approx(predicted, rel=0.15)


class TestDispatchEquation:
    @staticmethod
    def _imbalance(l, hit_rate, target):
        h = hit_rate(l)
        dram_load = l * h
        pcie_load = (1 - l) + l * (1 - h)
        return abs(dram_load / pcie_load - target)

    def test_solver_finds_the_best_balance_longtail(self):
        """The returned l minimizes |DRAM/PCIe load ratio - bandwidth
        ratio| over the grid, for the long-tail hit model."""
        from repro.memory import longtail_hit_rate, optimal_dispatch_ratio

        k, n = 1 / 16, 1e6
        hit = lambda l: longtail_hit_rate(k, l, n)
        target = (
            constants.NIC_DRAM_BANDWIDTH / constants.PCIE_ACHIEVABLE_BANDWIDTH
        )
        l = optimal_dispatch_ratio(
            constants.NIC_DRAM_BANDWIDTH,
            constants.PCIE_ACHIEVABLE_BANDWIDTH,
            hit,
        )
        best_grid = min(
            self._imbalance(i / 200, hit, target) for i in range(1, 200)
        )
        assert self._imbalance(l, hit, target) <= best_grid + 1e-6

    def test_uniform_workload_cannot_balance(self):
        """Under uniform, DRAM load is pinned at k regardless of l - the
        equation has no solution, which is WHY the paper says 'caching
        under uniform workload is not efficient'."""
        from repro.memory import uniform_hit_rate

        k = 1 / 16
        ratios = set()
        for i in range(40, 200):  # l > k so the cache is oversubscribed
            l = i / 200
            h = uniform_hit_rate(k, l)
            ratios.add(round(l * h / ((1 - l) + l * (1 - h)), 6))
        assert len(ratios) == 1  # flat: l*(k/l) = k everywhere
