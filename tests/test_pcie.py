"""Unit tests for the PCIe substrate: TLP arithmetic and the DMA engine."""

import pytest

from repro import constants
from repro.pcie import (
    DMAEngine,
    MultiLinkDMA,
    PCIeLinkConfig,
    effective_bandwidth,
    read_request_bytes,
    read_response_bytes,
    tlp_count,
    write_request_bytes,
)
from repro.pcie.tlp import effective_op_rate
from repro.sim import Simulator, UniformLatency
from repro.sim.stats import mops
from tests.waiting import all_of, wait


class TestTLPArithmetic:
    def test_tlp_count(self):
        assert tlp_count(0) == 1
        assert tlp_count(64) == 1
        assert tlp_count(256) == 1
        assert tlp_count(257) == 2
        assert tlp_count(1024) == 4

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            tlp_count(-1)

    def test_read_request_is_header_only(self):
        assert read_request_bytes(64) == constants.PCIE_TLP_OVERHEAD

    def test_read_response_includes_payload(self):
        assert read_response_bytes(64) == 64 + constants.PCIE_TLP_OVERHEAD

    def test_write_request_includes_payload(self):
        assert write_request_bytes(128) == 128 + constants.PCIE_TLP_OVERHEAD

    def test_paper_effective_bandwidth_figure(self):
        """Section 2.4: 64 B granularity gives 5.6 GB/s on a Gen3 x8."""
        bw = effective_bandwidth(constants.PCIE_GEN3_X8_BANDWIDTH, 64)
        assert bw == pytest.approx(5.6e9, rel=0.01)

    def test_paper_op_rate_figure(self):
        """Section 2.4: ... or 87 Mops."""
        rate = effective_op_rate(constants.PCIE_GEN3_X8_BANDWIDTH, 64)
        assert rate == pytest.approx(87e6, rel=0.01)

    def test_zero_payload_rejected(self):
        with pytest.raises(ValueError):
            effective_bandwidth(1e9, 0)


class TestLinkConfig:
    def test_defaults_match_paper(self):
        assert PCIeLinkConfig().tags == 64
        engine = DMAEngine(Simulator())
        assert engine.tx.bytes_per_ns == constants.PCIE_GEN3_X8_BANDWIDTH / 1e9
        assert engine.posted_credits.capacity == 88
        assert engine.nonposted_credits.capacity == 84

    def test_invalid_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            PCIeLinkConfig(tags=0)


def _engine(sim, latency_ns=1000.0, tags=None):
    config = PCIeLinkConfig(read_latency=UniformLatency(latency_ns, 0.0))
    if tags is not None:
        config = PCIeLinkConfig(
            read_latency=UniformLatency(latency_ns, 0.0), tags=tags
        )
    return DMAEngine(sim, config)


class TestDMARead:
    def test_single_read_latency(self):
        sim = Simulator()
        engine = _engine(sim, latency_ns=1000.0)
        done = wait(sim, engine.read, 64, -1)
        sim.run(done)
        # request 26 B + 1000 ns + response 90 B at 7.87 B/ns
        expected = 26 / 7.87 + 1000.0 + 90 / 7.87
        assert sim.now == pytest.approx(expected, rel=1e-6)
        assert engine.reads == 1

    def test_tag_limit_bounds_concurrency(self):
        sim = Simulator()
        engine = _engine(sim, latency_ns=1000.0, tags=4)
        procs = [wait(sim, engine.read, 64, -1) for __ in range(16)]
        sim.run(all_of(sim, procs))
        assert engine.tags.peak_in_use == 4
        # 16 reads with 4-way concurrency need ~4 serial rounds.
        assert sim.now >= 4 * 1000.0

    def test_read_throughput_is_tag_bound_at_64b(self):
        """Reproduces Figure 3a: ~60 Mops for 64 B DMA reads."""
        sim = Simulator()
        engine = DMAEngine(sim, PCIeLinkConfig.gen3_x8())

        completed = []

        def issuer():
            inflight = [
                wait(sim, engine.read, 64, -1) for __ in range(2000)
            ]
            yield all_of(sim, inflight)
            completed.append(len(inflight))

        sim.run(sim.process(issuer()))
        rate = mops(2000, sim.now)
        assert 50.0 < rate < 70.0

    def test_read_latency_histogram_populated(self):
        sim = Simulator()
        engine = _engine(sim)
        sim.run(all_of(sim,
            [wait(sim, engine.read, 64, -1) for __ in range(10)]
        ))
        assert engine.read_latency_hist.count == 10
        assert engine.read_latency_hist.min() >= 1000.0


class TestDMAWrite:
    def test_single_write_is_serialization_only(self):
        sim = Simulator()
        engine = _engine(sim)
        done = wait(sim, engine.write, 64, -1)
        sim.run(done)
        assert sim.now == pytest.approx(90 / 7.87, rel=1e-6)
        assert engine.writes == 1

    def test_write_throughput_is_bandwidth_bound(self):
        """Figure 3a: 64 B writes reach ~80 Mops (bandwidth-bound)."""
        sim = Simulator()
        engine = DMAEngine(sim, PCIeLinkConfig.gen3_x8())

        def issuer():
            yield all_of(sim,
                [wait(sim, engine.write, 64, -1) for __ in range(2000)]
            )

        sim.run(sim.process(issuer()))
        rate = mops(2000, sim.now)
        assert 75.0 < rate < 95.0

    def test_posted_credits_recycle(self):
        sim = Simulator()
        engine = _engine(sim)
        sim.run(all_of(sim,
            [wait(sim, engine.write, 64, -1) for __ in range(500)]
        ))
        sim.run()  # drain the credit returns
        assert engine.posted_credits.available == engine.posted_credits.capacity


class TestMultiLink:
    def test_round_robin_balances(self):
        sim = Simulator()
        dma = MultiLinkDMA(sim, link_count=2)
        sim.run(all_of(sim,
            [wait(sim, dma.read, 64, -1) for __ in range(100)]
        ))
        assert dma.links[0].reads == 50
        assert dma.links[1].reads == 50
        assert dma.reads == 100

    def test_two_links_double_throughput(self):
        sim1 = Simulator()
        single = MultiLinkDMA(sim1, link_count=1)
        sim1.run(all_of(sim1,
            [wait(sim1, single.read, 64, -1) for __ in range(1000)]
        ))
        single_time = sim1.now

        sim2 = Simulator()
        double = MultiLinkDMA(sim2, link_count=2)
        sim2.run(all_of(sim2,
            [wait(sim2, double.read, 64, -1) for __ in range(1000)]
        ))
        double_time = sim2.now

        assert double_time == pytest.approx(single_time / 2, rel=0.1)

    def test_invalid_link_count(self):
        with pytest.raises(ValueError):
            MultiLinkDMA(Simulator(), link_count=0)

    def test_snapshot_merges(self):
        sim = Simulator()
        dma = MultiLinkDMA(sim, link_count=2)
        sim.run(all_of(sim,
            [wait(sim, dma.read, 64, -1), wait(sim, dma.write, 64, -1)]
        ))
        sim.run()
        snap = dma.snapshot()
        assert snap["dma_reads"] == 1
        assert snap["dma_writes"] == 1


class TestMultiTLPTransfers:
    """Payloads above the 256 B max TLP split into several packets."""

    def test_large_read_wire_bytes(self):
        sim = Simulator()
        engine = _engine(sim, latency_ns=1000.0)
        sim.run(wait(sim, engine.read, 1024, -1))
        # 4 TLPs of header upstream; 1024 B + 4 headers downstream.
        assert engine.tx.bytes_transferred == 4 * 26
        assert engine.rx.bytes_transferred == 1024 + 4 * 26

    def test_large_write_wire_bytes(self):
        sim = Simulator()
        engine = _engine(sim)
        sim.run(wait(sim, engine.write, 512, -1))
        assert engine.tx.bytes_transferred == 512 + 2 * 26

    def test_zero_length_read(self):
        sim = Simulator()
        engine = _engine(sim, latency_ns=100.0)
        sim.run(wait(sim, engine.read, 0, -1))
        assert engine.reads == 1
        assert engine.tx.bytes_transferred == 26
