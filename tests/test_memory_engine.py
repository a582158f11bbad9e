"""Unit tests for the load dispatcher and the unified memory access engine."""

import pytest

from repro.constants import DEFAULT_LOAD_DISPATCH_RATIO
from repro.dram.cache import DramCache
from repro.dram.nic import NICDram
from repro.errors import ConfigurationError
from repro.memory import (
    LoadDispatcher,
    MemoryAccessEngine,
    longtail_hit_rate,
    optimal_dispatch_ratio,
    uniform_hit_rate,
)
from repro.obs.tracer import Tracer
from repro.pcie import MultiLinkDMA
from repro.sim import Simulator
from tests.ref_resident import address_hash, is_cacheable
from tests.waiting import wait


class TestAddressHash:
    def test_uniformity(self):
        """The multiplicative hash spreads lines evenly across [0, 1)."""
        buckets = [0] * 10
        n = 20000
        for line in range(n):
            buckets[int(address_hash(line) * 10)] += 1
        for count in buckets:
            assert abs(count - n / 10) < n / 10 * 0.1

    def test_deterministic(self):
        assert address_hash(12345) == address_hash(12345)

    def test_range(self):
        for line in (0, 1, 2**20, 2**31):
            assert 0.0 <= address_hash(line) < 1.0


class TestLoadDispatcher:
    def test_ratio_zero_nothing_cacheable(self):
        dispatcher = LoadDispatcher(0.0)
        assert not any(is_cacheable(dispatcher, i * 64) for i in range(100))

    def test_ratio_one_everything_cacheable(self):
        dispatcher = LoadDispatcher(1.0)
        assert all(is_cacheable(dispatcher, i * 64) for i in range(100))

    def test_fraction_matches_ratio(self):
        dispatcher = LoadDispatcher(0.5)
        n = 10000
        cacheable = sum(
            is_cacheable(dispatcher, i * 64) for i in range(n)
        )
        assert abs(cacheable / n - 0.5) < 0.03

    def test_same_line_same_answer(self):
        dispatcher = LoadDispatcher(0.5)
        assert is_cacheable(dispatcher, 128) == is_cacheable(dispatcher, 129)

    def test_invalid_ratio(self):
        with pytest.raises(ConfigurationError):
            LoadDispatcher(1.5)
        with pytest.raises(ConfigurationError):
            LoadDispatcher(-0.1)


class TestHitRateModels:
    def test_uniform_hit_rate(self):
        # k = NIC/host = 1/16; with l = 0.5, h = 0.125
        assert uniform_hit_rate(1 / 16, 0.5) == pytest.approx(0.125)

    def test_uniform_clipped_at_one(self):
        assert uniform_hit_rate(0.5, 0.25) == 1.0

    def test_longtail_paper_example(self):
        """Section 3.3.4: ~0.7 hit rate with 1M cache in 1G corpus."""
        # k*n = 1e6 cache entries, l*n = 1e9 corpus entries
        h = longtail_hit_rate(k=1e-3, l=1.0, n=1e9)
        assert h == pytest.approx(0.667, abs=0.05)

    def test_longtail_higher_than_uniform(self):
        k, l, n = 1 / 16, 0.5, 1e6
        assert longtail_hit_rate(k, l, n) > uniform_hit_rate(k, l)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            uniform_hit_rate(0, 0.5)
        with pytest.raises(ValueError):
            longtail_hit_rate(-1, 0.5, 100)


class TestOptimalDispatchRatio:
    def test_balances_loads(self):
        # DRAM as fast as PCIe, hit rate 1 -> l should be ~0.5
        l = optimal_dispatch_ratio(1.0, 1.0, lambda l: 1.0)
        assert l == pytest.approx(0.5, abs=0.01)

    def test_faster_dram_gets_more(self):
        l_fast = optimal_dispatch_ratio(2.0, 1.0, lambda l: 1.0)
        l_slow = optimal_dispatch_ratio(0.5, 1.0, lambda l: 1.0)
        assert l_fast > l_slow

    def test_paper_configuration_near_half(self):
        """12.8 GB/s DRAM vs 13.2 GB/s PCIe with long-tail caching lands in
        the 0.4-0.7 band the paper tunes within."""
        l = optimal_dispatch_ratio(
            12.8, 13.2, lambda l: longtail_hit_rate(1 / 16, l, 1e6)
        )
        assert 0.4 < l < 0.75

    def test_invalid(self):
        with pytest.raises(ValueError):
            optimal_dispatch_ratio(0, 1, lambda l: 1.0)


def _engine(sim, ratio=0.5, nic_lines=64, host_lines=1024, cache=True):
    dma = MultiLinkDMA(sim, link_count=2)
    nic = NICDram(sim)
    dispatcher = LoadDispatcher(ratio)
    dram_cache = (
        DramCache(nic_lines=nic_lines, host_lines=host_lines)
        if cache
        else None
    )
    return MemoryAccessEngine(sim, dma, nic, dispatcher, dram_cache)


class TestMemoryAccessEngine:
    def test_bypass_goes_to_pcie(self):
        sim = Simulator()
        engine = _engine(sim, ratio=0.0)
        sim.run(wait(sim, engine.access, 0, 64, False, -1))
        assert engine.counters["pcie_direct"] == 1
        assert engine.dma.reads == 1

    def test_cacheable_miss_then_hit(self):
        sim = Simulator()
        engine = _engine(sim, ratio=1.0)
        sim.run(wait(sim, engine.access, 0, 64, False, -1))
        sim.run(wait(sim, engine.access, 0, 64, False, -1))
        assert engine.counters["cache_misses"] == 1
        assert engine.counters["cache_hits"] == 1
        assert engine.dma.reads == 1  # only the fill

    def test_hit_faster_than_miss(self):
        sim = Simulator()
        engine = _engine(sim, ratio=1.0)
        start = sim.now
        sim.run(wait(sim, engine.access, 0, 64, False, -1))
        miss_time = sim.now - start
        start = sim.now
        sim.run(wait(sim, engine.access, 0, 64, False, -1))
        hit_time = sim.now - start
        assert hit_time < miss_time

    def test_full_line_write_miss_no_fill(self):
        sim = Simulator()
        engine = _engine(sim, ratio=1.0)
        sim.run(wait(sim, engine.access, 64, 64, True, -1))
        assert engine.dma.reads == 0
        assert engine.counters["fills"] == 0

    def test_dirty_writeback_traffic(self):
        sim = Simulator()
        engine = _engine(sim, ratio=1.0, nic_lines=4, host_lines=16)
        sim.run(wait(sim, engine.access, 1 * 64, 64, True, -1))  # dirty line 1
        sim.run(wait(sim, engine.access, 5 * 64, 64, False, -1))  # evicts 1
        assert engine.counters["writebacks"] == 1
        assert engine.dma.writes == 1

    def test_multi_line_access_fans_out(self):
        sim = Simulator()
        engine = _engine(sim, ratio=0.0)
        sim.run(wait(sim, engine.access, 0, 256, False, -1))
        assert engine.dma.reads == 4

    def test_no_cache_configured(self):
        sim = Simulator()
        engine = _engine(sim, ratio=1.0, cache=False)
        sim.run(wait(sim, engine.access, 0, 64, False, -1))
        assert engine.counters["pcie_direct"] == 1

    def test_zero_size_noop(self):
        sim = Simulator()
        engine = _engine(sim)
        sim.run(wait(sim, engine.access, 0, 0, False, -1))
        assert engine.dma.reads == engine.dma.writes == 0

    @pytest.mark.parametrize(
        "ratio", [0.0, DEFAULT_LOAD_DISPATCH_RATIO, 1.0]
    )
    def test_each_line_is_routed_by_the_dispatcher_test(self, ratio):
        """The engine evaluates the dispatcher's per-line test in place: a
        line goes to NIC DRAM exactly when ``address_hash(line) < ratio``
        (lines 0-511, which fall on both sides of any ratio in (0, 1))."""
        sim = Simulator(tracer=Tracer())
        engine = _engine(sim, ratio=ratio)
        sim.run(wait(sim, engine.access, 0, 512 * 64 - 7, False, -1))
        routes = [
            span.detail for span in engine.tracer.spans
            if span.stage == "mem.route"
        ]
        assert routes == [
            f"line={line} " + ("dram" if address_hash(line) < ratio else "pcie")
            for line in range(512)
        ]
        if 0.0 < ratio < 1.0:
            assert {route.split()[1] for route in routes} == {"dram", "pcie"}

    def test_hit_rate(self):
        sim = Simulator()
        engine = _engine(sim, ratio=1.0)
        sim.run(wait(sim, engine.access, 0, 64, False, -1))
        sim.run(wait(sim, engine.access, 0, 64, False, -1))
        sim.run(wait(sim, engine.access, 0, 64, False, -1))
        assert engine.hit_rate() == pytest.approx(2 / 3)


class TestPartialLineWrites:
    def test_partial_write_miss_fills_first(self):
        """Writing 10 B into an uncached line must fetch the line."""
        sim = Simulator()
        engine = _engine(sim, ratio=1.0)
        sim.run(wait(sim, engine.access, 64, 10, True, -1))
        assert engine.counters["fills"] == 1
        assert engine.dma.reads == 1

    def test_unaligned_multi_line_write(self):
        """A write straddling two lines touches both (one full, one not)."""
        sim = Simulator()
        engine = _engine(sim, ratio=1.0)
        sim.run(wait(sim, engine.access, 32, 64, True, -1))  # lines 0, 1: partial
        assert engine.counters["cache_misses"] == 2
        assert engine.counters["fills"] == 2  # both partial: both fill

    def test_partial_write_hit_needs_no_fill(self):
        sim = Simulator()
        engine = _engine(sim, ratio=1.0)
        sim.run(wait(sim, engine.access, 0, 64, False, -1))  # fill the line
        sim.run(wait(sim, engine.access, 8, 4, True, -1))  # partial write, hit
        assert engine.counters["fills"] == 1  # only the initial read
