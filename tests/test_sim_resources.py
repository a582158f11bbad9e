"""Unit tests for token pools, bandwidth servers and pipeline stages."""

import pytest

from repro.errors import SimulationError
from repro.sim import BandwidthServer, FIFOServer, Simulator, TokenPool


class TestTokenPool:
    def test_acquire_within_capacity_is_immediate(self):
        sim = Simulator()
        pool = TokenPool(sim, capacity=3)
        grants = []

        def worker(i):
            yield pool.acquire()
            grants.append((i, sim.now))

        for i in range(3):
            sim.process(worker(i))
        sim.run()
        assert [g[1] for g in grants] == [0.0, 0.0, 0.0]
        assert pool.in_use == 3

    def test_acquire_blocks_until_release(self):
        sim = Simulator()
        pool = TokenPool(sim, capacity=1)
        log = []

        def holder():
            yield pool.acquire()
            yield sim.timeout(100)
            pool.release()

        def waiter():
            yield pool.acquire()
            log.append(sim.now)

        sim.process(holder())
        sim.process(waiter())
        sim.run()
        assert log == [100.0]

    def test_fifo_grant_order(self):
        sim = Simulator()
        pool = TokenPool(sim, capacity=1)
        order = []

        def holder():
            yield pool.acquire()
            yield sim.timeout(10)
            pool.release()

        def waiter(name):
            yield pool.acquire()
            order.append(name)
            yield sim.timeout(1)
            pool.release()

        sim.process(holder())
        for name in ("first", "second", "third"):
            sim.process(waiter(name))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_release_without_acquire_rejected(self):
        sim = Simulator()
        pool = TokenPool(sim, capacity=2)
        with pytest.raises(SimulationError):
            pool.release()

    def test_peak_tracking(self):
        sim = Simulator()
        pool = TokenPool(sim, capacity=8)
        for __ in range(5):
            assert pool.acquire().triggered
        for __ in range(5):
            pool.release()
        assert pool.peak_in_use == 5
        assert pool.total_acquired == 5
        assert pool.available == 8

    def test_zero_capacity_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            TokenPool(sim, capacity=0)

    def test_conservation_under_churn(self):
        """Tokens are neither created nor destroyed across many handoffs."""
        sim = Simulator()
        pool = TokenPool(sim, capacity=4)
        done = []

        def worker(i):
            yield pool.acquire()
            assert 0 <= pool.available <= pool.capacity
            yield sim.timeout(1 + (i % 7))
            pool.release()
            done.append(i)

        for i in range(50):
            sim.process(worker(i))
        sim.run()
        assert len(done) == 50
        assert pool.available == pool.capacity


class TestBandwidthServer:
    def test_single_transfer_time(self):
        sim = Simulator()
        # 1 byte/ns = 1 GB/s
        channel = BandwidthServer(sim, bytes_per_ns=1.0)
        done = channel.transfer(64)
        sim.run(done)
        assert sim.now == pytest.approx(64.0)

    def test_transfers_serialize(self):
        sim = Simulator()
        channel = BandwidthServer(sim, bytes_per_ns=2.0)
        first = channel.transfer(100)  # 50 ns
        second = channel.transfer(100)  # next 50 ns
        sim.run(first)
        assert sim.now == pytest.approx(50.0)
        sim.run(second)
        assert sim.now == pytest.approx(100.0)

    def test_idle_gap_not_charged(self):
        sim = Simulator()
        channel = BandwidthServer(sim, bytes_per_ns=1.0)
        sim.run(channel.transfer(10))
        sim.run(sim.timeout(90))  # idle until t=100
        done = channel.transfer(10)
        sim.run(done)
        assert sim.now == pytest.approx(110.0)

    def test_from_bytes_per_sec(self):
        sim = Simulator()
        channel = BandwidthServer.from_bytes_per_sec(sim, 5e9)  # 5 GB/s
        sim.run(channel.transfer(5000))
        assert sim.now == pytest.approx(1000.0)  # 5000 B at 5 B/ns

    def test_accounting(self):
        sim = Simulator()
        channel = BandwidthServer(sim, bytes_per_ns=1.0)
        channel.transfer(30)
        channel.transfer(70)
        sim.run()
        assert channel.bytes_transferred == 100
        assert channel.transfers == 2
        assert channel.utilization() == pytest.approx(1.0)

    def test_queue_delay(self):
        sim = Simulator()
        channel = BandwidthServer(sim, bytes_per_ns=1.0)
        channel.transfer(500)
        assert channel.queue_delay() == pytest.approx(500.0)

    def test_negative_size_rejected(self):
        sim = Simulator()
        channel = BandwidthServer(sim, bytes_per_ns=1.0)
        with pytest.raises(SimulationError):
            channel.transfer(-1)

    def test_zero_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            BandwidthServer(sim, bytes_per_ns=0.0)


class TestFIFOServer:
    def test_initiation_interval_paces_throughput(self):
        sim = Simulator()
        # One item per 5.56 ns = 180 MHz pipeline.
        stage = FIFOServer(sim, initiation_interval_ns=5.0, latency_ns=0.0)
        assert [stage.reserve() for __ in range(4)] == [
            pytest.approx(5.0),
            pytest.approx(10.0),
            pytest.approx(15.0),
            pytest.approx(20.0),
        ]
        assert stage.items == 4

    def test_latency_adds_to_exit_time(self):
        sim = Simulator()
        stage = FIFOServer(sim, initiation_interval_ns=1.0, latency_ns=100.0)
        assert stage.reserve() == pytest.approx(101.0)
        # An item entering an idle stage later starts from the clock.
        sim.now = 50.0
        assert stage.reserve() == pytest.approx(151.0)
        assert stage.reserve() == pytest.approx(152.0)

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            FIFOServer(sim, initiation_interval_ns=0.0)
        with pytest.raises(SimulationError):
            FIFOServer(sim, initiation_interval_ns=1.0, latency_ns=-1.0)


class TestLatencyModels:
    def test_constant(self):
        from repro.sim import ConstantLatency

        model = ConstantLatency(100.0)
        assert model.sample() == 100.0
        assert model.mean() == 100.0

    def test_constant_negative_rejected(self):
        from repro.sim import ConstantLatency

        with pytest.raises(ValueError):
            ConstantLatency(-1.0)

    def test_uniform_bounds_and_mean(self):
        from repro.sim import UniformLatency

        model = UniformLatency(800.0, 500.0, seed=1)
        samples = [model.sample() for __ in range(2000)]
        assert all(800.0 <= s <= 1300.0 for s in samples)
        assert abs(sum(samples) / len(samples) - model.mean()) < 20.0

    def test_uniform_deterministic_by_seed(self):
        from repro.sim import UniformLatency

        a = [UniformLatency(0, 10, seed=7).sample() for __ in range(5)]
        b = [UniformLatency(0, 10, seed=7).sample() for __ in range(5)]
        assert a == b

    def test_exponential_tail(self):
        from repro.sim import ExponentialLatency

        model = ExponentialLatency(100.0, 50.0, seed=2)
        samples = [model.sample() for __ in range(2000)]
        assert all(s >= 100.0 for s in samples)
        assert abs(sum(samples) / len(samples) - model.mean()) < 10.0

    def test_exponential_zero_tail(self):
        from repro.sim import ExponentialLatency

        model = ExponentialLatency(100.0, 0.0)
        assert model.sample() == 100.0

    def test_invalid_parameters(self):
        from repro.sim import ExponentialLatency, UniformLatency

        with pytest.raises(ValueError):
            UniformLatency(-1, 10)
        with pytest.raises(ValueError):
            ExponentialLatency(1, -1)
