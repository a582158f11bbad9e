"""Unit tests for token pools, bandwidth servers and pipeline stages."""

import pytest

from repro.errors import SimulationError
from repro.sim import BandwidthServer, FIFOServer, Simulator, TokenPool
from tests.waiting import ignore, wait


class TestTokenPool:
    def test_acquire_within_capacity_is_immediate(self):
        sim = Simulator()
        pool = TokenPool(sim, capacity=3)
        grants = []

        def worker(i):
            yield wait(sim, pool.acquire)
            grants.append((i, sim.now))

        for i in range(3):
            sim.process(worker(i))
        sim.run()
        assert [g[1] for g in grants] == [0.0, 0.0, 0.0]
        assert pool.capacity - pool.available == 3

    def test_acquire_blocks_until_release(self):
        sim = Simulator()
        pool = TokenPool(sim, capacity=1)
        log = []

        def holder():
            yield wait(sim, pool.acquire)
            yield sim.timeout(100)
            pool.release()

        def waiter():
            yield wait(sim, pool.acquire)
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
            yield wait(sim, pool.acquire)
            yield sim.timeout(10)
            pool.release()

        def waiter(name):
            yield wait(sim, pool.acquire)
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
            pool.acquire(ignore)
        assert list(sim._dq) == [ignore] * 5  # every grant at once
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
            yield wait(sim, pool.acquire)
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
        sim.run(wait(sim, channel.reserve, 64))
        assert sim.now == pytest.approx(64.0)

    def test_transfers_serialize(self):
        sim = Simulator()
        channel = BandwidthServer(sim, bytes_per_ns=2.0)
        first = wait(sim, channel.reserve, 100)  # 50 ns
        second = wait(sim, channel.reserve, 100)  # next 50 ns
        sim.run(first)
        assert sim.now == pytest.approx(50.0)
        sim.run(second)
        assert sim.now == pytest.approx(100.0)

    def test_idle_gap_not_charged(self):
        sim = Simulator()
        channel = BandwidthServer(sim, bytes_per_ns=1.0)
        sim.run(wait(sim, channel.reserve, 10))
        sim.run(sim.timeout(90))  # idle until t=100
        sim.run(wait(sim, channel.reserve, 10))
        assert sim.now == pytest.approx(110.0)

    def test_from_bytes_per_sec(self):
        sim = Simulator()
        channel = BandwidthServer.from_bytes_per_sec(sim, 5e9)  # 5 GB/s
        sim.run(wait(sim, channel.reserve, 5000))
        assert sim.now == pytest.approx(1000.0)  # 5000 B at 5 B/ns

    def test_accounting(self):
        sim = Simulator()
        channel = BandwidthServer(sim, bytes_per_ns=1.0)
        channel.reserve(30, ignore)
        channel.reserve(70, ignore)
        sim.run()
        assert channel.bytes_transferred == 100
        assert channel.transfers == 2
        assert channel.busy_time == pytest.approx(sim.now)  # never idle

    def test_queue_delay(self):
        sim = Simulator()
        channel = BandwidthServer(sim, bytes_per_ns=1.0)
        channel.reserve(500, ignore)
        # A transfer behind the 500 B backlog drains 500 ns later.
        sim.run(wait(sim, channel.reserve, 0))
        assert sim.now == pytest.approx(500.0)

    def test_negative_size_rejected(self):
        sim = Simulator()
        channel = BandwidthServer(sim, bytes_per_ns=1.0)
        with pytest.raises(SimulationError):
            channel.reserve(-1, ignore)

    def test_zero_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            BandwidthServer(sim, bytes_per_ns=0.0)

    def test_nan_rate_rejected(self):
        with pytest.raises(SimulationError):
            BandwidthServer(Simulator(), bytes_per_ns=float("nan"))

    @pytest.mark.parametrize("size", [float("nan"), -1.0])
    def test_a_rejected_size_leaves_the_channel_as_it_was(self, size):
        """A NaN size used to be booked before the schedule call raised,
        leaving the drain time, byte count and busy time NaN: every later
        booking on the channel raised too."""
        sim = Simulator()
        channel = BandwidthServer(sim, bytes_per_ns=1.0)
        channel.reserve(10, ignore)
        state = (
            channel._free_at, channel.bytes_transferred,
            channel.transfers, channel.busy_time, sim._sequence,
        )
        with pytest.raises(SimulationError):
            channel.reserve(size, ignore)
        assert state == (
            channel._free_at, channel.bytes_transferred,
            channel.transfers, channel.busy_time, sim._sequence,
        )
        sim.run(wait(sim, channel.reserve, 5))
        assert sim.now == 15.0

    def test_then_runs_in_fifo_order_among_call_when_entries(self):
        """``reserve(n, then)`` queues ``then`` where ``call_when`` would:
        behind the entries for the same instant booked before it, ahead
        of those booked after it."""
        sim = Simulator()
        channel = BandwidthServer(sim, bytes_per_ns=1.0)
        order = []
        sim.call_when(10.0, lambda _: order.append("before"))
        channel.reserve(10, lambda _: order.append(("then", sim.now)))
        sim.call_when(10.0, lambda _: order.append("after"))
        sim.run()
        assert order == ["before", ("then", 10.0), "after"]

    def test_a_zero_byte_reserve_lands_on_the_deque_at_now(self):
        sim = Simulator()
        channel = BandwidthServer(sim, bytes_per_ns=1.0)
        step = lambda _: None  # noqa: E731
        channel.reserve(0, step)
        assert list(sim._dq) == [step]
        assert not sim._queue and sim._sequence == 0
        # Behind a booked transfer, zero bytes still wait for the drain.
        channel.reserve(8, ignore)
        channel.reserve(0, step)
        assert [entry[0] for entry in sim._queue] == [8.0, 8.0]
        assert sim._queue[-1][2] is step


class TestFIFOServer:
    @staticmethod
    def exits(stage, count):
        """Book ``count`` items; returns the list their exit times fill."""
        sim = stage.sim
        times = []
        for __ in range(count):
            stage.reserve(lambda _: times.append(sim.now))
        return times

    def test_initiation_interval_paces_throughput(self):
        sim = Simulator()
        # One item per 5.56 ns = 180 MHz pipeline.
        stage = FIFOServer(sim, initiation_interval_ns=5.0, latency_ns=0.0)
        times = self.exits(stage, 4)
        sim.run()
        assert times == [
            pytest.approx(5.0),
            pytest.approx(10.0),
            pytest.approx(15.0),
            pytest.approx(20.0),
        ]
        assert stage.items == 4

    def test_latency_adds_to_exit_time(self):
        sim = Simulator()
        stage = FIFOServer(sim, initiation_interval_ns=1.0, latency_ns=100.0)
        times = self.exits(stage, 1)
        # An item entering an idle stage later starts from the clock.
        sim.now = 50.0
        times_later = self.exits(stage, 2)
        sim.run()
        assert times == [pytest.approx(101.0)]
        assert times_later == [pytest.approx(151.0), pytest.approx(152.0)]

    def test_then_runs_at_the_exit_among_call_when_entries(self):
        sim = Simulator()
        stage = FIFOServer(sim, initiation_interval_ns=2.0, latency_ns=6.0)
        order = []
        sim.call_when(8.0, lambda _: order.append("before"))
        stage.reserve(lambda _: order.append(("first", sim.now)))
        stage.reserve(lambda _: order.append(("second", sim.now)))
        sim.call_when(8.0, lambda _: order.append("after"))
        sim.run()
        assert order == ["before", ("first", 8.0), "after", ("second", 10.0)]

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            FIFOServer(sim, initiation_interval_ns=0.0)
        with pytest.raises(SimulationError):
            FIFOServer(sim, initiation_interval_ns=1.0, latency_ns=-1.0)

    def test_nan_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            FIFOServer(sim, initiation_interval_ns=float("nan"))
        with pytest.raises(SimulationError):
            FIFOServer(sim, initiation_interval_ns=1.0, latency_ns=float("nan"))


class TestLatencyModels:
    def test_constant(self):
        """A model with no spread is a constant latency."""
        from repro.sim import UniformLatency

        model = UniformLatency(100.0, 0.0)
        assert model.sample() == 100.0

    def test_constant_negative_rejected(self):
        from repro.sim import UniformLatency

        with pytest.raises(ValueError):
            UniformLatency(-1.0, 0.0)

    def test_uniform_bounds_and_mean(self):
        from repro.sim import UniformLatency

        model = UniformLatency(800.0, 500.0, seed=1)
        samples = [model.sample() for __ in range(2000)]
        assert all(800.0 <= s <= 1300.0 for s in samples)
        assert abs(sum(samples) / len(samples) - 1050.0) < 20.0

    def test_uniform_deterministic_by_seed(self):
        from repro.sim import UniformLatency

        a = [UniformLatency(0, 10, seed=7).sample() for __ in range(5)]
        b = [UniformLatency(0, 10, seed=7).sample() for __ in range(5)]
        assert a == b

    def test_invalid_parameters(self):
        from repro.sim import UniformLatency

        with pytest.raises(ValueError):
            UniformLatency(-1, 10)
        with pytest.raises(ValueError):
            UniformLatency(1, -1)

    def test_nan_parameters_rejected(self):
        from repro.sim import UniformLatency

        nan = float("nan")
        for build in (
            lambda: UniformLatency(nan, 1),
            lambda: UniformLatency(1, nan),
        ):
            with pytest.raises(ValueError):
                build()
