"""Integration tests for multi-NIC scaling."""

import pytest

from repro.core.operations import KVOperation
from repro.driver import run_closed_loop
from repro.errors import ConfigurationError
from repro.multi import MultiNICServer
from repro.sim import Simulator
from tests.waiting import all_of


class TestSharding:
    def test_shard_stable(self):
        server = MultiNICServer(Simulator(), nic_count=4)
        assert server.shard_of(b"key") == server.shard_of(b"key")

    def test_shards_spread(self):
        server = MultiNICServer(Simulator(), nic_count=4)
        shards = {server.shard_of(b"key%04d" % i) for i in range(200)}
        assert shards == {0, 1, 2, 3}

    def test_invalid_count(self):
        with pytest.raises(ConfigurationError):
            MultiNICServer(Simulator(), nic_count=0)


class TestOperations:
    def test_put_get_across_nics(self):
        sim = Simulator()
        server = MultiNICServer(sim, nic_count=3)
        events = [
            server.submit(KVOperation.put(b"key%02d" % i, b"val%02d" % i,
                                          seq=i))
            for i in range(20)
        ]
        sim.run(all_of(sim, events))
        gets = [
            server.submit(KVOperation.get(b"key%02d" % i, seq=100 + i))
            for i in range(20)
        ]
        sim.run(all_of(sim, gets))
        assert [e.value.value for e in gets] == [
            b"val%02d" % i for i in range(20)
        ]

    def test_put_direct(self):
        server = MultiNICServer(Simulator(), nic_count=2)
        server.put_direct(b"k", b"v")
        shard = server.shard_of(b"k")
        assert server.processors[shard].store.get(b"k") == b"v"


class TestScaling:
    """Section 1: near-linear scalability with multiple NICs."""

    def _throughput(self, nic_count, ops_per_nic=1200):
        sim = Simulator()
        server = MultiNICServer(sim, nic_count=nic_count)
        total = ops_per_nic * nic_count
        for i in range(512):
            server.put_direct(b"key%06d" % i, b"v" * 5)
        ops = [
            KVOperation.get(b"key%06d" % (i % 512), seq=i)
            for i in range(total)
        ]
        return run_closed_loop(server, ops)["throughput_mops"]

    def test_two_nics_scale(self):
        one = self._throughput(1)
        two = self._throughput(2)
        assert two > 1.6 * one

    def test_four_nics_scale(self):
        one = self._throughput(1)
        four = self._throughput(4, ops_per_nic=800)
        assert four > 3.0 * one

    def test_stats_shape(self):
        sim = Simulator()
        server = MultiNICServer(sim, nic_count=2)
        server.put_direct(b"k", b"v")
        stats = run_closed_loop(
            server, [KVOperation.get(b"k", seq=i) for i in range(50)]
        )
        assert stats["nics"] == 2.0
        assert stats["operations"] == 50.0
        assert stats["per_nic_mops"] == pytest.approx(
            stats["throughput_mops"] / 2
        )

    def test_sharded_latency_merges_per_shard_histograms(self):
        """Regression: the sharded closed loop reports aggregate latency
        percentiles over the union of all shard histograms, not None and
        not a single shard's view."""
        sim = Simulator()
        server = MultiNICServer(sim, nic_count=4)
        for i in range(256):
            server.put_direct(b"key%06d" % i, b"v" * 5)
        stats = run_closed_loop(
            server,
            [KVOperation.get(b"key%06d" % (i % 256), seq=i)
             for i in range(800)],
        )
        for field in ("latency_p50_ns", "latency_p95_ns",
                      "latency_p99_ns", "latency_mean_ns"):
            assert stats[field] is not None and stats[field] > 0.0
        assert (stats["latency_p50_ns"] <= stats["latency_p95_ns"]
                <= stats["latency_p99_ns"])
        total = sum(
            proc.latencies.count for proc in server.processors
        )
        assert total == 800

    def test_sharded_latency_none_when_nothing_completes(self):
        """Zero goodput is a valid measurement: an empty merged histogram
        reports None latency fields instead of crashing."""
        sim = Simulator()
        server = MultiNICServer(sim, nic_count=2)
        stats = run_closed_loop(server, [])
        assert stats["operations"] == 0.0
        assert stats["latency_p50_ns"] is None
        assert stats["latency_p99_ns"] is None
        assert stats["latency_mean_ns"] is None


class TestNetworkedMultiNIC:
    """Each NIC has its own 40 GbE port; clients drive them in parallel."""

    def test_clients_per_nic(self):
        from repro.client import KVClient

        sim = Simulator()
        server = MultiNICServer(sim, nic_count=3)
        for i in range(300):
            server.put_direct(b"key%04d" % i, b"v" * 5)
        # Partition a GET stream by owning NIC, one client per NIC.
        shards = [[] for __ in range(3)]
        for i in range(900):
            key = b"key%04d" % (i % 300)
            shards[server.shard_of(key)].append(
                KVOperation.get(key, seq=i)
            )
        clients = [
            KVClient(sim, processor, batch_size=16,
                     max_outstanding_batches=8)
            for processor in server.processors
        ]
        processes = [
            client.start(ops)
            for client, ops in zip(clients, shards)
            if ops
        ]
        sim.run(all_of(sim, processes))
        total = sum(len(s) for s in shards)
        elapsed = sim.now
        assert total == 900
        # All three ports worked concurrently: aggregate beats 1 port's
        # serial time by construction; check per-client accounting.
        for client, ops in zip(clients, shards):
            if ops:
                assert client.latencies.count == len(ops)

    def test_aggregate_network_throughput_scales(self):
        """N ports give ~N x the network-bound unbatched throughput."""
        from repro.client import KVClient

        def run(nics):
            sim = Simulator()
            server = MultiNICServer(sim, nic_count=nics)
            for i in range(256):
                server.put_direct(b"key%04d" % i, b"v" * 5)
            shards = [[] for __ in range(nics)]
            seq = 0
            for i in range(600 * nics):
                key = b"key%04d" % (i % 256)
                shards[server.shard_of(key)].append(
                    KVOperation.get(key, seq=seq)
                )
                seq += 1
            processes = []
            for processor, ops in zip(server.processors, shards):
                if not ops:
                    continue
                client = KVClient(sim, processor, batch_size=1,
                                  max_outstanding_batches=64)
                processes.append(client.start(ops))
            total = sum(len(s) for s in shards)
            sim.run(all_of(sim, processes))
            return total / sim.now * 1e3  # Mops

        one = run(1)
        three = run(3)
        assert three > 2.2 * one
