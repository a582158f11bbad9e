"""Integration tests for the network client and batching (Figure 15)."""

import math

import pytest

from repro.client import KVClient
from repro.core.operations import KVOperation
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.errors import ConfigurationError
from repro.sim import Simulator


def make_setup(memory_size=4 << 20, **overrides):
    sim = Simulator()
    store = KVDirectStore.create(memory_size=memory_size, **overrides)
    processor = KVProcessor(sim, store)
    return sim, store, processor


class TestClientBasics:
    def test_single_batch_roundtrip(self):
        sim, store, processor = make_setup()
        store.put(b"k", b"v")
        client = KVClient(sim, processor, batch_size=4)
        stats = client.run([KVOperation.get(b"k", seq=i) for i in range(4)])
        assert stats.operations == 4
        assert stats.throughput_mops > 0
        assert stats.latency_p99_ns >= stats.latency_p50_ns

    def test_put_workload_lands_in_store(self):
        sim, store, processor = make_setup()
        client = KVClient(sim, processor, batch_size=8)
        ops = [KVOperation.put(b"k%03d" % i, b"v%03d" % i, seq=i)
               for i in range(64)]
        client.run(ops)
        for i in range(64):
            assert store.get(b"k%03d" % i) == b"v%03d" % i

    def test_empty_ops_rejected(self):
        sim, __, processor = make_setup()
        client = KVClient(sim, processor)
        with pytest.raises(ConfigurationError):
            client.run([])

    @pytest.mark.parametrize(
        "budget", [math.inf, float(2 ** 64), math.nan, 0.0, -5.0],
        ids=["inf", "u64-overflow", "nan", "zero", "negative"],
    )
    def test_a_deadline_budget_the_wire_cannot_carry_is_refused(
        self, budget
    ):
        """An infinite budget passed construction and then failed the
        first batch's encode ("exceeds the wire format's u64 field")
        inside the timed run."""
        sim, __, processor = make_setup()
        with pytest.raises(ConfigurationError, match="deadline budget"):
            KVClient(sim, processor, deadline_budget_ns=budget)

    def test_invalid_config(self):
        sim, __, processor = make_setup()
        with pytest.raises(ConfigurationError):
            KVClient(sim, processor, batch_size=0)
        with pytest.raises(ConfigurationError):
            KVClient(sim, processor, max_outstanding_batches=0)

    def test_wire_accounting(self):
        sim, store, processor = make_setup()
        store.put(b"k", b"v")
        client = KVClient(sim, processor, batch_size=2)
        stats = client.run([KVOperation.get(b"k", seq=i) for i in range(4)])
        # Two batches, each with 88 B of overhead in each direction.
        assert stats.request_bytes_on_wire >= 2 * 88
        assert stats.response_bytes_on_wire >= 2 * 88


class TestBatchingEffect:
    """Figure 15: batching multiplies throughput, costs ~1 us latency."""

    def _ops(self, store, count=600):
        n = store.fill_to_utilization(0.2, kv_size=13)
        return [
            KVOperation.get((i % n).to_bytes(8, "big"), seq=i)
            for i in range(count)
        ]

    def test_batching_improves_throughput(self):
        sim1, store1, proc1 = make_setup()
        batched = KVClient(sim1, proc1, batch_size=40).run(self._ops(store1))

        sim2, store2, proc2 = make_setup()
        # One op per packet: the Figure 15/17 'no batching' baseline.
        unbatched = KVClient(
            sim2, proc2, batch_size=1, max_outstanding_batches=64
        ).run(self._ops(store2))

        assert batched.throughput_mops > 2.0 * unbatched.throughput_mops

    def test_batching_latency_penalty_small(self):
        """Batched latency stays in the paper's < 10 us band."""
        sim, store, processor = make_setup()
        stats = KVClient(sim, processor, batch_size=40).run(
            self._ops(store)
        )
        assert stats.latency_p95_ns < 10_000.0
