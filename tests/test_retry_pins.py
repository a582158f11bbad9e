"""Every retry path, pinned at its default options.

The client retries lost flights and ServerBusy NACKs, and the cluster
router retries NodeDown / WrongEpoch NACKs; each consults an attempt
limit, the shared retry budget, a seeded backoff stream and, before a
send, the circuit breaker.  No golden or surface runs a lossy or shed
``KVClient``, so these runs pin the exact simulated outcome of each path:
elapsed time, counters, latency tails and exhaustion messages.  A change
to how a retry is decided that moves any of them fails here.
"""

import pytest

from repro.client import CircuitBreaker, KVClient, RetryBudget
from repro.client.router import ClusterRouter
from repro.core.admission import OverloadPolicy
from repro.core.config import KVDirectConfig
from repro.core.operations import KVOperation
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.errors import DeadlineExceeded, RetryExhausted
from repro.faults import FaultPlan
from repro.multi.cluster import Cluster
from repro.sim import Simulator
from tests.waiting import performed


def _client(plan=None, overload=None, max_inflight=256, **client_kwargs):
    store = KVDirectStore.create(
        memory_size=4 << 20, fault_plan=plan, overload=overload,
        max_inflight=max_inflight, seed=0,
    )
    sim = Simulator()
    client = KVClient(sim, KVProcessor(sim, store), **client_kwargs)
    return sim, store, client


def _gets(store, count):
    for i in range(8):
        store.put(b"key%02d" % i, b"value%02d" % i)
    return [KVOperation.get(b"key%02d" % (i % 8), seq=i)
            for i in range(count)]


class TestLossRetries:
    def test_lossy_run(self):
        sim, store, client = _client(
            FaultPlan(packet_loss_prob=0.3), batch_size=8,
            max_outstanding_batches=4,
        )
        stats = client.run(_gets(store, 256))
        assert stats.elapsed_ns == 34003.361485006375
        assert stats.retries == 23
        assert stats.latency_p50_ns == 4265.421861678631
        assert stats.latency_p99_ns == 6467.35151530697
        assert stats.failed_ops == 0

    def test_the_retry_limit_exhausts(self):
        sim, store, client = _client(
            FaultPlan(packet_loss_prob=1.0), batch_size=8
        )
        with pytest.raises(RetryExhausted) as info:
            client.run(_gets(store, 8))
        assert str(info.value) == (
            "request flight lost 9 times (retry limit 8, waited 255000 ns "
            "in backoff)"
        )
        assert client.retries == 8
        assert sim.now == 255250.2

    def test_the_budget_exhausts(self):
        sim, store, client = _client(
            FaultPlan(packet_loss_prob=1.0), batch_size=8,
            retry_budget=RetryBudget(capacity=2.0, refill_per_success=0.0),
        )
        with pytest.raises(RetryExhausted) as info:
            client.run(_gets(store, 8))
        assert str(info.value) == (
            "request flight lost 3 times and the shared retry budget is "
            "exhausted (waited 3000 ns in backoff)"
        )
        assert client.retries == 2
        assert sim.now == 3083.4


class TestBusyRetries:
    """A one-slot server with a one-deep queue sheds most of a batch."""

    def _shed(self, **client_kwargs):
        return _client(
            overload=OverloadPolicy(queue_depth=1), max_inflight=1,
            batch_size=16, **client_kwargs,
        )

    def test_shed_run(self):
        sim, store, client = self._shed()
        stats = client.run(_gets(store, 64))
        assert (stats.busy_nacks, stats.busy_retries, stats.busy_give_ups) \
            == (266, 16, 42)
        assert stats.elapsed_ns == 49553.721910334345
        assert stats.failed_ops == 42
        assert len(client.responses) == 22

    def test_shed_run_under_a_budget(self):
        budget = RetryBudget(capacity=8.0, refill_per_success=0.1)
        sim, store, client = self._shed(retry_budget=budget)
        stats = client.run(_gets(store, 64))
        assert (stats.busy_nacks, stats.busy_retries, stats.busy_give_ups) \
            == (214, 11, 49)
        assert stats.elapsed_ns == 45272.49018580208
        assert budget.refused == 3

    def test_shed_run_behind_a_breaker(self):
        clock = []
        breaker = CircuitBreaker(
            lambda: clock[0].now, window_ns=1e6, failure_threshold=0.5,
            min_samples=4, open_ns=5000.0,
        )
        sim, store, client = self._shed(breaker=breaker)
        clock.append(sim)
        stats = client.run(_gets(store, 64))
        assert (stats.busy_nacks, stats.busy_retries, stats.busy_give_ups) \
            == (277, 16, 47)
        assert stats.breaker_opens == 8
        assert stats.elapsed_ns == 56738.98476724607
        assert stats.failed_ops == 47


def _mixed(count):
    ops = []
    for seq in range(count):
        key = b"key%06d" % (seq * 7 % 96)
        if seq % 3 == 0:
            ops.append(KVOperation.put(key, b"v%05d" % seq, seq=seq))
        else:
            ops.append(KVOperation.get(key, seq=seq))
    return ops


def _cluster(sim):
    cluster = Cluster(
        sim, num_nodes=3, num_slots=8,
        config=KVDirectConfig(memory_size=2 << 20),
    )
    for i in range(0, 96, 2):
        cluster.preload(b"key%06d" % i, b"old")
    return cluster


class TestClusterRetries:
    """Node 0 is killed after 64 accepts; NACKed ops retry onto the
    promoted backups."""

    def _killed(self, **router_kwargs):
        sim = Simulator()
        cluster = _cluster(sim)
        cluster.kill_after_accepts(0, 64)
        if router_kwargs.get("breaker"):
            router_kwargs["breaker"] = CircuitBreaker(
                lambda: sim.now, window_ns=20000.0, failure_threshold=0.05,
                min_samples=4, open_ns=2000.0,
            )
        router = ClusterRouter(sim, cluster, seed=5, **router_kwargs)
        stats = router.run(_mixed(600), concurrency=8)
        return router, stats

    def test_node_kill(self):
        router, stats = self._killed()
        snapshot = router.robustness_snapshot()
        assert snapshot["node_down_retries"] == 12
        assert snapshot["wrong_epoch_retries"] == 2
        assert snapshot["retry_give_ups"] == 0
        assert stats["elapsed_ns"] == 62901.1779246849
        assert stats["latency_p99_ns"] == 2201.3415989466225
        assert stats["completed"] == 600.0

    def test_node_kill_under_a_budget(self):
        router, stats = self._killed(
            retry_budget=RetryBudget(capacity=4.0, refill_per_success=0.0)
        )
        assert router.robustness_snapshot() == {
            "node_down_retries": 12, "wrong_epoch_retries": 2,
            "retry_give_ups": 10, "breaker_fast_fails": 0,
            "breaker_opens": 0, "budget_spent": 4, "budget_refused": 10,
        }
        assert stats["elapsed_ns"] == 58841.997029555714
        assert stats["latency_p99_ns"] == 1572.3250596189205
        assert (stats["completed"], stats["failed"]) == (590.0, 10.0)

    def test_node_kill_behind_a_breaker(self):
        router, stats = self._killed(breaker=True)
        assert router.robustness_snapshot() == {
            "node_down_retries": 10, "wrong_epoch_retries": 2,
            "retry_give_ups": 0, "breaker_fast_fails": 29,
            "breaker_opens": 4, "budget_spent": 0, "budget_refused": 0,
        }
        assert stats["elapsed_ns"] == 66088.00683031244
        assert stats["latency_p99_ns"] == 3248.085765944515


def test_the_router_passes_a_deadline_miss_on_unrecorded():
    """Unlike the client, which records a deadline miss as a breaker
    failure, the cluster router hands a DeadlineExceeded to its caller
    without recording it in the breaker or touching the budget."""
    sim = Simulator()
    cluster = _cluster(sim)
    breaker = CircuitBreaker(lambda: sim.now, min_samples=1)
    budget = RetryBudget(capacity=2.0)
    router = ClusterRouter(
        sim, cluster, retry_budget=budget, breaker=breaker
    )
    # The deadline passes during the route delay, before the op arrives.
    event = performed(router, KVOperation.get(b"key000000", seq=0), 1.0)
    sim.run()
    assert isinstance(event.exception, DeadlineExceeded)
    assert breaker._events == [] and breaker.opens == 0
    assert (budget.tokens, budget.spent, budget.refused) == (2.0, 0, 0)
    assert router.robustness_snapshot()["retry_give_ups"] == 0
