"""Client retry semantics: backoff schedules, budgets, circuit breaker.

Pins down the exact deterministic backoff schedules (with and without the
cap, with and without jitter), the shared retry budget's fast-fail
behaviour, the breaker automaton's transitions, and the separation of
loss retries from ServerBusy retries in the client - the two retry kinds
run on independent counters and independent backoff streams.
"""

import json
import random

import pytest

from repro.client import (
    BackoffPolicy,
    CircuitBreaker,
    KVClient,
    RetryBudget,
)
from repro.client import client as client_module
from repro.client import router as router_module
from repro.client.router import ClusterRouter
from repro.client.robust import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
)
from repro.cli import _latency_rows
from repro.core.admission import OverloadPolicy
from repro.core.config import KVDirectConfig
from repro.core.operations import KVOperation
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.errors import ConfigurationError, RetryExhausted
from repro.faults import FaultPlan
from repro.multi.cluster import Cluster
from repro.obs import MetricsRegistry
from repro.sim import Simulator
from tests.waiting import ignore, performed


class TestBackoffPolicy:
    def test_uncapped_schedule_is_exact(self):
        policy = BackoffPolicy(1000.0)
        assert [policy.delay(a) for a in range(1, 6)] == [
            1000.0, 2000.0, 4000.0, 8000.0, 16000.0
        ]

    def test_cap_clamps_the_tail(self):
        policy = BackoffPolicy(1000.0, max_ns=5000.0)
        assert [policy.delay(a) for a in range(1, 6)] == [
            1000.0, 2000.0, 4000.0, 5000.0, 5000.0
        ]

    def test_jitter_is_seed_deterministic(self):
        a = BackoffPolicy(1000.0, jitter=0.5, seed=3, stream="loss")
        b = BackoffPolicy(1000.0, jitter=0.5, seed=3, stream="loss")
        schedule = [a.delay(n) for n in range(1, 8)]
        assert [b.delay(n) for n in range(1, 8)] == schedule
        # Jitter only ever stretches the delay, never shrinks it.
        for attempt, delay in enumerate(schedule, start=1):
            base = 1000.0 * 2 ** (attempt - 1)
            assert base <= delay <= 1.5 * base

    def test_streams_are_independent(self):
        loss = BackoffPolicy(1000.0, jitter=0.5, seed=3, stream="loss")
        busy = BackoffPolicy(1000.0, jitter=0.5, seed=3, stream="busy")
        assert [loss.delay(n) for n in range(1, 8)] != [
            busy.delay(n) for n in range(1, 8)
        ]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BackoffPolicy(-1.0)
        with pytest.raises(ConfigurationError):
            BackoffPolicy(1000.0, max_ns=500.0)
        with pytest.raises(ConfigurationError):
            BackoffPolicy(1000.0, jitter=1.5)
        with pytest.raises(ConfigurationError):
            BackoffPolicy(1000.0).delay(0)

    def test_loss_and_busy_sequences_each_replay_under_one_seed(self):
        """Both retry-kind streams are independently deterministic: for a
        fixed seed each stream replays its own jitter sequence exactly,
        and draining one stream never perturbs the other."""
        first = {}
        for kind in ("loss", "busy"):
            policy = BackoffPolicy(1000.0, jitter=0.5, seed=9, stream=kind)
            first[kind] = [policy.delay(n) for n in range(1, 10)]
        # Replay with the draw order inverted across streams: interleaved
        # policies over the same seed must reproduce both sequences.
        loss = BackoffPolicy(1000.0, jitter=0.5, seed=9, stream="loss")
        busy = BackoffPolicy(1000.0, jitter=0.5, seed=9, stream="busy")
        replay = {"loss": [], "busy": []}
        for n in range(1, 10):
            replay["busy"].append(busy.delay(n))
            replay["loss"].append(loss.delay(n))
        assert replay == first

    def test_jitter_sequence_survives_a_budget_refill(self):
        """The backoff RNG is private to the policy: spending a
        RetryBudget dry and refilling it between draws must leave the
        jitter sequence byte-identical to an uninterrupted one."""
        plain = BackoffPolicy(1000.0, jitter=0.5, seed=4, stream="loss")
        expected = [plain.delay(n) for n in range(1, 8)]

        policy = BackoffPolicy(1000.0, jitter=0.5, seed=4, stream="loss")
        budget = RetryBudget(capacity=2.0, refill_per_success=1.0)
        observed = []
        for attempt in range(1, 8):
            if not budget.try_spend():
                # Refill mid-sequence - the interleaving under test.
                budget.on_success()
                assert budget.try_spend()
            observed.append(policy.delay(attempt))
        assert observed == expected
        assert budget.spent == 7


class TestRetryBudget:
    def test_spend_until_empty_then_refuse(self):
        budget = RetryBudget(capacity=2.0, refill_per_success=0.5)
        assert budget.try_spend() and budget.try_spend()
        assert not budget.try_spend()
        assert budget.spent == 2 and budget.refused == 1

    def test_successes_refill_fractionally(self):
        budget = RetryBudget(capacity=2.0, refill_per_success=0.5)
        budget.try_spend(), budget.try_spend()
        budget.on_success()
        assert not budget.try_spend()  # 0.5 < 1.0
        budget.on_success()
        assert budget.try_spend()

    def test_refill_caps_at_capacity(self):
        budget = RetryBudget(capacity=2.0, refill_per_success=5.0)
        budget.on_success()
        assert budget.tokens == 2.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryBudget(capacity=0)
        with pytest.raises(ConfigurationError):
            RetryBudget(refill_per_success=-1)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        clock = FakeClock()
        defaults = dict(
            window_ns=1000.0, failure_threshold=0.5,
            min_samples=4, open_ns=100.0,
        )
        defaults.update(kwargs)
        return clock, CircuitBreaker(clock, **defaults)

    def test_trips_at_threshold_with_min_samples(self):
        __, breaker = self._breaker()
        breaker.record(False)
        breaker.record(False)
        breaker.record(False)
        # Only 3 < min_samples outcomes.
        assert breaker.state_code == BREAKER_CLOSED
        breaker.record(True)
        # 3/4 failures >= 0.5 threshold with 4 >= min_samples -> open.
        assert breaker.state_code == BREAKER_OPEN
        assert breaker.opens == 1

    def test_open_refuses_until_open_ns_elapses(self):
        clock, breaker = self._breaker(min_samples=1, failure_threshold=1.0)
        breaker.record(False)
        assert not breaker.allow()
        assert breaker.wait_ns() == 100.0
        clock.now = 99.0
        assert not breaker.allow()
        clock.now = 100.0
        assert breaker.allow()  # first allowed call -> half-open probe
        assert breaker.state_code == BREAKER_HALF_OPEN

    def test_half_open_probe_success_closes(self):
        clock, breaker = self._breaker(min_samples=1, failure_threshold=1.0)
        breaker.record(False)
        clock.now = 100.0
        breaker.allow()
        breaker.record(True)
        assert breaker.state_code == BREAKER_CLOSED

    def test_half_open_probe_failure_reopens(self):
        clock, breaker = self._breaker(min_samples=1, failure_threshold=1.0)
        breaker.record(False)
        clock.now = 100.0
        breaker.allow()
        breaker.record(False)
        assert breaker.state_code == BREAKER_OPEN
        assert breaker.opens == 2
        assert breaker.wait_ns() == 100.0  # timer restarted at now=100

    def test_window_prunes_stale_outcomes(self):
        clock, breaker = self._breaker()
        for __ in range(3):
            breaker.record(False)
        clock.now = 2000.0  # the failures age out of the 1000 ns window
        for __ in range(4):
            breaker.record(True)
        assert breaker.state_code == BREAKER_CLOSED

    def test_validation(self):
        clock = FakeClock()
        with pytest.raises(ConfigurationError):
            CircuitBreaker(clock, window_ns=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(clock, failure_threshold=0.0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(clock, min_samples=0)


def _client_setup(plan=None, overload=None, max_inflight=256,
                  **client_kwargs):
    store = KVDirectStore.create(
        memory_size=4 << 20, fault_plan=plan, overload=overload,
        max_inflight=max_inflight, seed=0,
    )
    sim = Simulator()
    processor = KVProcessor(sim, store)
    client = KVClient(sim, processor, **client_kwargs)
    return sim, store, client


def _patch(monkeypatch, **constants):
    """Set ``repro.client.client`` retry constants for one test; a client
    built afterwards reads them."""
    for name, value in constants.items():
        monkeypatch.setattr(client_module, name, value)


def _gets(store, count=24):
    for i in range(8):
        store.put(b"key%02d" % i, b"value%02d" % i)
    return [KVOperation.get(b"key%02d" % (i % 8), seq=i)
            for i in range(count)]


NAN = float("nan")

#: Every client robustness knob, set to NaN: each comparison against NaN
#: is False, so a check written ``x < 0`` let it through.
NAN_KNOBS = {
    "backoff base": lambda: BackoffPolicy(NAN),
    "backoff cap": lambda: BackoffPolicy(1.0, max_ns=NAN),
    "budget capacity": lambda: RetryBudget(capacity=NAN),
    "budget refill": lambda: RetryBudget(refill_per_success=NAN),
    "breaker window": lambda: CircuitBreaker(FakeClock(), window_ns=NAN),
    "breaker open period": lambda: CircuitBreaker(FakeClock(), open_ns=NAN),
    "breaker samples": lambda: CircuitBreaker(FakeClock(), min_samples=NAN),
    "deadline budget": lambda: KVClient(
        Simulator(), None, deadline_budget_ns=NAN
    ),
}


@pytest.mark.parametrize("knob", sorted(NAN_KNOBS))
def test_a_nan_knob_is_rejected_at_construction(knob):
    """Regression: each was accepted, and then never refused (a NaN budget
    or breaker window), ignored (a NaN cap) or raised mid-run."""
    with pytest.raises(ConfigurationError):
        NAN_KNOBS[knob]()


#: Every retry limit: the module constant an owner builds one of its
#: retry policies from, and a build of that owner.
RETRY_LIMITS = {
    "router retry limit": (
        router_module, "RETRY_LIMIT", lambda: ClusterRouter(Simulator(), None)
    ),
    "loss retry limit": (
        client_module, "RETRY_LIMIT", lambda: KVClient(Simulator(), None)
    ),
    "busy retry limit": (
        client_module, "BUSY_RETRY_LIMIT", lambda: KVClient(Simulator(), None)
    ),
}


@pytest.mark.parametrize("limit", sorted(RETRY_LIMITS))
@pytest.mark.parametrize("value", [NAN, 2.5, True, -1, "3"],
                         ids=["nan", "float", "bool", "negative", "str"])
def test_a_retry_limit_must_be_a_non_negative_int(limit, value, monkeypatch):
    """Regression: NaN, 2.5 and True passed the ``< 0`` test; a NaN limit
    is never reached, so the router retried until the backoff overflowed.
    Each owner's retry policy refuses such a limit at construction."""
    module, name, build = RETRY_LIMITS[limit]
    monkeypatch.setattr(module, name, value)
    with pytest.raises(ConfigurationError, match="non-negative int"):
        build()
    monkeypatch.setattr(module, name, 0)
    build()  # the bound itself is accepted


class TestBackoffBeyondTheFloatRange:
    """Regression: ``base * 2 ** (attempt - 1)`` was converted to a float
    before the cap applied, so attempt 1026 raised OverflowError."""

    def test_a_capped_delay_saturates_instead_of_raising(self):
        policy = BackoffPolicy(1000.0, max_ns=100000.0)
        assert policy.delay(1026) == policy.delay(10**6) == 100000.0

    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    def test_every_representable_attempt_keeps_its_delay_and_one_draw(
        self, jitter
    ):
        """Below the cap the delay is the old product to the bit, and each
        call, overflowing or not, takes the one jitter draw it took."""
        for base, cap in ((1000.0, 100000.0), (0.5, None), (3.0, 1e300)):
            policy = BackoffPolicy(base, max_ns=cap, jitter=jitter, seed=5)
            twin = random.Random("backoff:5:loss")
            for attempt in range(1, 1025):
                old = base * (2 ** (attempt - 1))
                if cap is not None:
                    old = min(old, cap)
                if jitter:
                    old *= 1.0 + jitter * twin.random()
                assert policy.delay(attempt) == old, (base, attempt)
            if cap is not None:
                for attempt in (1025, 1026, 5000):
                    expected = cap * (1.0 + jitter * twin.random()) if (
                        jitter
                    ) else cap
                    assert policy.delay(attempt) == expected

    def test_a_long_retry_run_gives_up_instead_of_overflowing(
        self, monkeypatch
    ):
        """A dead node whose slots have no backup: the router's retries
        run past attempt 1025 and end in RetryExhausted."""
        monkeypatch.setattr(router_module, "RETRY_LIMIT", 2000)
        sim = Simulator()
        cluster = Cluster(
            sim, num_nodes=1, num_slots=2,
            config=KVDirectConfig(memory_size=1 << 20),
        )
        cluster.nodes[0].die()
        router = ClusterRouter(sim, cluster)
        outcome = []

        def runner():
            try:
                yield performed(router, KVOperation.get(b"key", seq=0))
            except RetryExhausted as exc:
                outcome.append(exc)

        sim.process(runner())
        sim.run()
        assert len(outcome) == 1 and "NACKed 2001 times" in str(outcome[0])
        assert router.counters.get("give_ups") == 1


class TestClientLossRetries:
    def test_retry_limit_zero_fails_fast(self, monkeypatch):
        _patch(monkeypatch, RETRY_LIMIT=0)
        sim, store, client = _client_setup(
            plan=FaultPlan(packet_loss_prob=1.0), batch_size=8,
        )
        with pytest.raises(RetryExhausted, match="retry limit 0"):
            client.run(_gets(store, count=8))
        assert client.retries == 0

    def test_exhaustion_message_reports_time_waited(self, monkeypatch):
        _patch(monkeypatch, RETRY_LIMIT=3, RETRY_BACKOFF_NS=1000.0)
        sim, store, client = _client_setup(
            plan=FaultPlan(packet_loss_prob=1.0), batch_size=8,
        )
        # Deterministic uncapped schedule: 1000 + 2000 + 4000 ns waited
        # before the fourth loss exhausts the limit.
        with pytest.raises(
            RetryExhausted, match=r"waited 7000 ns in backoff"
        ):
            client.run(_gets(store, count=8))

    def test_cap_bounds_the_waited_time(self, monkeypatch):
        _patch(
            monkeypatch, RETRY_LIMIT=3, RETRY_BACKOFF_NS=1000.0,
            MAX_BACKOFF_NS=1500.0, BUSY_BACKOFF_NS=500.0,
        )
        sim, store, client = _client_setup(
            plan=FaultPlan(packet_loss_prob=1.0), batch_size=8,
        )
        # Capped: 1000 + 1500 + 1500 ns.
        with pytest.raises(
            RetryExhausted, match=r"waited 4000 ns in backoff"
        ):
            client.run(_gets(store, count=8))

    def test_budget_exhaustion_fails_fast_before_limit(self, monkeypatch):
        _patch(monkeypatch, RETRY_LIMIT=50)
        budget = RetryBudget(capacity=2.0, refill_per_success=0.0)
        sim, store, client = _client_setup(
            plan=FaultPlan(packet_loss_prob=1.0), batch_size=8,
            retry_budget=budget,
        )
        with pytest.raises(RetryExhausted, match="retry budget"):
            client.run(_gets(store, count=8))
        assert budget.refused >= 1
        assert client.retries < 50

    def test_lossy_run_with_jitter_is_deterministic(self, monkeypatch):
        _patch(monkeypatch, RETRY_LIMIT=16, BACKOFF_JITTER=0.3)

        def run():
            sim, store, client = _client_setup(
                plan=FaultPlan(packet_loss_prob=0.2), seed=9, batch_size=8,
            )
            stats = client.run(_gets(store, count=48))
            return stats.as_dict(), sim.now
        assert run() == run()


class TestClientBusyRetries:
    """ServerBusy NACKs retry on their own counter and backoff stream."""

    def _busy_run(self, monkeypatch, busy_retry_limit, **kwargs):
        # One token and a one-deep queue: any burst sheds most of a batch.
        _patch(
            monkeypatch, BUSY_RETRY_LIMIT=busy_retry_limit,
            BUSY_BACKOFF_NS=500.0,
        )
        defaults = dict(
            overload=OverloadPolicy(queue_depth=1), max_inflight=1,
            batch_size=16,
        )
        defaults.update(kwargs)
        sim, store, client = _client_setup(**defaults)
        stats = client.run(_gets(store, count=16))
        return sim, client, stats

    def test_nacks_are_retried_to_completion(self, monkeypatch):
        sim, client, stats = self._busy_run(monkeypatch, 64)
        assert stats.busy_nacks > 0
        assert stats.busy_retries > 0
        assert stats.failed_ops == 0
        assert len(client.responses) == 16
        # Loss retries are a different counter; no loss was injected.
        assert stats.retries == 0

    def test_busy_retry_limit_gives_up(self, monkeypatch):
        sim, client, stats = self._busy_run(
            monkeypatch, 0, max_outstanding_batches=1
        )
        assert stats.busy_give_ups > 0
        assert stats.busy_give_ups == stats.failed_ops
        assert stats.busy_retries == 0

    def test_every_op_shed_reports_no_latency(self, monkeypatch):
        """Regression: a client that completed no op reported 0.0 ns
        latencies - a zero-latency success - where every other driver
        reports None."""
        _patch(monkeypatch, BUSY_RETRY_LIMIT=0)
        sim, store, client = _client_setup(
            overload=OverloadPolicy(queue_depth=1), max_inflight=1,
            batch_size=8,
        )
        ops = _gets(store, count=8)
        # Take the one slot and the one queue place first, so every client
        # op arrives at a full queue and is shed.
        admission = client.processor.admission
        admission.submit(KVOperation.get(b"holder"), ignore)
        admission.submit(KVOperation.get(b"waiter"), ignore)
        stats = client.run(ops)
        assert stats.busy_give_ups == stats.failed_ops == len(ops)
        assert [
            stats.latency_mean_ns, stats.latency_p50_ns,
            stats.latency_p95_ns, stats.latency_p99_ns,
        ] == [None] * 4
        assert _latency_rows(stats.as_dict())[1:] == [
            ["p50 latency", "n/a"], ["p99 latency", "n/a"]
        ]

    def test_budget_stops_busy_retries(self, monkeypatch):
        budget = RetryBudget(capacity=1.0, refill_per_success=0.0)
        sim, client, stats = self._busy_run(
            monkeypatch, 64, retry_budget=budget
        )
        assert stats.busy_give_ups > 0
        assert budget.refused >= 1

    def test_breaker_opens_under_sustained_nacks(self, monkeypatch):
        _patch(monkeypatch, BUSY_RETRY_LIMIT=64, BUSY_BACKOFF_NS=200.0)
        breaker = None
        sim, store, client = (None, None, None)
        store = KVDirectStore.create(
            memory_size=4 << 20,
            overload=OverloadPolicy(queue_depth=1),
            max_inflight=1, seed=0,
        )
        sim = Simulator()
        breaker = CircuitBreaker(
            lambda: sim.now, window_ns=1e6,
            failure_threshold=0.5, min_samples=4, open_ns=5000.0,
        )
        processor = KVProcessor(sim, store)
        client = KVClient(sim, processor, batch_size=16, breaker=breaker)
        stats = client.run(_gets(store, count=32))
        assert stats.busy_nacks > 0
        assert stats.breaker_opens == breaker.opens
        assert breaker.opens > 0
        assert len(client.responses) + stats.failed_ops == 32

    def test_metrics_gauges_registered(self):
        budget = RetryBudget()
        sim, store, client = _client_setup(
            overload=OverloadPolicy(queue_depth=1), max_inflight=1,
            batch_size=16, retry_budget=budget,
            breaker=CircuitBreaker(FakeClock()),
        )
        registry = client.register_metrics(MetricsRegistry())
        exported = json.loads(registry.to_json())
        for name in (
            "client.busy_nacks",
            "client.busy_retries",
            "client.deadline_expired",
            "client.breaker_state",
            "client.breaker_opens",
            "client.retry_budget_tokens",
        ):
            assert name in exported
        assert exported["client.retry_budget_tokens"] == budget.capacity

    def test_validation(self):
        sim = Simulator()
        store = KVDirectStore.create(memory_size=4 << 20)
        processor = KVProcessor(sim, store)
        with pytest.raises(ConfigurationError):
            KVClient(sim, processor, deadline_budget_ns=0.0)


class TestClientDeadlines:
    def test_tight_budget_expires_server_side(self, monkeypatch):
        _patch(monkeypatch, BUSY_RETRY_LIMIT=0)
        sim, store, client = _client_setup(
            batch_size=8, deadline_budget_ns=60.0,
        )
        stats = client.run(_gets(store, count=16))
        assert stats.deadline_expired > 0
        assert stats.deadline_expired == stats.failed_ops

    def test_generous_budget_is_invisible(self):
        sim, store, client = _client_setup(
            batch_size=8, deadline_budget_ns=1e12,
        )
        stats = client.run(_gets(store, count=16))
        assert stats.deadline_expired == 0
        assert stats.failed_ops == 0
        assert len(client.responses) == 16
