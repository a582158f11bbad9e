"""The KV-Direct client: batches operations into RDMA packets (section 4).

"KV-Direct client packs KV operations in network packets to mitigate packet
header overhead.  Network batching increases network throughput by up to 4x,
while keeping networking latency below 3.5 us" (Figure 15).

The client measures what the paper's FPGA packet generator measures:
sustainable throughput and request-to-response latency including both
network directions and batching delay.

Reliability: with a fault plan injecting packet loss, the client retries
lost flights with exponential backoff.  A lost *request* never reached the
server, so the whole batch is resent; a lost *response* carries results of
operations that already executed, so only the response flight is
retransmitted (the server keeps a retransmit buffer) - atomics are never
applied twice.  When the retry budget is exhausted the batch fails with
:class:`~repro.errors.RetryExhausted`.

Overload coherence (see ``docs/ROBUSTNESS.md``): batches may carry an
absolute deadline on the wire; :class:`~repro.errors.ServerBusy` NACKs
from the server's shed policy are retried on a backoff schedule *distinct*
from loss retries, gated by a shared :class:`~repro.client.robust.RetryBudget`
and a :class:`~repro.client.robust.CircuitBreaker` so a fleet of retrying
clients cannot amplify the very overload being shed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.client.robust import BackoffPolicy, CircuitBreaker, RetryBudget
from repro.core.operations import KVOperation, KVResult
from repro.core.processor import KVProcessor
from repro.driver import latency_fields
from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    FaultInjected,
    RetryExhausted,
    ServerBusy,
)
from repro.network.batching import decode_batch, encode_batch
from repro.network.rdma import packet_wire_bytes
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Event, Simulator
from repro.sim.stats import Histogram, mops


@dataclass
class ClientStats:
    """Outcome of one client run."""

    operations: int
    elapsed_ns: float
    throughput_mops: float
    #: None when no op completed (see :func:`~repro.driver.latency_fields`).
    latency_mean_ns: Optional[float]
    latency_p50_ns: Optional[float]
    latency_p95_ns: Optional[float]
    latency_p99_ns: Optional[float]
    request_bytes_on_wire: int
    response_bytes_on_wire: int
    #: Flights retransmitted after injected packet loss.
    retries: int = 0
    #: Operations whose server-side execution failed (fault surfaced).
    failed_ops: int = 0
    #: ServerBusy NACKs received from the server's shed policy.
    busy_nacks: int = 0
    #: Batch re-sends triggered by ServerBusy NACKs (busy backoff stream).
    busy_retries: int = 0
    #: Operations abandoned after the busy retry limit / budget ran out.
    busy_give_ups: int = 0
    #: Operations the server expired against the batch deadline.
    deadline_expired: int = 0
    #: Times the circuit breaker opened during the run.
    breaker_opens: int = 0

    def as_dict(self) -> Dict[str, Optional[float]]:
        return {
            "operations": float(self.operations),
            "elapsed_ns": self.elapsed_ns,
            "throughput_mops": self.throughput_mops,
            "latency_mean_ns": self.latency_mean_ns,
            "latency_p50_ns": self.latency_p50_ns,
            "latency_p95_ns": self.latency_p95_ns,
            "latency_p99_ns": self.latency_p99_ns,
            "retries": float(self.retries),
            "failed_ops": float(self.failed_ops),
            "busy_nacks": float(self.busy_nacks),
            "busy_retries": float(self.busy_retries),
            "busy_give_ups": float(self.busy_give_ups),
            "deadline_expired": float(self.deadline_expired),
            "breaker_opens": float(self.breaker_opens),
        }


class KVClient:
    """Drives a :class:`~repro.core.processor.KVProcessor` over the network."""

    def __init__(
        self,
        sim: Simulator,
        processor: KVProcessor,
        batch_size: int = 32,
        max_outstanding_batches: int = 16,
        retry_limit: int = 8,
        retry_backoff_ns: float = 1000.0,
        checksum: bool = False,
        max_backoff_ns: Optional[float] = None,
        backoff_jitter: float = 0.0,
        seed: int = 0,
        deadline_budget_ns: Optional[float] = None,
        busy_retry_limit: int = 4,
        busy_backoff_ns: float = 2000.0,
        retry_budget: Optional[RetryBudget] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        if batch_size <= 0:
            raise ConfigurationError("batch size must be positive")
        if max_outstanding_batches <= 0:
            raise ConfigurationError("need at least one outstanding batch")
        if type(retry_limit) is not int or retry_limit < 0:
            raise ConfigurationError(
                f"retry limit must be a non-negative int: {retry_limit!r}"
            )
        if not retry_backoff_ns >= 0:
            raise ConfigurationError("retry backoff must be non-negative")
        if type(busy_retry_limit) is not int or busy_retry_limit < 0:
            raise ConfigurationError(
                "busy retry limit must be a non-negative int: "
                f"{busy_retry_limit!r}"
            )
        if not busy_backoff_ns >= 0:
            raise ConfigurationError("busy backoff must be non-negative")
        if deadline_budget_ns is not None and not deadline_budget_ns > 0:
            raise ConfigurationError("deadline budget must be positive")
        self.sim = sim
        self.processor = processor
        self.batch_size = batch_size
        self.max_outstanding = max_outstanding_batches
        self.retry_limit = retry_limit
        self.retry_backoff_ns = retry_backoff_ns
        #: Seal request payloads with the FNV-1a integrity trailer.
        self.checksum = checksum
        #: Per-batch deadline: stamped on the wire as ``now + budget``.
        self.deadline_budget_ns = deadline_budget_ns
        self.busy_retry_limit = busy_retry_limit
        self.retry_budget = retry_budget
        self.breaker = breaker
        #: Loss retries and ServerBusy retries back off on *independent*
        #: seeded streams - a loss burst must not perturb busy pacing.
        self._loss_backoff = BackoffPolicy(
            retry_backoff_ns,
            max_ns=max_backoff_ns,
            jitter=backoff_jitter,
            seed=seed,
            stream="loss",
        )
        self._busy_backoff = BackoffPolicy(
            busy_backoff_ns,
            max_ns=max_backoff_ns,
            jitter=backoff_jitter,
            seed=seed,
            stream="busy",
        )
        self.latencies = Histogram()
        #: Responses keyed by op sequence number (ops with seq >= 0;
        #: latest write wins on a reused seq).
        self.responses: Dict[int, KVResult] = {}
        self.retries = 0
        self.failed_ops = 0
        self.busy_nacks = 0
        self.busy_retries = 0
        self.busy_give_ups = 0
        self.deadline_expired = 0
        self._request_bytes = 0
        self._response_bytes = 0

    # -- public -----------------------------------------------------------------

    def run(self, ops: List[KVOperation]) -> ClientStats:
        """Send all operations; blocks (simulated) until every response."""
        done = self.start(ops)
        self.sim.run(done)
        return self.collect_stats(len(ops), self.sim.now)

    def start(self, ops: List[KVOperation]) -> Event:
        """Launch the run without blocking; returns its settle event.

        Lets several clients (e.g. one per shard, see
        :class:`~repro.client.router.ShardRouter`) be driven concurrently
        under one ``sim.run``; the event succeeds when every batch has
        finished, and fails if a batch exhausts its retries.  The run
        kick-starts on the next entry at the current instant."""
        if not ops:
            raise ConfigurationError("no operations to run")
        run = _Run(self, ops)
        self.sim.call_soon(run.launch)
        return run.settle

    def collect_stats(self, operations: int, elapsed_ns: float) -> ClientStats:
        """Snapshot this client's counters into a :class:`ClientStats`.

        A run where no op completed records no latencies; its latency
        fields are None (:func:`~repro.driver.latency_fields`), not a
        zero-latency success.
        """
        latencies = self.latencies
        # The mean first: it folds the samples in insertion order, which
        # the percentiles' sort would change.
        mean = latencies.mean() if latencies.count else None
        fields = latency_fields(latencies)
        fields["latency_mean_ns"] = mean
        return ClientStats(
            operations=operations,
            elapsed_ns=elapsed_ns,
            throughput_mops=mops(operations, elapsed_ns),
            **fields,
            request_bytes_on_wire=self._request_bytes,
            response_bytes_on_wire=self._response_bytes,
            retries=self.retries,
            failed_ops=self.failed_ops,
            busy_nacks=self.busy_nacks,
            busy_retries=self.busy_retries,
            busy_give_ups=self.busy_give_ups,
            deadline_expired=self.deadline_expired,
            breaker_opens=self.breaker.opens if self.breaker else 0,
        )

    def register_metrics(
        self, registry: MetricsRegistry, prefix: str = "client"
    ) -> MetricsRegistry:
        """Register the client's live metrics under ``prefix``."""
        registry.register(f"{prefix}.latency_ns", self.latencies)
        registry.register_gauge(f"{prefix}.retries", lambda: self.retries)
        registry.register_gauge(
            f"{prefix}.failed_ops", lambda: self.failed_ops
        )
        registry.register_gauge(
            f"{prefix}.request_bytes", lambda: self._request_bytes
        )
        registry.register_gauge(
            f"{prefix}.response_bytes", lambda: self._response_bytes
        )
        registry.register_gauge(
            f"{prefix}.busy_nacks", lambda: self.busy_nacks
        )
        registry.register_gauge(
            f"{prefix}.busy_retries", lambda: self.busy_retries
        )
        registry.register_gauge(
            f"{prefix}.deadline_expired", lambda: self.deadline_expired
        )
        if self.breaker is not None:
            registry.register_gauge(
                f"{prefix}.breaker_state", self.breaker.state_code
            )
            breaker = self.breaker
            registry.register_gauge(
                f"{prefix}.breaker_opens", lambda: breaker.opens
            )
        if self.retry_budget is not None:
            budget = self.retry_budget
            registry.register_gauge(
                f"{prefix}.retry_budget_tokens", lambda: budget.tokens
            )
        return registry

    # -- internals ---------------------------------------------------------------

    def _trace(self, stage: str, detail: str = "") -> None:
        tracer = self.processor.tracer
        if tracer is not None:
            tracer.emit(-1, stage, detail)

    def _collect(
        self, pending: List[KVOperation], events: List[Event]
    ) -> Tuple[List[KVOperation], int]:
        """Harvest one round of responses; return the NACKed ops and how
        many ops succeeded.  Every event has settled, so its ``_exception``
        and ``_value`` are read directly, as the processor reads them."""
        busy_ops: List[KVOperation] = []
        succeeded = 0
        for op, event in zip(pending, events):
            exc = event._exception
            if exc is None:
                succeeded += 1
                result = event._value
                if result.seq >= 0:
                    self.responses[result.seq] = result
                if self.breaker is not None:
                    self.breaker.record(True)
                if self.retry_budget is not None:
                    self.retry_budget.on_success()
                continue
            if isinstance(exc, ServerBusy):
                self.busy_nacks += 1
                busy_ops.append(op)
                if self.breaker is not None:
                    self.breaker.record(False)
            elif isinstance(exc, DeadlineExceeded):
                self.deadline_expired += 1
                self.failed_ops += 1
                if self.breaker is not None:
                    self.breaker.record(False)
            else:
                self.failed_ops += 1
        return busy_ops, succeeded

    def _give_up(self, busy_ops: List[KVOperation], why: str) -> None:
        """Abandon NACKed ops: fail fast rather than retry-storm."""
        self.busy_give_ups += len(busy_ops)
        self.failed_ops += len(busy_ops)
        self._trace("client.busy_give_up", f"ops={len(busy_ops)} ({why})")


class _Run:
    """One :meth:`KVClient.start`: up to ``max_outstanding`` batches in
    flight, the next launched as one finishes.  ``settle`` completes where
    the run process's completion was queued: one entry after the last
    batch's, or two after the first failed batch's."""

    __slots__ = ("client", "batches", "next", "running", "failed", "settle")

    def __init__(self, client: KVClient, ops: List[KVOperation]) -> None:
        size = client.batch_size
        self.client = client
        self.batches = [ops[i : i + size] for i in range(0, len(ops), size)]
        self.next = self.running = 0
        self.failed = False
        self.settle = client.sim.event()

    def launch(self, _kick=None) -> None:
        client = self.client
        while (
            self.next < len(self.batches)
            and self.running < client.max_outstanding
        ):
            batch = _Batch(client, self, self.batches[self.next])
            self.next += 1
            self.running += 1
            client.sim.call_soon(batch.send)

    def batch_done(self) -> None:
        self.running -= 1
        if self.running or self.next < len(self.batches):
            self.launch()
        else:
            self.client.sim.call_soon(self.finish)

    def finish(self, _kick) -> None:
        self.client.sim.finish(self.settle)

    def batch_failed(self, failed: Event) -> None:
        if not self.failed:
            self.failed = True
            self.client.sim.fail(self.fail, failed.exception)

    def fail(self, failed: Event) -> None:
        self.settle.fail(failed.exception)


class _Batch:
    """One batch as a chain: the request flight, every op submitted and
    settled, the response flight, then busy-retry rounds for the NACKed
    ops.  A lost request never reached the server, so the whole batch is
    resent; a lost response carries results of ops that already executed,
    so only it is resent (the server's retransmit buffer) - each after a
    loss backoff, and a batch out of retries fails its run."""

    __slots__ = ("client", "run", "ops", "pending", "start", "deadline",
                 "busy_attempt", "completed", "payload", "wire", "response",
                 "attempt", "waited", "events", "remaining", "busy_ops")

    def __init__(self, client: KVClient, run: _Run, ops) -> None:
        self.client, self.run = client, run
        self.ops = self.pending = ops
        self.busy_attempt = self.completed = 0
        # The batch kick-starts at this instant.
        self.start = client.sim.now
        budget = client.deadline_budget_ns
        self.deadline = None if budget is None else self.start + budget

    def send(self, _kick) -> None:
        """One round: wait out an open breaker, then the request flight."""
        client = self.client
        breaker = client.breaker
        if breaker is not None and not breaker.allow():
            wait = max(breaker.wait_ns(), 1.0)
            client._trace("client.breaker.wait", f"{wait:.0f}ns")
            client.sim.call_after(wait, self.send)
            return
        self.payload = encode_batch(
            self.pending, checksum=client.checksum, deadline_ns=self.deadline
        )
        self.wire = packet_wire_bytes(len(self.payload))
        client._trace(
            "client.batch.send", f"ops={len(self.pending)} wire={self.wire}B"
        )
        self.fly(False)

    def fly(self, response: bool) -> None:
        self.response = response
        self.attempt = 0
        self.waited = 0.0
        self.retry(None)

    def retry(self, _kick) -> None:
        client = self.client
        network = client.processor.network
        if self.response:
            client._response_bytes += self.wire
            transfer = network.send(self.wire, nacks=len(self.busy_ops))
        else:
            client._request_bytes += self.wire
            transfer = network.receive(self.wire)
        transfer.callbacks.append(self.landed)

    def landed(self, transfer: Event) -> None:
        client = self.client
        error = transfer._exception
        if error is None:
            if client.retry_budget is not None:
                client.retry_budget.on_success()
            if self.response:
                self.answered()
            else:
                self.submit()
            return
        if isinstance(error, FaultInjected):
            self.attempt += 1
            direction = "response" if self.response else "request"
            lost = f"{direction} flight lost {self.attempt} times"
            waited = f"waited {self.waited:.0f} ns in backoff"
            budget = client.retry_budget
            if self.attempt > client.retry_limit:
                error = RetryExhausted(
                    f"{lost} (retry limit {client.retry_limit}, {waited})"
                )
            elif budget is not None and not budget.try_spend():
                error = RetryExhausted(
                    f"{lost} and the shared retry budget is exhausted "
                    f"({waited})"
                )
            else:
                client.retries += 1
                delay = client._loss_backoff.delay(self.attempt)
                self.waited += delay
                client._trace(
                    "client.retry",
                    f"{direction} attempt={self.attempt} "
                    f"backoff={delay:.0f}ns",
                )
                client.sim.call_after(delay, self.retry)
                return
            error.__cause__ = transfer._exception
        client.sim.fail(self.run.batch_failed, error)

    def submit(self) -> None:
        """Server side: verify and unpack as the NIC batch decoder would,
        then process every op.  (The submitted ops keep their seq numbers;
        the decode is the integrity check.)  The round resumes once every
        op has settled - succeeded *or* failed."""
        client = self.client
        if client.checksum:
            decode_batch(self.payload, checksum=True)
        submit, deadline = client.processor.submit, self.deadline
        self.events = [submit(op, deadline_ns=deadline) for op in self.pending]
        self.remaining = len(self.events)
        for event in self.events:
            event.callbacks.append(self.settled)

    def settled(self, _event: Event) -> None:
        self.remaining -= 1
        if not self.remaining:
            self.client.sim.call_soon(self.harvest)

    def harvest(self, _kick) -> None:
        """Collect the round's responses and send them back."""
        client = self.client
        self.busy_ops, succeeded = client._collect(self.pending, self.events)
        self.completed += succeeded
        payload = sum(_response_size(event) for event in self.events)
        self.wire = packet_wire_bytes(payload)
        self.fly(True)

    def answered(self) -> None:
        """Retry the NACKed ops on the busy backoff stream, or finish."""
        client = self.client
        busy_ops = self.busy_ops
        if busy_ops:
            self.busy_attempt += 1
            budget = client.retry_budget
            if self.busy_attempt > client.busy_retry_limit:
                client._give_up(busy_ops, "busy retry limit")
            elif budget is not None and not budget.try_spend():
                client._give_up(busy_ops, "retry budget exhausted")
            else:
                client.busy_retries += 1
                delay = client._busy_backoff.delay(self.busy_attempt)
                client._trace(
                    "client.busy_retry",
                    f"ops={len(busy_ops)} attempt={self.busy_attempt} "
                    f"backoff={delay:.0f}ns",
                )
                self.pending = busy_ops
                client.sim.call_after(delay, self.send)
                return
        latency = client.sim.now - self.start
        client._trace("client.batch.done", f"ops={len(self.ops)}")
        # One sample per op that succeeded: like the processor's, the
        # client's latencies time completed ops only.
        client.latencies.extend([latency] * self.completed)
        self.run.batch_done()


def _response_size(event: Event) -> int:
    """Bytes one settled result occupies in a response packet."""
    base = 4  # opcode + status + sequence echo
    if event._exception is None:
        value = event._value.value
        if value is not None:
            return base + 2 + len(value)
    return base


def run_unbatched(
    sim: Simulator,
    processor: KVProcessor,
    ops: List[KVOperation],
    max_outstanding: int = 64,
) -> ClientStats:
    """One op per packet - the Figure 15/17 'no batching' baseline."""
    client = KVClient(
        sim, processor, batch_size=1, max_outstanding_batches=max_outstanding
    )
    return client.run(ops)
