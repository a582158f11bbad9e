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
from typing import Callable, Dict, Generator, List, Optional, Tuple

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
from repro.sim.engine import Event, Process, Simulator
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

    def start(self, ops: List[KVOperation]) -> Process:
        """Launch the run as a simulated process without blocking.

        Lets several clients (e.g. one per shard, see
        :class:`~repro.client.router.ShardRouter`) be driven concurrently
        under one ``sim.run``; the returned process settles when every
        batch has, and fails if a batch exhausts its retries."""
        if not ops:
            raise ConfigurationError("no operations to run")
        return self.sim.process(self._run(ops))

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

    def _run(self, ops: List[KVOperation]) -> Generator:
        batches = [
            ops[i : i + self.batch_size]
            for i in range(0, len(ops), self.batch_size)
        ]
        if not batches:
            return
        state = {"outstanding": 0, "next": 0, "done": 0, "total": len(batches)}
        all_done = self.sim.event()

        def watch(proc: Process) -> None:
            # A batch that exhausts its retries fails its process; surface
            # that instead of deadlocking the run.
            def on_settle(event: Event) -> None:
                if event.exception is not None and not all_done.triggered:
                    all_done.fail(event.exception)

            proc.add_callback(on_settle)

        def launch() -> None:
            while (
                state["next"] < state["total"]
                and state["outstanding"] < self.max_outstanding
            ):
                batch = batches[state["next"]]
                state["next"] += 1
                state["outstanding"] += 1
                watch(self.sim.process(self._send_batch(batch, on_batch_done)))

        def on_batch_done() -> None:
            state["outstanding"] -= 1
            state["done"] += 1
            if state["done"] == state["total"]:
                if not all_done.triggered:
                    all_done.succeed()
            else:
                launch()

        launch()
        yield all_done

    def _send_batch(self, batch: List[KVOperation], callback) -> Generator:
        start = self.sim.now
        network = self.processor.network
        deadline = (
            self.sim.now + self.deadline_budget_ns
            if self.deadline_budget_ns is not None
            else None
        )
        pending = batch
        busy_attempt = 0
        completed = 0
        while True:
            yield from self._breaker_gate()
            payload = encode_batch(
                pending, checksum=self.checksum, deadline_ns=deadline
            )
            wire = packet_wire_bytes(len(payload))
            self._trace(
                "client.batch.send", f"ops={len(pending)} wire={wire}B"
            )
            # Request flight: serialization on the port plus propagation.  A
            # lost request never reached the server; resend the whole batch.
            yield from self._flight_with_retries(
                lambda w=wire: network.receive(w), wire, "request"
            )
            # Server side: verify + unpack as the NIC batch decoder would,
            # then process every op.  (The submitted ops keep their seq
            # numbers; the decode is the integrity check.)
            if self.checksum:
                decode_batch(payload, checksum=True)
            events = [
                self.processor.submit(op, deadline_ns=deadline)
                for op in pending
            ]
            yield self._settled(events)
            busy_ops, succeeded = self._collect(pending, events)
            completed += succeeded
            # Response flight back to the client.  These ops already
            # executed (or were NACKed), so only the send retries (server
            # retransmit buffer).
            response_payload = sum(_response_size(event) for event in events)
            response_wire = packet_wire_bytes(response_payload)
            yield from self._flight_with_retries(
                lambda w=response_wire: network.send(w, nacks=len(busy_ops)),
                response_wire,
                "response",
            )
            if not busy_ops:
                break
            busy_attempt += 1
            if busy_attempt > self.busy_retry_limit:
                self._give_up(busy_ops, "busy retry limit")
                break
            if self.retry_budget is not None and not (
                self.retry_budget.try_spend()
            ):
                self._give_up(busy_ops, "retry budget exhausted")
                break
            self.busy_retries += 1
            delay = self._busy_backoff.delay(busy_attempt)
            self._trace(
                "client.busy_retry",
                f"ops={len(busy_ops)} attempt={busy_attempt} "
                f"backoff={delay:.0f}ns",
            )
            yield self.sim.timeout(delay)
            pending = busy_ops
        latency = self.sim.now - start
        self._trace("client.batch.done", f"ops={len(batch)}")
        # One sample per op that succeeded: like the processor's, the
        # client's latencies time completed ops only.
        self.latencies.extend([latency] * completed)
        callback()

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

    def _breaker_gate(self) -> Generator:
        """Hold the batch while the circuit breaker is open."""
        if self.breaker is None:
            return
        while not self.breaker.allow():
            wait = max(self.breaker.wait_ns(), 1.0)
            self._trace("client.breaker.wait", f"{wait:.0f}ns")
            yield self.sim.timeout(wait)

    def _flight_with_retries(
        self, flight: Callable[[], Event], wire: int, direction: str
    ) -> Generator:
        """Run one network flight, retrying injected losses with capped
        exponential backoff; raises
        :class:`~repro.errors.RetryExhausted` past the retry limit."""
        attempt = 0
        waited = 0.0
        while True:
            if direction == "request":
                self._request_bytes += wire
            else:
                self._response_bytes += wire
            try:
                yield flight()
            except FaultInjected as exc:
                attempt += 1
                if attempt > self.retry_limit:
                    raise RetryExhausted(
                        f"{direction} flight lost {attempt} times "
                        f"(retry limit {self.retry_limit}, waited "
                        f"{waited:.0f} ns in backoff)"
                    ) from exc
                if self.retry_budget is not None and not (
                    self.retry_budget.try_spend()
                ):
                    raise RetryExhausted(
                        f"{direction} flight lost {attempt} times and the "
                        f"shared retry budget is exhausted (waited "
                        f"{waited:.0f} ns in backoff)"
                    ) from exc
                self.retries += 1
                delay = self._loss_backoff.delay(attempt)
                waited += delay
                self._trace(
                    "client.retry",
                    f"{direction} attempt={attempt} backoff={delay:.0f}ns",
                )
                yield self.sim.timeout(delay)
                continue
            if self.retry_budget is not None:
                self.retry_budget.on_success()
            return

    def _settled(self, events: List[Event]) -> Event:
        """An event firing once every op event settled - succeeded *or*
        failed.  (``sim.all_of`` fails fast, which would abandon the rest
        of the batch mid-flight.)"""
        gate = self.sim.event()
        state = {"remaining": len(events)}

        def on_settle(event: Event) -> None:
            state["remaining"] -= 1
            if state["remaining"] == 0:
                gate.succeed()

        if not events:
            gate.succeed()
            return gate
        for event in events:
            event.add_callback(on_settle)
        return gate


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
