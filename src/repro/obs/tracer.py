"""Per-operation tracing with deterministic sampling.

A :class:`Tracer` records one :class:`Span` per pipeline stage an
operation crosses - ingress/decode, reservation-station admit-or-queue
(and forwarding), main pipeline, load-dispatcher routing, DMA / NIC-DRAM
access (plus ECC events and fault retries), and completion.  Spans carry
the simulated timestamp and are appended in event-loop order, which the
simulator makes fully deterministic - two runs of the same seeded
configuration emit **byte-identical** span logs (asserted via
:meth:`Tracer.digest`, the same guarantee the fault injector gives its
schedules).

Sampling is *hash-based*, not drawn from an RNG stream: whether an
operation is traced depends only on ``(tracer seed, op seq)``, so changing
the sampling rate or adding trace points never perturbs which other
operations are sampled, and the decision is identical across processes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.hashing import fnv1a64
from repro.errors import ConfigurationError
from repro.sim.stats import Counter

#: Denominator of the 64-bit sampling hash.
_HASH_SPACE = float(1 << 64)

_M64 = (1 << 64) - 1


def _finalize(x: int) -> int:
    """MurmurHash3 64-bit finalizer.

    Raw FNV-1a of short, similar strings ("7:0", "7:1", ...) barely moves
    the high bits, so draws cluster instead of spreading over [0, 1); the
    avalanche pass makes every input bit affect every output bit.
    """
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & _M64
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & _M64
    x ^= x >> 33
    return x

#: Timestamp used for spans emitted outside simulated time (functional
#: layer, untimed client bookkeeping).
UNTIMED = -1.0


@dataclass(frozen=True)
class Span:
    """One stage crossing of one operation."""

    #: Global emission ordinal (position in the trace log).
    index: int
    #: Client sequence number of the operation; -1 for internal work
    #: (write-backs, whole-batch network flights).
    seq: int
    #: Stage name, e.g. ``"station.queued"`` or ``"pcie.read"``.
    stage: str
    #: Simulated time in ns, or :data:`UNTIMED` for untimed spans.
    at_ns: float
    detail: str = ""

    def render(self) -> str:
        """Canonical one-line rendering (what the span log ships)."""
        line = f"{self.index:06d} seq={self.seq} at={self.at_ns:.3f} {self.stage}"
        return f"{line} {self.detail}" if self.detail else line


class Tracer:
    """Collects spans for a sampled subset of operations.

    ``sample_rate`` is the fraction of operations traced: 0.0 disables
    tracing entirely, 1.0 traces every operation.  ``clock`` is a
    zero-argument callable returning the current simulated time; the
    :class:`~repro.core.processor.KVProcessor` binds it to its simulator
    automatically.
    """

    def __init__(
        self,
        sample_rate: float = 1.0,
        seed: int = 0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ConfigurationError(
                f"sample rate must be in [0, 1]: {sample_rate}"
            )
        self.sample_rate = sample_rate
        self.seed = seed
        self.clock = clock
        self.spans: List[Span] = []
        #: Spans emitted per stage (registrable as ``trace`` metrics).
        self.counters = Counter()
        self._decisions: Dict[int, bool] = {}
        #: Optional :class:`~repro.obs.timeline.FlightRecorder` mirror;
        #: every emitted span is also pushed into its ring buffer.
        self.recorder = None
        #: Out-of-band instant events (fault/failover/migration markers).
        #: These are *not* part of the span log or its digest - they only
        #: surface in :meth:`export_chrome` - so annotating never perturbs
        #: golden traces.
        self.annotations: List[Tuple[str, float, str]] = []

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the sim-time source, if none was given at construction."""
        if self.clock is None:
            self.clock = clock

    # -- sampling -----------------------------------------------------------

    def sampled(self, seq: int) -> bool:
        """Deterministic per-operation sampling decision.

        Hash-based on ``(seed, seq)`` so the decision is stable across
        runs, processes, and unrelated configuration changes.
        """
        if self.sample_rate <= 0.0:
            return False
        if self.sample_rate >= 1.0:
            return True
        decision = self._decisions.get(seq)
        if decision is None:
            raw = fnv1a64(f"{self.seed}:{seq}".encode())
            draw = _finalize(raw) / _HASH_SPACE
            decision = draw < self.sample_rate
            self._decisions[seq] = decision
        return decision

    # -- emission -----------------------------------------------------------

    def emit(self, seq: int, stage: str, detail: str = "") -> None:
        """Record one span for operation ``seq`` if it is sampled."""
        if not self.sampled(seq):
            return
        at_ns = self.clock() if self.clock is not None else UNTIMED
        span = Span(len(self.spans), seq, stage, at_ns, detail)
        self.spans.append(span)
        self.counters[stage] += 1
        if self.recorder is not None:
            self.recorder.record_span(span)

    def annotate(self, name: str, detail: str = "") -> None:
        """Record an out-of-band instant event (e.g. ``cluster.failover``).

        Unconditional (not sampled) and excluded from the span log and
        digest; rendered as a global instant event by
        :meth:`export_chrome`.
        """
        at_ns = self.clock() if self.clock is not None else UNTIMED
        self.annotations.append((name, at_ns, detail))

    # -- export -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def render_lines(self) -> List[str]:
        return [span.render() for span in self.spans]

    def dumps(self) -> str:
        """The full span log as canonical text (one span per line)."""
        lines = self.render_lines()
        return "\n".join(lines) + ("\n" if lines else "")

    def digest(self) -> str:
        """SHA-256 of the canonical span log.

        Two runs of the same seeded configuration must produce identical
        digests - the byte-identical-trace guarantee.
        """
        import hashlib

        return hashlib.sha256(self.dumps().encode()).hexdigest()

    def export_chrome(
        self,
        shard_for_seq: Optional[Callable[[int], int]] = None,
        shard_names: Optional[List[str]] = None,
    ) -> str:
        """The span log as Chrome trace-event JSON (loadable in Perfetto).

        Each shard is a *process* (``pid``), each top-level stage
        component (``station``, ``pcie``, ``mem``, ...) a *thread* track
        within it; every span becomes a thread-scoped instant event at
        its simulated timestamp (microseconds on the Chrome axis, so 1 ns
        of sim time = 1 us on screen).  :meth:`annotate` markers become
        global instant events.  ``shard_for_seq`` maps an op seq to its
        shard index (default: everything on shard 0; internal seq -1
        always lands on shard 0); ``shard_names`` labels the process
        tracks.  Output is canonical JSON - byte-identical across seeded
        runs.
        """
        shard_of = shard_for_seq if shard_for_seq is not None else (
            lambda seq: 0
        )

        def track(stage: str) -> str:
            return stage.split(".", 1)[0]

        def ts(at_ns: float) -> float:
            return 0.0 if at_ns < 0 else at_ns / 1000.0

        placed = [
            (max(0, shard_of(span.seq)) if span.seq >= 0 else 0, span)
            for span in self.spans
        ]
        pids = sorted({pid for pid, __ in placed})
        tracks = sorted({track(span.stage) for __, span in placed})
        tids = {name: index + 1 for index, name in enumerate(tracks)}
        events: List[dict] = []
        for pid in pids:
            label = (
                shard_names[pid]
                if shard_names is not None and pid < len(shard_names)
                else f"shard{pid}"
            )
            events.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": label},
            })
            for name in tracks:
                events.append({
                    "ph": "M", "name": "thread_name", "pid": pid,
                    "tid": tids[name], "args": {"name": name},
                })
        for pid, span in placed:
            event = {
                "name": span.stage,
                "cat": track(span.stage),
                "ph": "i",
                "s": "t",
                "ts": ts(span.at_ns),
                "pid": pid,
                "tid": tids[track(span.stage)],
                "args": {"seq": span.seq},
            }
            if span.detail:
                event["args"]["detail"] = span.detail
            if span.at_ns < 0:
                event["args"]["untimed"] = True
            events.append(event)
        for name, at_ns, detail in self.annotations:
            event = {
                "name": name,
                "cat": "annotation",
                "ph": "i",
                "s": "g",
                "ts": ts(at_ns),
                "pid": pids[0] if pids else 0,
                "tid": 0,
                "args": {},
            }
            if detail:
                event["args"]["detail"] = detail
            events.append(event)
        return json.dumps(
            {"displayTimeUnit": "ns", "traceEvents": events},
            sort_keys=True,
        )
