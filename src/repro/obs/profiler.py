"""Simulated-time profiler: per-stage latency and memory-cost attribution.

The stage pipeline (:mod:`repro.core.pipeline`) already stamps every
:class:`~repro.core.pipeline.OpContext` with the simulated entry time of
each stage it crosses; the metrics layer (PR 2) only ever exported
aggregates of the *whole* pipeline.  :class:`StageProfiler` closes that
gap: attached to a :class:`~repro.core.processor.KVProcessor` it consumes
those timestamps at completion time and decomposes every operation's
end-to-end latency, per op class (GET / PUT / DELETE / atomic / vector /
range / scan), into queueing vs. service segments at each stage::

    decode --> admission --> issue --> memory --> complete

and attributes the memory-system cost each class pays: functional hash
table accesses (the quantity the paper's DMA-per-op predictions are
about), post-cache PCIe DMA TLPs, and NIC-DRAM cache hits / misses /
fills / writebacks - all keyed by the operation sequence number the
hardware models already carry for tracing.

Segment semantics (documented in ``docs/OBSERVABILITY.md``):

- **decode** - service is the decoder's fixed pipeline occupancy
  (depth + 1 cycles); anything beyond it is queueing on the decoder's
  initiation interval.
- **admission** - pure queueing (waiting for a reservation-station slot,
  or in the bounded ingress queue under overload control).
- **issue** - pure queueing: time parked in the reservation station
  before the op entered the memory stage, or - for ops resolved by data
  forwarding - until the forwarded response was delivered.
- **memory** - pure service: the memory-access replay (NIC DRAM cache +
  PCIe DMA) plus any compiled λ pipeline occupancy.  Lower-layer queueing
  (DMA tags, credits, channel backlog) is charged here by design: at
  stage granularity the op is *being served* by the memory system.
- **complete** - service: completion routing and forwarded-response
  delivery (one per clock in the dedicated execution engine).

The segments of one operation telescope, so their sum equals its
measured end-to-end latency **exactly**: the final segment absorbs the
(sub-ulp) floating-point residual of the decomposition, keeping the
invariant ``sum(queue) + sum(service) == latency`` per op by
construction.

The profiler is purely observational: attaching one never schedules
simulated work, so traces, metrics and latencies are byte-identical with
and without it.  Its exports (hierarchical JSON via :meth:`as_dict`,
flamegraph-ready folded stacks via :meth:`folded`) are deterministic for
a fixed seed and config - the same guarantee the PR 2 tracer gives its
span logs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.operations import KVOperation, OpType
from repro.core.pipeline import STAGE_ORDER
from repro.errors import DeadlineExceeded, ServerBusy

#: Stages whose whole segment is queueing (see module docstring).
_QUEUE_STAGES = frozenset({"admission", "issue"})

#: Op classes in report order.
OP_CLASSES = ("get", "put", "delete", "atomic", "vector", "range", "scan")

#: Bucket for station write-backs and other seq < 0 work.
INTERNAL = "internal"


def _summing_to(base: float, target: float) -> Optional[float]:
    """A value ``v`` with ``base + v == target`` in float arithmetic.

    ``target - base`` is the natural candidate but IEEE rounding can leave
    ``base + (target - base)`` one ulp off ``target``; nudging ``v`` by
    ulps is deterministic and usually restores exact equality.  When
    ``base + v`` sits exactly on a round-half-even tie for every candidate
    ``v`` the target is unreachable (the sums oscillate around it, one ulp
    either side) - then this returns None and the caller must perturb
    ``base`` instead (see :meth:`StageProfiler._spans`).
    """
    v = target - base
    for __ in range(8):
        total = base + v
        if total == target:
            return v
        v = math.nextafter(v, math.inf if total < target else -math.inf)
    return None


def op_class(op: KVOperation) -> str:
    """The profiler's op-class bucket for one operation."""
    if op.op is OpType.GET:
        return "get"
    if op.op is OpType.PUT:
        return "put"
    if op.op is OpType.DELETE:
        return "delete"
    if op.op is OpType.UPDATE_SCALAR:
        return "atomic"
    if op.op is OpType.RANGE:
        return "range"
    if op.op is OpType.SCAN:
        return "scan"
    return "vector"


@dataclass
class StageBreakdown:
    """Accumulated queue/service time of one class at one stage."""

    ops: int = 0
    queue_ns: float = 0.0
    service_ns: float = 0.0


@dataclass
class MemoryCost:
    """Accumulated memory-system cost of one class."""

    #: Functional hash-table accesses (what the paper's DMA predictions
    #: count: each is one DMA when the line is not NIC-DRAM cached).
    table_reads: int = 0
    table_writes: int = 0
    #: Post-cache PCIe DMA TLP round trips actually issued.
    dma_reads: int = 0
    dma_writes: int = 0
    dma_bytes: int = 0
    #: NIC-DRAM cache events.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_fills: int = 0
    cache_writebacks: int = 0

    @property
    def table_accesses(self) -> int:
        return self.table_reads + self.table_writes

    @property
    def dma_tlps(self) -> int:
        return self.dma_reads + self.dma_writes


@dataclass
class OpRecord:
    """Per-op decomposition kept for invariant checks and debugging."""

    seq: int
    op_class: str
    submitted_ns: float
    completed_ns: float
    #: ``(stage, queue_ns, service_ns)`` in pipeline order.
    segments: Tuple[Tuple[str, float, float], ...]
    #: Raw stage-entry timestamps, in pipeline order.
    timestamps: Tuple[Tuple[str, float], ...]
    forwarded: bool

    @property
    def latency_ns(self) -> float:
        return self.completed_ns - self.submitted_ns


@dataclass
class ClassProfile:
    """Everything accumulated for one op class."""

    submitted: int = 0
    completed: int = 0
    forwarded: int = 0
    shed: int = 0
    expired: int = 0
    failed: int = 0
    latency_total_ns: float = 0.0
    stages: Dict[str, StageBreakdown] = field(default_factory=dict)
    memory: MemoryCost = field(default_factory=MemoryCost)

    def stage(self, name: str) -> StageBreakdown:
        breakdown = self.stages.get(name)
        if breakdown is None:
            breakdown = self.stages[name] = StageBreakdown()
        return breakdown


class StageProfiler:
    """Attaches to one processor and attributes where its time and DMAs go.

    Pass one to :class:`~repro.core.processor.KVProcessor` (or
    :class:`~repro.multi.stack.ServerStack`) at construction::

        profiler = StageProfiler()
        processor = KVProcessor(sim, store, profiler=profiler)
        ...run...
        print(json.dumps(profiler.as_dict(), indent=2, sort_keys=True))

    ``keep_records`` retains one :class:`OpRecord` per completed op (the
    data behind the per-op invariant tests); disable it for very long
    soaks where only the aggregates matter.
    """

    def __init__(self, name: str = "", keep_records: bool = True) -> None:
        #: Shard prefix in merged exports (``nic0`` -> ``nic0;get;...``).
        self.name = name
        self.keep_records = keep_records
        self.classes: Dict[str, ClassProfile] = {}
        self.records: List[OpRecord] = []
        #: seq -> op class, registered at submission.
        self._class_of: Dict[int, str] = {}
        #: Decoder pipeline occupancy (service floor of the decode stage),
        #: bound by the processor at attach time.
        self.decode_service_ns = 0.0

    # -- wiring (called by KVProcessor) -------------------------------------

    def bind(self, decode_service_ns: float) -> None:
        """Learn the decode stage's fixed service time from the processor."""
        self.decode_service_ns = decode_service_ns

    def class_profile(self, name: str) -> ClassProfile:
        profile = self.classes.get(name)
        if profile is None:
            profile = self.classes[name] = ClassProfile()
        return profile

    def _class_for_seq(self, seq: int) -> str:
        if seq < 0:
            return INTERNAL
        return self._class_of.get(seq, INTERNAL)

    # -- pipeline hooks ------------------------------------------------------

    def observe_submit(self, ctx) -> None:
        """One client op entered the pipeline."""
        name = op_class(ctx.op)
        seq = ctx.op.seq
        if seq >= 0:
            self._class_of[seq] = name
        self.class_profile(name).submitted += 1

    def observe_complete(self, ctx, now: float) -> None:
        """One client op responded successfully; decompose its latency."""
        name = op_class(ctx.op)
        profile = self.class_profile(name)
        profile.completed += 1
        forwarded = "memory" not in ctx.timestamps
        if forwarded:
            profile.forwarded += 1
        # The drivers stamp the context in pipeline order, so the
        # timestamp dict's insertion order *is* STAGE_ORDER (restricted
        # to the stages this op crossed).
        marks = list(ctx.timestamps.items())
        segments = self._segments_from_marks(marks, ctx.submitted_ns, now)
        for stage, queue_ns, service_ns in segments:
            breakdown = profile.stage(stage)
            breakdown.ops += 1
            breakdown.queue_ns += queue_ns
            breakdown.service_ns += service_ns
            profile.latency_total_ns += queue_ns + service_ns
        if self.keep_records:
            self.records.append(
                OpRecord(
                    seq=ctx.op.seq,
                    op_class=name,
                    submitted_ns=ctx.submitted_ns,
                    completed_ns=now,
                    segments=segments,
                    timestamps=tuple(marks),
                    forwarded=forwarded,
                )
            )

    def observe_failure(self, ctx, exc: BaseException) -> None:
        """One client op left the pipeline without a result."""
        profile = self.class_profile(op_class(ctx.op))
        if isinstance(exc, ServerBusy):
            profile.shed += 1
        elif isinstance(exc, DeadlineExceeded):
            profile.expired += 1
        else:
            profile.failed += 1

    @staticmethod
    def _spans(marks: List[Tuple[str, float]], latency: float) -> List[float]:
        """Per-stage spans whose sequential float sum is exactly ``latency``.

        Spans telescope between consecutive stage-entry timestamps; the
        last one runs to completion time and absorbs the floating-point
        residual of the decomposition.  When a round-half-even tie makes
        the exact remainder unreachable by adjusting the last span alone
        (:func:`_summing_to` returns None), one earlier span is nudged by
        a single ulp - invisible at any physical scale - to move the fold
        off the tie, deterministically.
        """
        spans = [
            marks[index + 1][1] - marks[index][1]
            for index in range(len(marks) - 1)
        ]

        def solve(candidate: List[float]) -> Optional[float]:
            accounted = 0.0
            for span in candidate:
                accounted += span
            return _summing_to(accounted, latency)

        # Fast path: the naive residual already folds exactly and is
        # non-negative - the overwhelmingly common case.
        accounted = 0.0
        for span in spans:
            accounted += span
        last = latency - accounted
        if last >= 0.0 and accounted + last == latency:
            spans.append(last)
            return spans
        last = solve(spans)
        if last is None:
            for index in range(len(spans) - 1, -1, -1):
                if spans[index] == 0.0:
                    continue
                for toward in (-math.inf, math.inf):
                    trial = list(spans)
                    trial[index] = math.nextafter(spans[index], toward)
                    last = solve(trial)
                    if last is not None:
                        spans = trial
                        break
                if last is not None:
                    break
        # Telescoping cancellation can leave the residual a few ulps
        # *negative* - a nonsense (sub-femtosecond) final segment.  Shave
        # ulps off the largest earlier span until the residual is
        # non-negative; the fold stays exact at every step.
        for __ in range(256):
            if not spans or (last is not None and last >= 0.0):
                break
            index = max(range(len(spans)), key=lambda i: spans[i])
            if spans[index] <= 0.0:
                break
            spans[index] = math.nextafter(spans[index], -math.inf)
            last = solve(spans)
        if last is None:  # pragma: no cover - defensive fallback
            accounted = 0.0
            for span in spans:
                accounted += span
            last = latency - accounted
        spans.append(last)
        return spans

    def _segments_from_marks(
        self, marks: List[Tuple[str, float]], submitted_ns: float, now: float
    ) -> Tuple[Tuple[str, float, float], ...]:
        """Decompose one op's latency into per-stage (queue, service).

        Within each stage ``queue + service`` equals the stage's span
        exactly, and the spans are constructed (:meth:`_spans`) so that
        folding ``queue + service`` over the segments in pipeline order
        reproduces ``now - submitted_ns`` **exactly**.
        """
        latency = now - submitted_ns
        spans = self._spans(marks, latency)
        segments: List[Tuple[str, float, float]] = []
        for (stage, __), span in zip(marks, spans):
            if stage == "decode":
                service = min(span, self.decode_service_ns)
                queue = span - service
                # Re-derive service so queue + service == span exactly;
                # on the (tie) failure case charge the whole span as
                # service - the decode floor dominates it anyway.
                service = _summing_to(queue, span)
                if service is None:
                    queue, service = 0.0, span
                segments.append((stage, queue, service))
            elif stage in _QUEUE_STAGES:
                segments.append((stage, span, 0.0))
            else:
                segments.append((stage, 0.0, span))
        return tuple(segments)

    # -- memory-system hooks -------------------------------------------------

    def record_table_accesses(self, seq: int, trace) -> None:
        """Attribute one op's functional hash-table access trace."""
        memory = self.class_profile(self._class_for_seq(seq)).memory
        for kind, __, __size in trace:
            if kind == "write":
                memory.table_writes += 1
            else:
                memory.table_reads += 1

    def record_dma(self, seq: int, kind: str, nbytes: int) -> None:
        """Attribute one PCIe DMA TLP round trip (post-cache)."""
        memory = self.class_profile(self._class_for_seq(seq)).memory
        if kind == "write":
            memory.dma_writes += 1
        else:
            memory.dma_reads += 1
        memory.dma_bytes += nbytes

    def record_cache(self, seq: int, event: str) -> None:
        """Attribute one NIC-DRAM cache event (hit/miss/fill/writeback)."""
        memory = self.class_profile(self._class_for_seq(seq)).memory
        if event == "hit":
            memory.cache_hits += 1
        elif event == "miss":
            memory.cache_misses += 1
        elif event == "fill":
            memory.cache_fills += 1
        else:
            memory.cache_writebacks += 1

    # -- derived quantities ---------------------------------------------------

    def accesses_per_op(self, name: str) -> Optional[float]:
        """Functional table accesses per completed op of one class."""
        profile = self.classes.get(name)
        if profile is None or profile.completed == 0:
            return None
        return profile.memory.table_accesses / profile.completed

    # -- export ----------------------------------------------------------------

    def as_dict(self) -> dict:
        """Hierarchical JSON-ready profile (sorted, deterministic)."""
        classes: Dict[str, dict] = {}
        for name in sorted(self.classes):
            profile = self.classes[name]
            stages = {}
            for stage in STAGE_ORDER:
                if stage not in profile.stages:
                    continue
                breakdown = profile.stages[stage]
                stages[stage] = {
                    "ops": breakdown.ops,
                    "queue_ns": breakdown.queue_ns,
                    "service_ns": breakdown.service_ns,
                }
            memory = profile.memory
            entry = {
                "submitted": profile.submitted,
                "completed": profile.completed,
                "forwarded": profile.forwarded,
                "shed": profile.shed,
                "expired": profile.expired,
                "failed": profile.failed,
                "latency_total_ns": profile.latency_total_ns,
                "stages": stages,
                "memory": {
                    "table_reads": memory.table_reads,
                    "table_writes": memory.table_writes,
                    "dma_reads": memory.dma_reads,
                    "dma_writes": memory.dma_writes,
                    "dma_bytes": memory.dma_bytes,
                    "cache_hits": memory.cache_hits,
                    "cache_misses": memory.cache_misses,
                    "cache_fills": memory.cache_fills,
                    "cache_writebacks": memory.cache_writebacks,
                },
            }
            if profile.completed:
                entry["latency_mean_ns"] = (
                    profile.latency_total_ns / profile.completed
                )
                entry["accesses_per_op"] = (
                    memory.table_accesses / profile.completed
                )
                entry["dma_per_op"] = memory.dma_tlps / profile.completed
            classes[name] = entry
        data = {"schema": 1, "op_classes": classes}
        if self.name:
            data["name"] = self.name
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def folded(self) -> List[str]:
        """Folded-stack lines for standard flamegraph tooling.

        One line per ``class;stage;kind`` frame with the accumulated time
        as an integer nanosecond count, sorted for determinism::

            get;memory;service 1234567
        """
        prefix = f"{self.name};" if self.name else ""
        lines: List[str] = []
        for name in sorted(self.classes):
            profile = self.classes[name]
            for stage in STAGE_ORDER:
                if stage not in profile.stages:
                    continue
                breakdown = profile.stages[stage]
                for kind, value in (
                    ("queue", breakdown.queue_ns),
                    ("service", breakdown.service_ns),
                ):
                    count = int(round(value))
                    if count > 0:
                        lines.append(f"{prefix}{name};{stage};{kind} {count}")
        return lines


def merge_folded(profilers: List[StageProfiler]) -> List[str]:
    """Concatenate the folded stacks of several (named) profilers."""
    lines: List[str] = []
    for profiler in profilers:
        lines.extend(profiler.folded())
    return lines


def merged_dict(profilers: List[StageProfiler]) -> dict:
    """One hierarchical document over several shard profilers.

    Single unnamed profiler -> its own document (unchanged single-shard
    layout); otherwise shards are keyed by profiler name (``nic0``...).
    """
    if len(profilers) == 1 and not profilers[0].name:
        return profilers[0].as_dict()
    return {
        "schema": 1,
        "shards": {
            profiler.name or f"shard{index}": profiler.as_dict()
            for index, profiler in enumerate(profilers)
        },
    }
