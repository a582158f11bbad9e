"""Benchmark snapshot history: ``BENCH_<name>.json`` schema + regression diff.

Every future performance PR is measured by this layer: a benchmark run
emits one :class:`BenchSnapshot` - throughput, latency percentiles,
DMA-per-op, cache hit rate, plus the git revision and a digest of the
config that produced it - and ``repro bench diff A B [--tolerance]``
compares two snapshots direction-aware (throughput may only drop by the
tolerance, latency and DMA-per-op may only rise by it), so CI can gate
on regressions against a committed baseline
(``benchmarks/baselines/BENCH_*.json``).

The *simulated* metrics in a snapshot are deterministic for a fixed
seed and config: sorted JSON keys, and the git revision falls back to
``"unknown"`` outside a repository.  Two fields are deliberately
nondeterministic - ``wall_clock_s`` and ``sim_ops_per_wall_s`` - so
interpreter-speed regressions in the simulator itself are visible next
to the simulated numbers; they are nullable, excluded from determinism
comparisons, and a ``None`` on either side of a diff never gates.
``timeline_windows`` / ``timeline_digest`` are context the same way:
they record whether (and what) a
:class:`~repro.obs.timeline.TimelineSampler` observed during the run -
both null when the timeline was off, and never part of the diff gate.
There is one schema (:data:`SCHEMA_VERSION`); ``tools/check_bench.py``
lints any ``BENCH_*.json`` against :func:`validate`.
"""

from __future__ import annotations

import json
import math
import subprocess
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional

#: The snapshot schema version (the only one that loads).
SCHEMA_VERSION = 3

#: Metrics where larger is better (may drop by at most the tolerance).
HIGHER_BETTER = ("throughput_mops", "cache_hit_rate", "sim_ops_per_wall_s")
#: Metrics where smaller is better (may rise by at most the tolerance).
LOWER_BETTER = (
    "latency_p50_ns",
    "latency_p95_ns",
    "latency_p99_ns",
    "dma_per_op",
)

#: Default relative tolerance for ``repro bench diff``.
DEFAULT_TOLERANCE = 0.15


@dataclass
class BenchSnapshot:
    """One benchmark result, as persisted in ``BENCH_<name>.json``."""

    name: str
    operations: int
    throughput_mops: float
    #: Latency percentiles; None when the run completed no ops.
    latency_p50_ns: Optional[float]
    latency_p95_ns: Optional[float]
    latency_p99_ns: Optional[float]
    #: PCIe DMA TLPs per completed operation (post-NIC-DRAM-cache).
    dma_per_op: float
    cache_hit_rate: float
    git_rev: str
    config_digest: str
    schema: int = SCHEMA_VERSION
    #: Wall-clock seconds the closed-loop run took (None when the run
    #: was not timed).  Nondeterministic by design - never byte-gated.
    wall_clock_s: Optional[float] = None
    #: Simulated ops completed per wall-clock second.
    sim_ops_per_wall_s: Optional[float] = None
    #: Timeline windows sampled during the run (None when the timeline
    #: was off).  Context only - never gated by ``bench diff``.
    timeline_windows: Optional[float] = None
    #: SHA-256 of the run's timeline JSONL (None when off).
    timeline_digest: Optional[str] = None
    #: Free-form context (workload parameters, per-class breakdowns...).
    extra: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())


def git_rev() -> str:
    """The short git revision of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def config_digest(config) -> str:
    """SHA-256 over a config's fields (any dataclass; order-independent)."""
    import hashlib

    payload = {
        f.name: repr(getattr(config, f.name)) for f in fields(config)
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def snapshot_from_run(
    name: str,
    processor,
    stats: Dict[str, float],
    extra: Optional[Dict[str, object]] = None,
) -> BenchSnapshot:
    """Build a snapshot from a finished closed-loop run.

    ``stats`` is the :func:`repro.driver.run_closed_loop` result;
    ``processor`` supplies the DMA counters, cache hit rate and config.
    """
    completed = processor.completed
    dma_total = processor.dma.reads + processor.dma.writes
    return BenchSnapshot(
        name=name,
        operations=int(stats.get("operations", completed)),
        throughput_mops=stats["throughput_mops"],
        latency_p50_ns=stats.get("latency_p50_ns"),
        latency_p95_ns=stats.get("latency_p95_ns"),
        latency_p99_ns=stats.get("latency_p99_ns"),
        dma_per_op=(dma_total / completed) if completed else 0.0,
        cache_hit_rate=processor.engine.hit_rate(),
        git_rev=git_rev(),
        config_digest=config_digest(processor.config),
        wall_clock_s=stats.get("wall_clock_s"),
        sim_ops_per_wall_s=stats.get("sim_ops_per_wall_s"),
        timeline_windows=stats.get("timeline_windows"),
        timeline_digest=stats.get("timeline_digest"),
        extra=dict(extra or {}),
    )


def validate(data: dict) -> List[str]:
    """Schema problems of one parsed ``BENCH_*.json`` document ([] = ok)."""
    problems: List[str] = []
    if not isinstance(data, dict):
        return ["snapshot must be a JSON object"]
    if data.get("schema") != SCHEMA_VERSION:
        problems.append(
            f"schema must be {SCHEMA_VERSION}, got {data.get('schema')!r}"
        )
    for key, types in (
        ("name", str),
        ("git_rev", str),
        ("config_digest", str),
        ("operations", int),
        ("throughput_mops", (int, float)),
        ("dma_per_op", (int, float)),
        ("cache_hit_rate", (int, float)),
    ):
        value = data.get(key)
        if not isinstance(value, types) or isinstance(value, bool):
            problems.append(f"field {key!r} must be {types}, got {value!r}")
    # Required but nullable: latency (no op completed), wall clock (run
    # not timed), timeline (sampler off).
    number = ((int, float), "a number")
    for key, (types, kind) in (
        ("latency_p50_ns", number),
        ("latency_p95_ns", number),
        ("latency_p99_ns", number),
        ("wall_clock_s", number),
        ("sim_ops_per_wall_s", number),
        ("timeline_windows", number),
        ("timeline_digest", (str, "a string")),
    ):
        if key not in data:
            problems.append(f"missing field {key!r}")
        elif data[key] is not None and not isinstance(data[key], types):
            problems.append(f"field {key!r} must be {kind} or null")
    if "extra" in data and not isinstance(data["extra"], dict):
        problems.append("field 'extra' must be an object")
    # Python's json reads NaN and Infinity; no snapshot may carry them.
    for key, value in sorted(data.items()):
        if isinstance(value, float) and not math.isfinite(value):
            problems.append(f"field {key!r} is non-finite")
    return problems


def load_snapshot(path: str) -> BenchSnapshot:
    """Load and validate one snapshot file."""
    with open(path) as handle:
        data = json.load(handle)
    problems = validate(data)
    if problems:
        raise ValueError(f"{path}: " + "; ".join(problems))
    known = {f.name for f in fields(BenchSnapshot)}
    return BenchSnapshot(**{k: v for k, v in data.items() if k in known})


@dataclass
class MetricDelta:
    """One metric's change between two snapshots."""

    metric: str
    #: ``higher`` or ``lower`` - which direction is better.
    better: str
    baseline: Optional[float]
    current: Optional[float]
    #: Relative change vs. baseline (positive = increased).
    change: Optional[float]
    regressed: bool


@dataclass
class BenchDiff:
    """Direction-aware comparison of two snapshots."""

    baseline: str
    current: str
    tolerance: float
    deltas: List[MetricDelta]
    notes: List[str]

    @property
    def regressions(self) -> List[MetricDelta]:
        return [delta for delta in self.deltas if delta.regressed]

    @property
    def passed(self) -> bool:
        return not self.regressions

    def rows(self) -> List[List[str]]:
        """Terminal-table rows (``repro bench diff``)."""
        rows = []
        for delta in self.deltas:
            def show(value: Optional[float]) -> str:
                return "n/a" if value is None else f"{value:.4g}"

            change = (
                "n/a" if delta.change is None else f"{delta.change:+.1%}"
            )
            status = "REGRESSED" if delta.regressed else "ok"
            rows.append(
                [
                    delta.metric,
                    show(delta.baseline),
                    show(delta.current),
                    change,
                    status,
                ]
            )
        return rows


def diff(
    baseline: BenchSnapshot,
    current: BenchSnapshot,
    tolerance: float = DEFAULT_TOLERANCE,
) -> BenchDiff:
    """Compare two snapshots; a metric regresses when it moves in the
    bad direction by more than ``tolerance`` (relative).

    Metrics that are None (or zero baseline) on either side are reported
    but never gate; differing config digests are flagged in ``notes``
    because comparing differently-configured runs is usually a mistake.
    A ``tolerance`` that is negative, NaN or infinite is a ValueError: it
    would fail unchanged metrics or pass any change.
    """
    if not 0 <= tolerance < math.inf:
        raise ValueError(
            f"tolerance must be a finite number of at least 0: {tolerance!r}"
        )
    notes: List[str] = []
    if baseline.config_digest != current.config_digest:
        notes.append(
            "config digests differ "
            f"({baseline.config_digest} vs {current.config_digest}): "
            "snapshots come from different configurations"
        )
    if baseline.name != current.name:
        notes.append(
            f"benchmark names differ ({baseline.name} vs {current.name})"
        )
    deltas: List[MetricDelta] = []
    for better, metrics in (
        ("higher", HIGHER_BETTER),
        ("lower", LOWER_BETTER),
    ):
        for metric in metrics:
            base = getattr(baseline, metric)
            cur = getattr(current, metric)
            change: Optional[float] = None
            regressed = False
            if base is not None and cur is not None and base != 0:
                change = (cur - base) / abs(base)
                if better == "higher":
                    regressed = change < -tolerance
                else:
                    regressed = change > tolerance
            deltas.append(
                MetricDelta(
                    metric=metric,
                    better=better,
                    baseline=base,
                    current=cur,
                    change=change,
                    regressed=regressed,
                )
            )
    return BenchDiff(
        baseline=baseline.name,
        current=current.name,
        tolerance=tolerance,
        deltas=deltas,
        notes=notes,
    )
