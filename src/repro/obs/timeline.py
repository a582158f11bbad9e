"""Simulated-time telemetry timeline: windowed sampling + flight recorder.

Every other observability surface (:class:`~repro.obs.registry.MetricsRegistry`,
:class:`~repro.obs.tracer.Tracer`, :class:`~repro.obs.profiler.StageProfiler`,
BENCH snapshots) reports end-of-run aggregates; the dynamics the paper
argues about - the NIC-DRAM cache warming up, shedding onset under
overload, the failover dip in cluster mode - are invisible in them.  The
:class:`TimelineSampler` closes that gap: driven by the simulator's own
event loop, it closes a window every ``window_ns`` of *simulated* time
and emits one JSON row per attached source with the per-window deltas
(throughput, window latency percentiles, queue depths, NIC-DRAM cache
hit rate, shed/NACK/fault counts, cluster gauges).

Determinism: the sampler only *reads* component state inside an event
callback - it never delays, reorders, or fails an operation - so
attaching it does not change any simulated outcome, and two runs of the
same seeded configuration emit **byte-identical** JSONL (asserted via
:meth:`TimelineSampler.digest`, the same guarantee the tracer gives its
span log).  Rows are serialized with ``json.dumps(..., sort_keys=True)``
so the bytes are canonical; ``tools/check_timeline.py`` lints exactly
that contract.

The :class:`FlightRecorder` is the crash-dump side: ring buffers of the
last N spans and metric windows that snapshot themselves ("dump") on
anomaly triggers - a deadline storm, a fault burst, a node kill - and on
soak FAIL, so the run's final moments survive even when nobody asked for
a full trace.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.sim.stats import Histogram, mops

#: Default sampling window in simulated nanoseconds.
DEFAULT_WINDOW_NS = 2000.0

#: Eight-level bar glyphs for CLI sparklines.
SPARK_GLYPHS = "▁▂▃▄▅▆▇█"

#: Expired deadlines in one window that trigger a flight-recorder dump.
DEADLINE_STORM_OPS = 8
#: Faults in one window that trigger a flight-recorder dump.
FAULT_BURST_OPS = 8
#: Most recent spans and metric windows a flight recorder keeps.
RECORDER_SPANS = 256
RECORDER_WINDOWS = 64


def sparkline(values: List[Optional[float]]) -> str:
    """Render a series as a row of eight-level bar glyphs.

    ``None`` entries (windows with no samples) render as the lowest bar.
    A flat series renders as all-low rather than crashing on a zero
    range.
    """
    vals = [0.0 if v is None else float(v) for v in values]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        return SPARK_GLYPHS[0] * len(vals)
    span = hi - lo
    return "".join(
        SPARK_GLYPHS[min(7, int((v - lo) / span * 8.0))] for v in vals
    )


def _percentile_fields(hist: Histogram) -> Dict[str, Optional[float]]:
    """Window latency percentiles, or None fields when nothing completed."""
    empty = hist.count == 0
    return {
        "latency_p50_ns": None if empty else hist.percentile(50),
        "latency_p95_ns": None if empty else hist.percentile(95),
        "latency_p99_ns": None if empty else hist.percentile(99),
    }


def _derive_rates(row: Dict[str, Any]) -> None:
    """Window throughput and cache hit rate from the row's own deltas."""
    elapsed = row["end_ns"] - row["start_ns"]
    row["throughput_mops"] = (
        mops(row["completed"], elapsed) if elapsed > 0 else 0.0
    )
    accesses = row["cache_hits"] + row["cache_misses"]
    row["cache_hit_rate"] = row["cache_hits"] / accesses if accesses else None


class _ProcessorSource:
    """Per-shard series over one :class:`~repro.core.processor.KVProcessor`.

    Keeps the previous cumulative snapshot so each window reports deltas,
    and owns the resettable window histogram the processor feeds at
    completion (``processor.window_latencies``) - swapped for a fresh one
    every window close.
    """

    def __init__(self, name: str, processor) -> None:
        self.name = name
        self.processor = processor
        self.window_hist = Histogram()
        processor.window_latencies = self.window_hist
        self._prev = self._cumulative()

    def _cumulative(self) -> Dict[str, int]:
        proc = self.processor
        counters = proc.counters
        mem = proc.engine.counters
        return {
            "completed": proc.completed,
            "shed": counters.get("shed_ops"),
            "failed": counters.get("failed_ops"),
            "expired": sum(proc.deadline_counters.snapshot().values()),
            "cache_hits": mem.get("cache_hits"),
            "cache_misses": mem.get("cache_misses"),
            "nacks": proc.network.counters.get("tx_nacks"),
            "faults": proc.injector.fired if proc.injector is not None else 0,
        }

    def close(
        self, base: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Sequence[float]]:
        """Close one window: the row for this shard plus its raw window
        latency samples (for cross-shard aggregation)."""
        cur = self._cumulative()
        row: Dict[str, Any] = dict(base)
        row["shard"] = self.name
        for key, value in cur.items():
            row[key] = value - self._prev[key]
        self._prev = cur
        samples = self.window_hist.samples()
        row.update(_percentile_fields(self.window_hist))
        # Swap in a fresh window histogram; the processor picks it up on
        # its next completion (attribute read, no locking needed - the
        # sim is single-threaded).
        self.window_hist = Histogram()
        self.processor.window_latencies = self.window_hist
        _derive_rates(row)
        proc = self.processor
        row["station_occupancy"] = proc.station.occupancy
        row["ingress_depth"] = proc.admission.depth
        return row, samples


class _ClusterSource:
    """Cluster-wide series: epoch/liveness gauges plus event deltas."""

    #: Cluster counter keys reported as per-window deltas.
    _DELTA_KEYS = (
        "failovers",
        "promotions",
        "epoch_bumps",
        "migrated_keys",
        "replication_records",
        "replication_applies",
        "node_down_nacks",
        "wrong_epoch_nacks",
    )

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self._prev = self._cumulative()

    def _cumulative(self) -> Dict[str, int]:
        counters = self.cluster.counters
        cum = {key: counters.get(key) for key in self._DELTA_KEYS}
        cum["faults"] = self.cluster.injector.fired
        return cum

    def close(self, base: Dict[str, Any]) -> Dict[str, Any]:
        cur = self._cumulative()
        row: Dict[str, Any] = dict(base)
        row["shard"] = "cluster"
        for key, value in cur.items():
            row[key] = value - self._prev[key]
        self._prev = cur
        cluster = self.cluster
        row["epoch"] = cluster.map.epoch
        row["alive_nodes"] = cluster.alive_nodes
        row["migrating_slots"] = len(cluster.migrating_slots)
        return row


class FlightRecorder:
    """Ring buffers of the most recent spans + metric windows, dumped on
    anomaly.

    Attach to a :class:`~repro.obs.tracer.Tracer` (spans) and pass to a
    :class:`TimelineSampler` (windows + anomaly detection); every
    :meth:`trigger` snapshots both rings into :attr:`dumps`.  Triggers
    fire on a deadline storm (>= :data:`DEADLINE_STORM_OPS` expiries in
    one window), a fault burst (>= :data:`FAULT_BURST_OPS` faults in one
    window), a node kill (cluster ``alive_nodes`` dropped), and - wired
    by the soak harness - on soak FAIL.
    """

    def __init__(self) -> None:
        self.spans: Deque = deque(maxlen=RECORDER_SPANS)
        self.windows: Deque[Dict[str, Any]] = deque(maxlen=RECORDER_WINDOWS)
        #: One entry per trigger: reason, trigger time, ring snapshots.
        self.dumps: List[Dict[str, Any]] = []

    def attach(self, tracer) -> None:
        """Mirror every span the tracer emits into the span ring."""
        tracer.recorder = self

    def record_span(self, span) -> None:
        self.spans.append(span)

    def record_window(self, row: Dict[str, Any]) -> None:
        self.windows.append(row)

    def trigger(self, reason: str, at_ns: float) -> Dict[str, Any]:
        """Snapshot both rings now; returns (and keeps) the dump."""
        dump = {
            "reason": reason,
            "at_ns": at_ns,
            "spans": [span.render() for span in self.spans],
            "windows": list(self.windows),
        }
        self.dumps.append(dump)
        return dump

    def dump_json(self) -> str:
        """Every dump so far as canonical JSON."""
        return json.dumps({"dumps": self.dumps}, sort_keys=True, indent=2)


class TimelineSampler:
    """Windowed metric sampling on the simulator's own event loop.

    Construct with the window width, attach sources (a topology's
    ``attach_timeline(sampler)``, or :meth:`attach_processor` for a bare
    processor), then ``start()`` before driving load and ``finish()``
    after - the final partial window is closed there.  The sampler runs
    on the simulator of the first source attached and refuses a source
    on any other.  Each closed window emits one row per attached
    processor (in attach order), an ``"all"`` aggregate row when more
    than one processor is attached (window latency percentiles over the
    *merged* raw samples, not averaged percentiles), and a ``"cluster"``
    row when a cluster is attached.

    The tick is a plain event callback that re-arms itself; ``finish()``
    sets a stop flag so a still-pending tick left in the event heap after
    the run is inert (it fires, sees the flag, and does nothing).
    """

    def __init__(
        self,
        window_ns: float = DEFAULT_WINDOW_NS,
        recorder: Optional[FlightRecorder] = None,
    ) -> None:
        if not 0 < window_ns < float("inf"):  # NaN fails this too
            raise ConfigurationError(
                f"timeline window must be a finite number > 0 ns: "
                f"{window_ns}"
            )
        self.window_ns = float(window_ns)
        #: The simulator the attached sources run on (set by the first).
        self.sim = None
        self.recorder = recorder
        self._sources: List[_ProcessorSource] = []
        self._cluster: Optional[_ClusterSource] = None
        self._rows: List[Dict[str, Any]] = []
        self._lines: List[str] = []
        #: Closed windows so far.
        self.windows = 0
        self._started = False
        self._stopped = False
        self._closed_until = 0.0
        self._next_boundary = 0.0
        self._prev_alive: Optional[int] = None

    # -- wiring -------------------------------------------------------------

    def _attach(self, source) -> None:
        """Take the simulator of the first source; refuse a source on
        another, or one attached after ``start()``."""
        if self._started:
            raise ConfigurationError("cannot attach sources after start()")
        if self.sim is None:
            self.sim = source.sim
        elif source.sim is not self.sim:
            raise ConfigurationError(
                "cannot attach a source that runs on another simulator"
            )

    def attach_processor(self, name: str, processor) -> None:
        """Add one shard's processor as a series named ``name``."""
        self._attach(processor)
        self._sources.append(_ProcessorSource(name, processor))

    def attach_cluster(self, cluster) -> None:
        """Add the cluster-wide gauge series (``"cluster"`` rows)."""
        self._attach(cluster)
        self._cluster = _ClusterSource(cluster)

    @property
    def shard_names(self) -> List[str]:
        return [source.name for source in self._sources]

    # -- sampling loop ------------------------------------------------------

    def start(self) -> None:
        """Arm the first window tick; idempotent."""
        if self._started:
            return
        if self.sim is None:
            raise ConfigurationError("attach at least one source before start()")
        self._started = True
        self._closed_until = self.sim.now
        self._arm(self.sim.now + self.window_ns)

    def _arm(self, when: float) -> None:
        self._next_boundary = when
        self.sim.call_when(when, self._tick)

    def _tick(self, event) -> None:
        if self._stopped:
            return  # stale tick left in the heap after finish()
        self._close_window(self._next_boundary)
        self._arm(self._next_boundary + self.window_ns)

    def finish(self) -> None:
        """Stop sampling and close the final partial window; idempotent."""
        if not self._started or self._stopped:
            return
        self._stopped = True
        if self.sim.now > self._closed_until:
            self._close_window(self.sim.now)

    def _close_window(self, end_ns: float) -> None:
        base = {
            "window": self.windows,
            "start_ns": self._closed_until,
            "end_ns": end_ns,
        }
        emitted: List[Dict[str, Any]] = []
        merged = Histogram()
        totals = {"completed": 0, "expired": 0, "faults": 0,
                  "station_occupancy": 0, "ingress_depth": 0}
        for source in self._sources:
            row, samples = source.close(base)
            emitted.append(row)
            merged.record_many(samples)
            for key in totals:
                totals[key] += row[key]
        if len(self._sources) > 1:
            emitted.append(self._aggregate_row(base, emitted, merged))
        cluster_row: Optional[Dict[str, Any]] = None
        if self._cluster is not None:
            cluster_row = self._cluster.close(base)
            emitted.append(cluster_row)
        for row in emitted:
            self._rows.append(row)
            self._lines.append(json.dumps(row, sort_keys=True))
        self.windows += 1
        self._closed_until = end_ns
        self._observe_anomalies(end_ns, totals, cluster_row, emitted)

    def _aggregate_row(
        self,
        base: Dict[str, Any],
        shard_rows: List[Dict[str, Any]],
        merged: Histogram,
    ) -> Dict[str, Any]:
        row: Dict[str, Any] = dict(base)
        row["shard"] = "all"
        for key in ("completed", "shed", "failed", "expired", "cache_hits",
                    "cache_misses", "nacks", "faults", "station_occupancy",
                    "ingress_depth"):
            row[key] = sum(r[key] for r in shard_rows)
        row.update(_percentile_fields(merged))
        _derive_rates(row)
        return row

    def _observe_anomalies(
        self,
        end_ns: float,
        totals: Dict[str, int],
        cluster_row: Optional[Dict[str, Any]],
        emitted: List[Dict[str, Any]],
    ) -> None:
        recorder = self.recorder
        alive = cluster_row["alive_nodes"] if cluster_row is not None else None
        if recorder is None:
            self._prev_alive = alive
            return
        for row in emitted:
            recorder.record_window(row)
        if totals["expired"] >= DEADLINE_STORM_OPS:
            recorder.trigger("deadline_storm", end_ns)
        total_faults = totals["faults"] + (
            cluster_row["faults"] if cluster_row is not None else 0
        )
        if total_faults >= FAULT_BURST_OPS:
            recorder.trigger("fault_burst", end_ns)
        if (
            alive is not None
            and self._prev_alive is not None
            and alive < self._prev_alive
        ):
            recorder.trigger("node_kill", end_ns)
        self._prev_alive = alive

    # -- export -------------------------------------------------------------

    def lines(self) -> List[str]:
        """Canonical JSONL lines (``json.dumps(row, sort_keys=True)``)."""
        return list(self._lines)

    def dumps(self) -> str:
        """The full timeline as JSONL text (one row per line)."""
        lines = self._lines
        return "\n".join(lines) + ("\n" if lines else "")

    def digest(self) -> str:
        """SHA-256 of the canonical JSONL - the byte-identity guarantee."""
        import hashlib

        return hashlib.sha256(self.dumps().encode()).hexdigest()

    def series(
        self, shard: str, field: str
    ) -> List[Optional[float]]:
        """One field's value per window for one shard (for sparklines)."""
        return [
            row.get(field)
            for row in self._rows
            if row.get("shard") == shard
        ]
