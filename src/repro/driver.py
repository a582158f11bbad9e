"""Shared closed-loop measurement harness.

One driver for every "keep N ops outstanding until the list drains"
loop in the repo: :func:`run_closed_loop` pumps one lane per processor,
so the single-processor measurement behind Figures 13, 14, 16 and 17
and the multi-NIC scaling measurement (Table 3, a
:class:`~repro.multi.multinic.MultiNICServer`) are the same loop over
1..N lanes.

The pump pattern is deliberately callback-based rather than a simulated
process: a response callback immediately refills the submission window,
so the closed loop adds zero simulated latency between a completion and
the next submission - the processor, not the harness, is the bottleneck
being measured.

Alongside the simulated measurements, each run also reports how long it
took in *wall-clock* terms (``wall_clock_s``, ``sim_ops_per_wall_s``) so
interpreter-speed regressions in the simulator itself are observable and
can be gated by ``repro bench diff``.  The cyclic garbage collector is
paused for the duration of the event loop: the sim allocates hundreds of
thousands of short-lived events and chain steps per run, and the
periodic gen0 scans cost ~15% wall time while collecting almost nothing
(everything is freed by refcounting at run end).

Ops are pulled, never copied: each lane takes the next ones from a
:class:`~repro.core.operations.FanOut` over the caller's iterable when
its window opens, so a run holds the ops in flight, not the op count -
feed it a generator and nothing per op outlives that op's response.

This module intentionally knows nothing about :class:`KVProcessor`
internals: any object with ``sim``, ``submit(op) -> Event`` and a
``latencies`` histogram is a lane, and any object with ``sim`` and a
``processors`` list of lanes is a sharded server (whose lanes are called
``submit(op, None, key_hash)`` with the hash the fan-out routed by).
"""

from __future__ import annotations

import gc
import time
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.operations import (
    OPS_WITH_COUNT,
    FanOut,
    KVOperation,
    KVResult,
    merge_scan,
    nonempty,
)
from repro.errors import ConfigurationError
from repro.sim.stats import Histogram, mops

#: ``sink(op, result)``: receives each successful result as it settles.
Sink = Callable[[KVOperation, KVResult], None]


def check_concurrency(concurrency) -> None:
    """Refuse anything but a positive ``int`` window."""
    if type(concurrency) is not int or concurrency <= 0:
        raise ConfigurationError(
            f"concurrency must be a positive int: {concurrency!r}"
        )


class _Pump:
    """Keep up to ``concurrency`` ops outstanding on one lane.

    Ops come from ``source.take`` (a :class:`~repro.core.operations.Lane`)
    a window's worth at a time; ``settled(op, event)`` fires once per
    settled op, after the window has been refilled, and ``finished()``
    once the source ran dry and the last op settled."""

    __slots__ = ("submit", "source", "concurrency", "settled", "finished",
                 "ops", "hashes", "next", "end", "outstanding")

    def __init__(self, lane, source, concurrency, settled, finished) -> None:
        self.submit = lane.submit
        self.source = source
        self.concurrency = concurrency
        self.settled = settled
        self.finished = finished
        self.ops: List[KVOperation] = []
        self.hashes: List[Optional[int]] = []
        self.next = self.end = self.outstanding = 0

    def fill(self) -> None:
        submit = self.submit
        while self.outstanding < self.concurrency:
            index = self.next
            if index == self.end:
                if self.source is None:
                    return
                self.ops, self.hashes = self.source.take(self.concurrency)
                self.next = index = 0
                self.end = len(self.ops)
                if not self.end:
                    self.source = None
                    return
            self.next = index + 1
            op, h = self.ops[index], self.hashes[index]
            self.outstanding += 1
            event = submit(op) if h is None else submit(op, None, h)
            event.add_callback(partial(self.drain, op))

    def drain(self, op, event) -> None:
        self.outstanding -= 1
        self.fill()
        self.settled(op, event)
        if not self.outstanding:
            self.finished()


def _registering(ops, partials, lanes: int):
    """``ops``, recording each scan in ``partials`` as it is drawn; two
    scans with one seq would merge into one payload, so they are refused."""
    for op in ops:
        if op.op in OPS_WITH_COUNT:
            if op.seq in partials:
                raise ConfigurationError(
                    f"two scans share seq {op.seq}: scan_results keys "
                    "each scan by its seq"
                )
            partials[op.seq] = (op, [None] * lanes)
        yield op


def latency_fields(latencies) -> Dict[str, Optional[float]]:
    """p50/p95/p99/mean from a histogram, or None fields when empty.

    A run where every op was shed or deadline-expired records no
    latencies; report None instead of crashing on the empty histogram
    (zero goodput is a valid measurement).
    """
    empty = latencies.count == 0
    return {
        "latency_p50_ns": None if empty else latencies.percentile(50),
        "latency_p95_ns": None if empty else latencies.percentile(95),
        "latency_p99_ns": None if empty else latencies.percentile(99),
        "latency_mean_ns": None if empty else latencies.mean(),
    }


def run_closed_loop(
    target,
    ops: Iterable[KVOperation],
    concurrency: int = 128,
    timeline=None,
    scan_results: Optional[Dict[int, bytes]] = None,
    sink: Optional[Sink] = None,
) -> Dict[str, float]:
    """Keep ``concurrency`` operations outstanding per lane until ``ops``
    drains; returns throughput, latency and wall-clock statistics.

    ``target`` is one processor (one lane - the measurement loop behind
    Figures 13, 14, 16 and 17) or a sharded server with a ``processors``
    list (one lane per NIC, so a slow shard never stalls the others'
    submission windows - the Table 3 scaling measurement; its stats add
    ``nics`` / ``per_nic_mops`` and take latency percentiles over the
    merged per-lane histograms).  ``ops`` is any iterable, pulled as the
    lanes' windows open and split across them by
    :class:`~repro.core.operations.FanOut`: point ops to the shard owning
    their key, RANGE/SCAN to every shard.  A stream that yields nothing
    is a :class:`~repro.errors.ConfigurationError`, as in every driver.

    ``sink(op, result)`` receives every successful result as it settles
    (a scan once per lane, with that lane's partial).  Pass a dict as
    ``scan_results`` to receive ``{seq: merged payload}`` for every scan
    that succeeded on all lanes; two scans sharing a seq are refused with
    :class:`~repro.errors.ConfigurationError`.  Merging is independent of
    simulated completion order - scans in ascending ``seq``, lanes in
    index order - so the bytes are seed-stable at any shard count.  Pass
    an attached :class:`~repro.obs.timeline.TimelineSampler` as
    ``timeline`` to sample windowed metrics during the run; its window
    count and digest land in the stats (``None`` without one - they are
    context, like the wall-clock fields, never a gated metric).
    """
    check_concurrency(concurrency)
    ops = nonempty(ops)
    sim = target.sim
    lanes = getattr(target, "processors", None)
    sharded = lanes is not None
    if not sharded:
        lanes = [target]
    if timeline is not None:
        timeline.start()
    #: seq -> (scan op, its per-lane results): collected only when the
    #: caller asks for the merged payloads, so a plain run pays nothing
    #: per response for them.
    partials: Dict[int, Tuple[KVOperation, List[Optional[KVResult]]]] = {}
    if scan_results is not None:
        ops = _registering(ops, partials, len(lanes))
    fan = FanOut(ops, len(lanes))
    done = sim.event()
    running = len(lanes)

    def finished() -> None:
        nonlocal running
        running -= 1
        if not running:
            done.succeed()

    def settled(lane: int):
        def on_response(op, event) -> None:
            if event._exception is None:
                if sink is not None:
                    sink(op, event._value)
                if partials and op.op in OPS_WITH_COUNT:
                    partials[op.seq][1][lane] = event._value

        return on_response

    start = sim.now
    wall_start = time.perf_counter()
    for index, lane in enumerate(lanes):
        pump = _Pump(lane, fan.lanes[index], concurrency, settled(index),
                     finished)
        pump.fill()
        if not pump.outstanding:
            finished()
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        sim.run(done)
    finally:
        if was_enabled:
            gc.enable()
    for seq in sorted(partials):
        merged = merge_scan(*partials[seq])
        if merged is not None:
            scan_results[seq] = merged
    wall_clock_s = time.perf_counter() - wall_start
    if timeline is not None:
        timeline.finish()
    elapsed = sim.now - start
    latencies = lanes[0].latencies
    if len(lanes) > 1:
        latencies = Histogram()
        for processor in lanes:
            latencies.record_many(processor.latencies.samples())
    count = fan.pulled
    throughput = mops(count, elapsed)
    stats: Dict[str, float] = {
        "operations": float(count),
        "elapsed_ns": elapsed,
        "throughput_mops": throughput,
        **latency_fields(latencies),
        "wall_clock_s": wall_clock_s,
        "sim_ops_per_wall_s": (
            count / wall_clock_s if wall_clock_s > 0 else 0.0
        ),
        "timeline_windows": (
            None if timeline is None else float(timeline.windows)
        ),
        "timeline_digest": None if timeline is None else timeline.digest(),
    }
    if sharded:
        stats["nics"] = float(len(lanes))
        stats["per_nic_mops"] = throughput / len(lanes)
    return stats
