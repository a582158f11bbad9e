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

This module intentionally knows nothing about :class:`KVProcessor`
internals: any object with ``sim``, ``submit(op) -> Event`` and a
``latencies`` histogram is a lane, and any object with ``sim`` and a
``processors`` list of lanes is a sharded server.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.operations import KVOperation, KVResult, fan_out, merge_scan
from repro.errors import ConfigurationError
from repro.sim.stats import Histogram, mops


def _pump_lane(processor, pending: List[KVOperation], concurrency: int,
               on_response) -> None:
    """Keep up to ``concurrency`` ops outstanding on one processor.

    ``pending`` is consumed in-place from the tail (pass a reversed
    list); ``on_response`` fires once per settled op, after the window
    has been refilled.
    """
    outstanding = {"count": 0}

    def fill() -> None:
        while pending and outstanding["count"] < concurrency:
            op = pending.pop()
            outstanding["count"] += 1
            processor.submit(op).add_callback(drain)

    def drain(event) -> None:
        outstanding["count"] -= 1
        fill()
        on_response(event)

    fill()


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
    ops: Sequence[KVOperation],
    concurrency: int = 128,
    timeline=None,
    scan_results: Optional[Dict[int, bytes]] = None,
) -> Dict[str, float]:
    """Keep ``concurrency`` operations outstanding per lane until ``ops``
    drains; returns throughput, latency and wall-clock statistics.

    ``target`` is one processor (one lane - the measurement loop behind
    Figures 13, 14, 16 and 17) or a sharded server with a ``processors``
    list (one lane per NIC, so a slow shard never stalls the others'
    submission windows - the Table 3 scaling measurement; its stats add
    ``nics`` / ``per_nic_mops`` and take latency percentiles over the
    merged per-lane histograms).  Ops are split across lanes by
    :func:`~repro.core.operations.fan_out`: point ops to the shard
    owning their key, RANGE/SCAN to every shard.

    Pass a dict as ``scan_results`` to receive ``{seq: merged payload}``
    for every scan that succeeded on all lanes.  Merging is independent
    of simulated completion order - scans in ascending ``seq``, lanes in
    index order - so the bytes are seed-stable at any shard count.  Pass
    an attached :class:`~repro.obs.timeline.TimelineSampler` as
    ``timeline`` to sample windowed metrics during the run; its window
    count and digest land in the stats (``None`` without one - they are
    context, like the wall-clock fields, never a gated metric).
    """
    if not concurrency > 0:
        raise ConfigurationError("concurrency must be positive")
    sim = target.sim
    lanes = getattr(target, "processors", None)
    sharded = lanes is not None
    if not sharded:
        lanes = [target]
    if timeline is not None:
        timeline.bind(sim)
        timeline.start()
    queues = fan_out(ops, len(lanes))
    done = sim.event()
    state = {"remaining": 0}
    for queue in queues:
        state["remaining"] += len(queue)

    def on_response(event) -> None:
        state["remaining"] -= 1
        if state["remaining"] == 0 and not done.triggered:
            done.succeed()

    #: seq -> (scan op, its per-lane results): collected only when the
    #: caller asks for the merged payloads, so a plain run pays nothing
    #: per response for them.
    partials: Dict[int, Tuple[KVOperation, List[Optional[KVResult]]]] = {}
    if scan_results is not None:
        partials = {
            op.seq: (op, [None] * len(lanes))
            for op in ops if op.carries_count
        }

    def collecting(lane: int):
        def on_scan_response(event) -> None:
            if event.ok and event.value.seq in partials:
                partials[event.value.seq][1][lane] = event.value
            on_response(event)

        return on_scan_response

    start = sim.now
    wall_start = time.perf_counter()
    for lane, queue in enumerate(queues):
        if queue:
            queue.reverse()
            _pump_lane(lanes[lane], queue, concurrency,
                       collecting(lane) if partials else on_response)
    if state["remaining"] == 0 and not done.triggered:
        done.succeed()
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
    throughput = mops(len(ops), elapsed)
    stats: Dict[str, float] = {
        "operations": float(len(ops)),
        "elapsed_ns": elapsed,
        "throughput_mops": throughput,
        **latency_fields(latencies),
        "wall_clock_s": wall_clock_s,
        "sim_ops_per_wall_s": (
            len(ops) / wall_clock_s if wall_clock_s > 0 else 0.0
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
