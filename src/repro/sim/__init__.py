"""Discrete-event simulation kernel.

A minimal, dependency-free simulator in the style of SimPy: generator
processes for cold control flow, callback chains on the request path.
Simulated time is measured in **nanoseconds** throughout the project.

The kernel provides:

- :class:`~repro.sim.engine.Simulator` - the event loop and clock.  A
  queue entry is a triggered event or any bare callable (``call_soon`` /
  ``call_after`` / ``call_when``), called with one shared kick-start
  sentinel: what a leaf model's chain hops on, at no allocation per hop.
- :class:`~repro.sim.engine.Event`, :class:`~repro.sim.engine.Process` -
  synchronization primitives; processes are Python generators that ``yield``
  events.  Completions inside the resources and leaf models are not events
  but continuations (``then``): the next step, queued bare when its turn
  comes.
- :class:`~repro.sim.resources.TokenPool` - counted resource (PCIe tags,
  flow-control credits); ``acquire(then)`` queues the continuation on grant.
- :class:`~repro.sim.resources.BandwidthServer` - a serial channel with a
  fixed byte rate (PCIe link, DRAM channel, Ethernet port);
  ``reserve(nbytes, then)`` books the bytes and queues ``then`` at the
  drain time.
- :class:`~repro.sim.resources.FIFOServer` - a fixed-service-time pipeline
  stage; ``reserve(then)`` the same, at the item's exit.
- :mod:`~repro.sim.stats` - counters, histograms and percentile helpers.
- :mod:`~repro.sim.latency` - reproducible latency distributions.
"""

from repro.sim.engine import AllOf, Event, Process, Simulator, Timeout
from repro.sim.latency import (
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    UniformLatency,
)
from repro.sim.resources import BandwidthServer, FIFOServer, TokenPool
from repro.sim.stats import Counter, Histogram, RunningStats

__all__ = [
    "AllOf",
    "BandwidthServer",
    "ConstantLatency",
    "Counter",
    "Event",
    "ExponentialLatency",
    "FIFOServer",
    "Histogram",
    "LatencyModel",
    "Process",
    "RunningStats",
    "Simulator",
    "Timeout",
    "TokenPool",
    "UniformLatency",
]
