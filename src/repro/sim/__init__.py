"""Discrete-event simulation kernel.

A minimal, dependency-free simulator in the style of SimPy, driven by
callback chains everywhere - the request path and the cold control flow
around it (clients' batches, router attempts, failover, the soak).
Simulated time is measured in **nanoseconds** throughout the project.

The kernel provides:

- :class:`~repro.sim.engine.Simulator` - the event loop and clock.  A
  queue entry is a triggered event or any bare callable (``call_soon`` /
  ``call_after`` / ``call_when``), called with one shared kick-start
  sentinel: what a leaf model's chain hops on, at no allocation per hop.
- :class:`~repro.sim.engine.Event` - a one-shot occurrence a caller waits
  on (an op's response, a packet, a run's settle).  Completions inside the
  resources and leaf models are not events but continuations (``then``):
  the next step, queued bare when its turn comes.
  :class:`~repro.sim.engine.Process` and :class:`~repro.sim.engine.Timeout`
  (generators that ``yield`` events, and their sleeps) remain for test
  code and the benchmark's kernel ledger; no model code creates them.
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

from repro.sim.engine import Event, Process, Simulator, Timeout
from repro.sim.latency import UniformLatency
from repro.sim.resources import BandwidthServer, FIFOServer, TokenPool
from repro.sim.stats import Counter, Histogram, RunningStats

__all__ = [
    "BandwidthServer",
    "Counter",
    "Event",
    "FIFOServer",
    "Histogram",
    "Process",
    "RunningStats",
    "Simulator",
    "Timeout",
    "TokenPool",
    "UniformLatency",
]
