"""Shared-resource models: token pools, serial channels, pipeline stages.

These are the reusable building blocks the hardware substrates are composed
from:

- PCIe tags and flow-control credits are :class:`TokenPool`\\ s.
- A PCIe link, a DRAM channel, and an Ethernet port are
  :class:`BandwidthServer`\\ s - serial channels that take ``size / rate``
  seconds per transfer and queue excess demand.
- A fully pipelined FPGA kernel stage is a :class:`FIFOServer` with an
  initiation interval of one clock cycle.

Each takes the waiter's next step as a required continuation, ``then``,
and queues it itself: a pool at the grant, a channel or stage at its drain
time, in the frame that books it.  Every size, rate and time check is written so that NaN fails it, before
any state moves.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Callable, Deque

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class TokenPool:
    """A counted resource with FIFO acquisition.

    Models PCIe tags (64 per DMA engine) and posted/non-posted header
    credits.  ``acquire`` queues a continuation once a token is
    available; ``release`` returns one token.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "tokens") -> None:
        if not capacity > 0:
            raise SimulationError(f"{name}: capacity must be positive")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.available = capacity
        self._waiters: Deque[Callable] = deque()
        self.peak_in_use = 0
        self.total_acquired = 0

    def acquire(self, then: Callable) -> None:
        """Request one token.  ``then(kick)`` is queued once it is granted -
        at once, or in FIFO turn on a later :meth:`release`."""
        if self.available > 0 and not self._waiters:
            self.available -= 1
            self.total_acquired += 1
            in_use = self.capacity - self.available
            if in_use > self.peak_in_use:
                self.peak_in_use = in_use
            self.sim.call_soon(then)
        else:
            self._waiters.append(then)

    def release(self) -> None:
        """Return one token, waking the oldest waiter if any."""
        if self.available >= self.capacity:
            raise SimulationError(f"{self.name}: release without acquire")
        if self._waiters:
            # The token passes directly to the oldest waiter; available
            # stays unchanged (it was consumed by the releaser and is now
            # consumed by the waiter), and so does the peak.
            self.total_acquired += 1
            self.sim.call_soon(self._waiters.popleft())
        else:
            self.available += 1


class BandwidthServer:
    """A serial channel with a fixed byte rate.

    Each transfer occupies the channel for ``size / rate`` ns after all
    previously submitted transfers have drained, which models head-of-line
    serialization on a PCIe link, a DRAM channel, or an Ethernet port.
    """

    def __init__(
        self,
        sim: Simulator,
        bytes_per_ns: float,
        name: str = "channel",
    ) -> None:
        if not bytes_per_ns > 0:
            raise SimulationError(f"{name}: rate must be positive")
        self.sim = sim
        self.name = name
        self.bytes_per_ns = bytes_per_ns
        self._free_at = 0.0
        self.bytes_transferred = 0
        self.transfers = 0
        self.busy_time = 0.0

    @classmethod
    def from_bytes_per_sec(
        cls, sim: Simulator, bytes_per_sec: float, name: str = "channel"
    ) -> "BandwidthServer":
        return cls(sim, bytes_per_sec / 1e9, name)

    def reserve(self, nbytes: float, then: Callable) -> None:
        """Book ``nbytes`` behind everything already submitted and queue
        ``then(kick)`` for the instant the channel has drained them."""
        if not nbytes >= 0:
            raise SimulationError(
                f"{self.name}: transfer size must be >= 0, got {nbytes!r}"
            )
        sim = self.sim
        now = sim.now
        start = self._free_at
        if start < now:
            start = now
        duration = nbytes / self.bytes_per_ns
        drained = self._free_at = start + duration
        self.bytes_transferred += nbytes
        self.transfers += 1
        self.busy_time += duration
        # Where ``call_when(drained, then)`` queues it (docs/MODELING.md,
        # "Same-instant ordering contract"): a zero-byte transfer at once,
        # anything else on the heap with the next sequence number.
        if drained == now:
            sim._dq.append(then)
        else:
            sim._sequence += 1
            heappush(sim._queue, (drained, sim._sequence, then))


class FIFOServer:
    """A pipeline stage with a fixed initiation interval.

    A fully pipelined FPGA kernel accepts one item per clock cycle; the
    initiation interval is the per-item service time and latency is how long
    one item spends in the pipe.  Items complete in order.
    """

    def __init__(
        self,
        sim: Simulator,
        initiation_interval_ns: float,
        latency_ns: float = 0.0,
        name: str = "stage",
    ) -> None:
        if not initiation_interval_ns > 0:
            raise SimulationError(f"{name}: initiation interval must be > 0")
        if not latency_ns >= 0:
            raise SimulationError(f"{name}: latency must be >= 0")
        self.sim = sim
        self.name = name
        self.interval = initiation_interval_ns
        self.latency = latency_ns
        self._next_issue = 0.0
        self.items = 0

    def reserve(self, then: Callable) -> None:
        """Enter the pipeline behind every earlier item and queue
        ``then(kick)`` for the instant this one exits."""
        sim = self.sim
        now = sim.now
        issue = self._next_issue
        if issue < now:
            issue = now
        self._next_issue = issue + self.interval
        self.items += 1
        exits = issue + self.latency + self.interval
        # Where ``call_when(exits, then)`` queues it (docs/MODELING.md,
        # "Same-instant ordering contract").
        if exits == now:
            sim._dq.append(then)
        else:
            sim._sequence += 1
            heappush(sim._queue, (exits, sim._sequence, then))

