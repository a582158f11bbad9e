"""FPGA DMA engine model: tags, credits, TLP serialization, latency.

A DMA **read** (non-posted):

1. waits for a free PCIe tag (the FPGA's DMA engine has 64) and a
   non-posted header credit,
2. serializes its request TLP (header-only) on the upstream channel,
3. waits the random round-trip latency (host DRAM access, refresh,
   completion reordering - Figure 3b),
4. serializes the completion TLP (header + payload) on the downstream
   channel, then frees the tag and credit.

A DMA **write** (posted) takes a posted header credit, serializes the full
request TLP upstream, and completes once serialized; the credit returns
after the fabric round-trip.

Either completes by queueing the caller's continuation, ``then`` - handed
a failed event when the retry budget runs out - and there is no other way
to wait on one.

With the paper's constants this reproduces Figure 3a: 64-byte reads are
tag-bound near 60 Mops; writes are bandwidth-bound near 80 Mops.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.constants import (
    PCIE_FABRIC_RTT_NS,
    PCIE_GEN3_X8_BANDWIDTH,
    PCIE_NONPOSTED_CREDITS,
    PCIE_POSTED_CREDITS,
)
from repro.errors import FaultInjected
from repro.pcie.link import PCIeLinkConfig
from repro.pcie.tlp import (
    read_request_bytes,
    read_response_bytes,
    transfer_drop_probability,
    write_request_bytes,
)
from repro.sim.engine import Simulator
from repro.sim.resources import BandwidthServer, TokenPool
from repro.sim.stats import Counter, Histogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.obs.profiler import StageProfiler


class _Transfer:
    """One DMA in flight, kept the way the hardware keeps it (Figure 3): a
    few registers stepped by a fixed state machine, not a process.

    Creating it queues ``issue``, one hop after the request; every later step is
    the continuation handed to the resource it waits for (a tag or credit
    grant, a drained channel, a timer), and the last one queues ``then`` -
    the caller's next step, bare, where a completion event used to be.
    ``sent`` / ``drop_check``
    are the fault checks of one attempt, run only on a link with an
    injector (a clean link's drained request goes straight to
    ``delivered``): an attempt whose TLPs were
    dropped is replayed from ``send`` after the completion timeout, and
    once the retry budget is exhausted the transfer fails: ``then`` is
    handed a failed event carrying :class:`~repro.errors.FaultInjected`.
    Each step is one queue entry, and how many
    there are is observable (``docs/MODELING.md``, "Same-instant ordering
    contract"): merging two moves simulated results.
    """

    __slots__ = ("link", "nbytes", "seq", "then", "attempts")

    def __init__(self, link: "DMAEngine", nbytes: int, seq: int, then) -> None:
        self.link = link
        self.nbytes = nbytes
        self.seq = seq
        self.attempts = 0
        self.then = then
        link.sim.call_soon(self.issue)

    def send(self, _event) -> None:
        link = self.link
        # The request TLP drains into the transfer's delivery, or - with an
        # injector - into the fault checks that decide whether it arrived.
        link.tx.reserve(
            self.request_bytes(self.nbytes),
            self.delivered if link.injector is None else self.sent,
        )

    def sent(self, _entry) -> None:
        link = self.link
        injector = link.injector
        if injector.dma_delay(link.name, link.sim.now):
            link.counters["fault_delays"] += 1
            link._trace(self.seq, "pcie.fault_delay", link.name)
            link.sim.call_after(injector.plan.dma_delay_ns, self.drop_check)
        else:
            self.drop_check(None)

    def drop_check(self, _entry) -> None:
        link = self.link
        injector = link.injector
        drop_prob = transfer_drop_probability(
            injector.plan.dma_drop_prob, self.nbytes
        )
        if not injector.dma_drop(link.name, link.sim.now, prob=drop_prob):
            self.delivered()
            return
        link.counters["fault_drops"] += 1
        self.attempts += 1
        if self.attempts > injector.plan.dma_max_retries:
            self.release()
            link.sim.fail(self.then, FaultInjected(
                f"{link.name}: DMA transfer dropped "
                f"{self.attempts} times, retry budget exhausted"
            ))
            return
        link.counters["dma_retries"] += 1
        link._trace(
            self.seq, "pcie.retry", f"{link.name} attempt={self.attempts}"
        )
        # Completion timeout before the engine notices and replays.
        link.sim.call_after(injector.plan.dma_retry_timeout_ns, self.send)


class _Read(_Transfer):
    """Non-posted read: tag, credit, request TLP, round trip, completion."""

    __slots__ = ("start",)
    request_bytes = staticmethod(read_request_bytes)

    def issue(self, _entry) -> None:
        link = self.link
        self.start = link.sim.now
        link.tags.acquire(self.tagged)

    def tagged(self, _event) -> None:
        self.link.nonposted_credits.acquire(self.send)

    def delivered(self, _entry=None) -> None:
        # Round trip: root complex -> host DRAM -> completion arrives.
        link = self.link
        link.sim.call_after(link.config.read_latency.sample(), self.respond)

    def respond(self, _entry) -> None:
        # Completion TLP(s) downstream carry the payload.
        self.link.rx.reserve(read_response_bytes(self.nbytes), self.complete)

    def release(self) -> None:
        self.link.nonposted_credits.release()
        self.link.tags.release()

    def complete(self, _entry) -> None:
        link = self.link
        nbytes = self.nbytes
        link.nonposted_credits.release()  # what release() does, in place
        link.tags.release()
        counters = link.counters
        counters["dma_reads"] += 1
        counters["dma_read_bytes"] += nbytes
        link.read_latency_hist.record(link.sim.now - self.start)
        if link.profiler is not None:
            link.profiler.record_dma(self.seq, "read", nbytes)
        if link.tracer is not None:
            link.tracer.emit(self.seq, "pcie.read", f"{link.name} {nbytes}B")
        link.sim.call_soon(self.then)


class _Write(_Transfer):
    """Posted write: credit, request TLP; done once serialized."""

    __slots__ = ()
    request_bytes = staticmethod(write_request_bytes)

    def issue(self, _entry) -> None:
        self.link.posted_credits.acquire(self.send)

    def delivered(self, _entry=None) -> None:
        link = self.link
        nbytes = self.nbytes
        # The posted credit is consumed until the root complex processes the
        # write and returns a flow-control update (~ fabric RTT later).
        link.sim.call_soon(self.credit_in_flight)
        counters = link.counters
        counters["dma_writes"] += 1
        counters["dma_write_bytes"] += nbytes
        if link.profiler is not None:
            link.profiler.record_dma(self.seq, "write", nbytes)
        if link.tracer is not None:
            link.tracer.emit(self.seq, "pcie.write", f"{link.name} {nbytes}B")
        link.sim.call_soon(self.then)

    def credit_in_flight(self, _entry) -> None:
        link = self.link
        link.sim.call_after(PCIE_FABRIC_RTT_NS, self.release)

    def release(self, _entry=None) -> None:
        self.link.posted_credits.release()


class DMAEngine:
    """One PCIe endpoint's DMA engine."""

    def __init__(
        self,
        sim: Simulator,
        config: Optional[PCIeLinkConfig] = None,
        name: str = "pcie0",
        injector: Optional["FaultInjector"] = None,
        profiler: Optional["StageProfiler"] = None,
    ) -> None:
        self.sim = sim
        self.config = config or PCIeLinkConfig()
        self.name = name
        #: Optional fault injector: delay spikes and dropped TLPs.
        self.injector = injector
        #: The simulator's per-op tracer: spans for transfers, retries,
        #: delays.
        self.tracer = sim.tracer
        #: Optional profiler: attributes completed TLPs to op classes.
        self.profiler = profiler
        bytes_per_ns = PCIE_GEN3_X8_BANDWIDTH / 1e9
        #: NIC -> host direction (read requests, write request TLPs).
        self.tx = BandwidthServer(sim, bytes_per_ns, name=f"{name}.tx")
        #: Host -> NIC direction (read completions).
        self.rx = BandwidthServer(sim, bytes_per_ns, name=f"{name}.rx")
        self.tags = TokenPool(sim, self.config.tags, name=f"{name}.tags")
        self.posted_credits = TokenPool(
            sim, PCIE_POSTED_CREDITS, name=f"{name}.posted"
        )
        self.nonposted_credits = TokenPool(
            sim, PCIE_NONPOSTED_CREDITS, name=f"{name}.nonposted"
        )
        self.counters = Counter()
        self.read_latency_hist = Histogram()

    # -- public API ---------------------------------------------------------

    def read(self, nbytes: int, seq: int, then: Callable) -> None:
        """Issue a DMA read: ``then(kick)`` is queued with the data
        available on the NIC, or ``then(failed_event)`` once the retry
        budget is exhausted.  ``seq`` is the client sequence of the op this
        transfer serves (for tracing; -1 when unattributed)."""
        _Read(self, nbytes, seq, then)

    def write(self, nbytes: int, seq: int, then: Callable) -> None:
        """Issue a posted DMA write; completes, the way :meth:`read` does,
        once the TLP is serialized."""
        _Write(self, nbytes, seq, then)

    def _trace(self, seq: int, stage: str, detail: str = "") -> None:
        if self.tracer is not None:
            self.tracer.emit(seq, stage, detail)

    # -- introspection ------------------------------------------------------

    @property
    def reads(self) -> int:
        return self.counters["dma_reads"]

    @property
    def writes(self) -> int:
        return self.counters["dma_writes"]

    def snapshot(self) -> dict:
        data = self.counters.snapshot()
        data["tags_peak"] = self.tags.peak_in_use
        data["tx_bytes_on_wire"] = self.tx.bytes_transferred
        data["rx_bytes_on_wire"] = self.rx.bytes_transferred
        return data


class MultiLinkDMA:
    """Round-robin dispatcher over several PCIe endpoints.

    The programmable NIC attaches through two Gen3 x8 links in a bifurcated
    x16 connector; the memory access engine stripes DMA requests across them.
    """

    def __init__(
        self,
        sim: Simulator,
        link_count: int = 2,
        config_factory=PCIeLinkConfig.gen3_x8,
        injector: Optional["FaultInjector"] = None,
        profiler: Optional["StageProfiler"] = None,
    ) -> None:
        if link_count <= 0:
            raise ValueError("link_count must be positive")
        self.sim = sim
        self.links = [
            DMAEngine(
                sim, config_factory(seed=i), name=f"pcie{i}",
                injector=injector, profiler=profiler,
            )
            for i in range(link_count)
        ]
        self._link_count = link_count
        self._next = 0

    def read(self, nbytes: int, seq: int, then: Callable) -> None:
        """:meth:`DMAEngine.read` on the next link in turn, the transfer
        started on the link directly."""
        link = self.links[self._next]
        self._next = (self._next + 1) % self._link_count
        _Read(link, nbytes, seq, then)

    def write(self, nbytes: int, seq: int, then: Callable) -> None:
        """:meth:`DMAEngine.write` on the next link in turn."""
        link = self.links[self._next]
        self._next = (self._next + 1) % self._link_count
        _Write(link, nbytes, seq, then)

    @property
    def reads(self) -> int:
        return sum(link.reads for link in self.links)

    @property
    def writes(self) -> int:
        return sum(link.writes for link in self.links)

    def snapshot(self) -> dict:
        merged: dict = {}
        for link in self.links:
            for key, value in link.snapshot().items():
                merged[key] = merged.get(key, 0) + value
        return merged
