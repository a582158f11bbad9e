"""40 GbE port model: bandwidth serialization plus propagation delay.

With a fault injector attached, each direction also models fabric
misbehaviour: packet **loss** (the transfer fails with
:class:`~repro.errors.FaultInjected`; the client's retry/backoff path
recovers), **reordering** (the packet is delayed past its successors), and
**duplication** (the copy burns link bandwidth but is discarded by the
receiver).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro import constants
from repro.errors import ConfigurationError, FaultInjected
from repro.sim.engine import Event, Simulator
from repro.sim.resources import BandwidthServer
from repro.sim.stats import Counter

#: The fault site of each packet draw, under ``eth.<direction>``.
_SITE_SUFFIX = {
    "packet_duplicate": "dup",
    "packet_reorder": "reorder",
    "packet_loss": "loss",
}

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector


class _Transfer(Event):
    """One packet in flight and the event its sender waits on: serialized
    (again for a duplicate, which the receiver drops), held back by a
    reorder so successors pass it, propagated - or lost (``FaultInjected``)."""

    __slots__ = ("link", "channel", "nbytes", "direction")

    def __init__(self, link, channel, nbytes: int, direction: str) -> None:
        super().__init__(link.sim)
        self.link, self.channel = link, channel
        self.nbytes, self.direction = nbytes, direction
        link.sim.call_soon(self.start)

    def start(self, _entry) -> None:
        self.channel.reserve(self.nbytes, self.sent)

    def sent(self, _entry) -> None:
        if self.misbehaves("packet_duplicate", "dup", "duplicates"):
            self.channel.reserve(self.nbytes, self.held)
        else:
            self.held(None)

    def held(self, _entry) -> None:
        if self.misbehaves("packet_reorder", "reorder", "reordered"):
            delay = self.link.injector.plan.packet_reorder_delay_ns
            self.sim.call_after(delay, self.released)
        else:
            self.released(None)

    def released(self, _entry) -> None:
        if self.misbehaves("packet_loss", "lost", "lost"):
            what = f"{self.direction} packet ({self.nbytes} B)"
            self.fail(FaultInjected(f"{what} lost in the fabric"))
        else:
            self.sim.call_after(self.link.rtt_ns / 2.0, self.arrived)

    def arrived(self, _entry) -> None:
        self.link._trace(f"eth.{self.direction}", f"{self.nbytes}B")
        self.sim.finish(self)

    def misbehaves(self, draw: str, span: str, counter: str) -> bool:
        """Draw ``draw`` for this packet; count and trace it if it fires."""
        link, site = self.link, f"eth.{self.direction}"
        injector = link.injector
        if injector is None or not injector.fire(
            f"{site}.{_SITE_SUFFIX[draw]}", draw,
            getattr(injector.plan, draw + "_prob"), self.sim.now,
        ):
            return False
        link.counters.add(f"{self.direction}_{counter}")
        link._trace(f"{site}.{span}", f"{self.nbytes}B")
        return True


class EthernetLink:
    """A full-duplex Ethernet port.

    Each direction is a serial channel at the port rate; a transfer
    completes after serialization plus half the network round-trip time
    (one-way propagation through the ToR switch).
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float = constants.NETWORK_BANDWIDTH,
        injector: Optional["FaultInjector"] = None,
    ) -> None:
        if not bandwidth > 0:
            raise ConfigurationError("network bandwidth must be positive")
        self.sim = sim
        self.rtt_ns = constants.NETWORK_RTT_NS
        rate = bandwidth / 1e9
        self.ingress = BandwidthServer(sim, rate, name="eth.rx")
        self.egress = BandwidthServer(sim, rate, name="eth.tx")
        #: Optional fault injector: loss / reorder / duplication per flight.
        self.injector = injector
        #: The simulator's tracer: flight delivery and fabric-misbehaviour
        #: spans (emitted with seq -1, packets carry whole batches).
        self.tracer = sim.tracer
        self.counters = Counter()

    def _trace(self, stage: str, detail: str = "") -> None:
        if self.tracer is not None:
            self.tracer.emit(-1, stage, detail)

    def receive(self, nbytes: int) -> Event:
        """Client -> server transfer; completes when fully received."""
        self.counters["rx_packets"] += 1
        self.counters["rx_bytes"] += nbytes
        return _Transfer(self, self.ingress, nbytes, "rx")

    def send(self, nbytes: int, nacks: int = 0) -> Event:
        """Server -> client transfer; completes when delivered.

        ``nacks`` counts ServerBusy NACKs riding in this response packet
        (shed operations answered without execution), surfaced as the
        ``eth.tx_nacks`` counter.
        """
        self.counters["tx_packets"] += 1
        self.counters["tx_bytes"] += nbytes
        if nacks:
            self.counters["tx_nacks"] += nacks
        return _Transfer(self, self.egress, nbytes, "tx")
