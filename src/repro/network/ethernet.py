"""40 GbE port model: bandwidth serialization plus propagation delay.

With a fault injector attached, each direction also models fabric
misbehaviour: packet **loss** (the transfer process fails with
:class:`~repro.errors.FaultInjected`; the client's retry/backoff path
recovers), **reordering** (the packet is delayed past its successors), and
**duplication** (the copy burns link bandwidth but is discarded by the
receiver).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro import constants
from repro.errors import ConfigurationError, FaultInjected
from repro.sim.engine import Process, Simulator
from repro.sim.resources import BandwidthServer
from repro.sim.stats import Counter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.obs.tracer import Tracer


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
        rtt_ns: float = constants.NETWORK_RTT_NS,
        injector: Optional["FaultInjector"] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        if bandwidth <= 0:
            raise ConfigurationError("network bandwidth must be positive")
        if rtt_ns < 0:
            raise ConfigurationError("network RTT must be non-negative")
        self.sim = sim
        self.rtt_ns = rtt_ns
        rate = bandwidth / 1e9
        self.ingress = BandwidthServer(sim, rate, name="eth.rx")
        self.egress = BandwidthServer(sim, rate, name="eth.tx")
        #: Optional fault injector: loss / reorder / duplication per flight.
        self.injector = injector
        #: Optional tracer: flight delivery and fabric-misbehaviour spans
        #: (emitted with seq -1, packets carry whole batches).
        self.tracer = tracer
        self.counters = Counter()

    def _trace(self, stage: str, detail: str = "") -> None:
        if self.tracer is not None:
            self.tracer.emit(-1, stage, detail)

    def receive(self, nbytes: int) -> Process:
        """Client -> server transfer; completes when fully received."""
        self.counters["rx_packets"] += 1
        self.counters["rx_bytes"] += nbytes
        return self.sim.process(self._transfer(self.ingress, nbytes, "rx"))

    def send(self, nbytes: int, nacks: int = 0) -> Process:
        """Server -> client transfer; completes when delivered.

        ``nacks`` counts ServerBusy NACKs riding in this response packet
        (shed operations answered without execution), surfaced as the
        ``eth.tx_nacks`` counter.
        """
        self.counters["tx_packets"] += 1
        self.counters["tx_bytes"] += nbytes
        if nacks:
            self.counters["tx_nacks"] += nacks
        return self.sim.process(self._transfer(self.egress, nbytes, "tx"))

    def _transfer(self, channel: BandwidthServer, nbytes: int, direction: str):
        yield channel.transfer(nbytes)
        injector = self.injector
        if injector is not None:
            site = f"eth.{direction}"
            if injector.packet_duplicate(site, self.sim.now):
                # The duplicate serializes too; the receiver drops it.
                self.counters.add(f"{direction}_duplicates")
                self._trace(f"eth.{direction}.dup", f"{nbytes}B")
                yield channel.transfer(nbytes)
            if injector.packet_reorder(site, self.sim.now):
                # Held in the fabric long enough for successors to pass it.
                self.counters.add(f"{direction}_reordered")
                self._trace(f"eth.{direction}.reorder", f"{nbytes}B")
                yield self.sim.timeout(injector.plan.packet_reorder_delay_ns)
            if injector.packet_loss(site, self.sim.now):
                self.counters.add(f"{direction}_lost")
                self._trace(f"eth.{direction}.lost", f"{nbytes}B")
                raise FaultInjected(
                    f"{direction} packet ({nbytes} B) lost in the fabric"
                )
        yield self.sim.timeout(self.rtt_ns / 2.0)
        self._trace(f"eth.{direction}", f"{nbytes}B")

    def snapshot(self) -> dict:
        return self.counters.snapshot()
