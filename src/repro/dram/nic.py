"""NIC on-board DRAM: a small, slower-than-PCIe memory next to the FPGA.

4 GiB of DDR3-1600 at 12.8 GB/s with a single channel - "an order of
magnitude smaller than the KVS storage on host DRAM and slightly slower than
the PCIe link" (section 3.3.4).  The model is timing only: a bandwidth
server plus a fixed access latency, ending in the caller's continuation
(there is no event to wait on).  It holds no bytes: the data stays in the
host :class:`~repro.dram.host.MemoryImage`, and
:class:`~repro.dram.cache.DramCache` keeps only the tags.
"""

from __future__ import annotations

from typing import Callable

from repro import constants
from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.resources import BandwidthServer
from repro.sim.stats import Counter


class _Burst:
    """One access in flight: issue -> channel drained -> latency -> ``then``
    queued, a queue hop each - the first too (``docs/MODELING.md``,
    "Same-instant ordering contract", has the run that moves when it is
    dropped).  ``then`` is the caller's next step, queued bare where a
    completion event used to be."""

    __slots__ = ("dram", "nbytes", "then")

    def __init__(self, dram: "NICDram", nbytes: int, then) -> None:
        self.dram = dram
        self.nbytes = nbytes
        self.then = then
        dram.sim.call_soon(self.issue)

    def issue(self, _entry) -> None:
        self.dram.channel.reserve(self.nbytes, self.drained)

    def drained(self, _entry) -> None:
        dram = self.dram
        dram.sim.call_after(dram.latency_ns, self.landed)

    def landed(self, _entry) -> None:
        self.dram.sim.call_soon(self.then)


class NICDram:
    """Timing + functional model of the NIC's on-board DRAM."""

    def __init__(
        self,
        sim: Simulator,
        size: int = constants.NIC_DRAM_SIZE,
    ) -> None:
        if not size > 0:
            raise ConfigurationError("NIC DRAM size must be positive")
        self.sim = sim
        self.size = size
        self.latency_ns = constants.NIC_DRAM_LATENCY_NS
        self.channel = BandwidthServer.from_bytes_per_sec(
            sim, constants.NIC_DRAM_BANDWIDTH, name="nic_dram"
        )
        self.counters = Counter()

    def access(self, nbytes: int, write: bool, then: Callable) -> None:
        """Timed access of ``nbytes``: ``then(kick)`` is queued when the
        burst has drained."""
        counters = self.counters
        if write:
            counters["writes"] += 1
            counters["write_bytes"] += nbytes
        else:
            counters["reads"] += 1
            counters["read_bytes"] += nbytes
        _Burst(self, nbytes, then)
