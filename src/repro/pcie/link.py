"""PCIe link configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import constants
from repro.errors import ConfigurationError
from repro.sim.latency import UniformLatency


@dataclass
class PCIeLinkConfig:
    """Parameters of one PCIe endpoint as seen by the FPGA DMA engine.

    Defaults reproduce the paper's Gen3 x8 endpoint (sections 2.4 and 4).
    """

    #: Raw link bandwidth in bytes/second (one direction).
    bandwidth: float = constants.PCIE_GEN3_X8_BANDWIDTH

    #: PCIe tags available for outstanding DMA reads.
    tags: int = constants.PCIE_DMA_TAGS

    #: Posted header credits (limit outstanding DMA writes).
    posted_credits: int = constants.PCIE_POSTED_CREDITS

    #: Non-posted header credits (limit outstanding DMA reads).
    nonposted_credits: int = constants.PCIE_NONPOSTED_CREDITS

    #: Fabric round-trip time in ns (credit return latency).
    fabric_rtt_ns: float = constants.PCIE_FABRIC_RTT_NS

    #: Latency model for DMA reads (request issue to completion arrival).
    read_latency: UniformLatency = field(
        default_factory=lambda: UniformLatency(
            constants.PCIE_DMA_READ_CACHED_NS,
            constants.PCIE_DMA_READ_RANDOM_SPREAD_NS,
        )
    )

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigurationError("PCIe bandwidth must be positive")
        if self.tags <= 0:
            raise ConfigurationError("PCIe tag count must be positive")
        if self.posted_credits <= 0 or self.nonposted_credits <= 0:
            raise ConfigurationError("PCIe credits must be positive")
        if self.fabric_rtt_ns < 0:
            raise ConfigurationError("fabric RTT must be non-negative")

    @classmethod
    def gen3_x8(cls, seed: int = 0) -> "PCIeLinkConfig":
        """The paper's endpoint with a seeded latency distribution."""
        return cls(
            read_latency=UniformLatency(
                constants.PCIE_DMA_READ_CACHED_NS,
                constants.PCIE_DMA_READ_RANDOM_SPREAD_NS,
                seed=seed,
            )
        )
