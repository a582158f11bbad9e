"""PCIe link configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import constants
from repro.errors import ConfigurationError
from repro.sim.latency import UniformLatency


@dataclass
class PCIeLinkConfig:
    """What Figure 3 varies on one PCIe endpoint as seen by the FPGA DMA
    engine.  The rest of the paper's Gen3 x8 endpoint (sections 2.4 and 4:
    bandwidth, header credits, fabric round trip) is in
    :mod:`repro.constants`.
    """

    #: PCIe tags available for outstanding DMA reads.
    tags: int = constants.PCIE_DMA_TAGS

    #: Latency model for DMA reads (request issue to completion arrival).
    read_latency: UniformLatency = field(
        default_factory=lambda: UniformLatency(
            constants.PCIE_DMA_READ_CACHED_NS,
            constants.PCIE_DMA_READ_RANDOM_SPREAD_NS,
        )
    )

    def __post_init__(self) -> None:
        if self.tags <= 0:
            raise ConfigurationError("PCIe tag count must be positive")

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
