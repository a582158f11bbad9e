"""PCIe transport-layer packet (TLP) size arithmetic.

Section 2.4: "each DMA read or write operation needs a PCIe transport-layer
packet (TLP) with 26-byte header and padding for 64-bit addressing.  For a
PCIe Gen3 x8 NIC to access host memory in 64-byte granularity, the
theoretical throughput is therefore 5.6 GB/s, or 87 Mops."

These helpers centralize that arithmetic so the DMA engine, the benchmarks,
and the analytic sanity checks all agree.
"""

from __future__ import annotations

import math
from functools import lru_cache

from repro.constants import PCIE_TLP_OVERHEAD

#: Maximum payload per TLP; requests larger than this split into several.
MAX_TLP_PAYLOAD = 256


def tlp_count(nbytes: int, max_payload: int = MAX_TLP_PAYLOAD) -> int:
    """Number of TLPs needed to move ``nbytes`` of payload."""
    if nbytes < 0:
        raise ValueError(f"negative payload size: {nbytes}")
    if nbytes == 0:
        return 1  # zero-length reads still need a request TLP
    return math.ceil(nbytes / max_payload)


@lru_cache(maxsize=1024)
def read_request_bytes(nbytes: int) -> int:
    """Upstream bytes for a DMA read request (headers only, no payload)."""
    return tlp_count(nbytes) * PCIE_TLP_OVERHEAD


@lru_cache(maxsize=1024)
def read_response_bytes(nbytes: int) -> int:
    """Downstream bytes for a DMA read completion (headers + payload)."""
    return nbytes + tlp_count(nbytes) * PCIE_TLP_OVERHEAD


@lru_cache(maxsize=1024)
def write_request_bytes(nbytes: int) -> int:
    """Downstream bytes for a posted DMA write (headers + payload)."""
    return nbytes + tlp_count(nbytes) * PCIE_TLP_OVERHEAD


def transfer_drop_probability(
    per_tlp_prob: float, nbytes: int, max_payload: int = MAX_TLP_PAYLOAD
) -> float:
    """Chance a whole transfer is hit when each of its TLPs drops i.i.d.

    A transfer of ``nbytes`` needs :func:`tlp_count` TLPs; losing any one
    of them loses the transfer (the completion never assembles), so the
    per-transfer probability is ``1 - (1 - p)^n``.  The DMA engine's fault
    path uses this so large (multi-TLP) transfers are proportionally more
    exposed than 64-byte ones, as on a real fabric.
    """
    if not 0.0 <= per_tlp_prob <= 1.0:
        raise ValueError(f"per-TLP probability out of range: {per_tlp_prob}")
    if per_tlp_prob == 0.0:
        return 0.0
    return 1.0 - (1.0 - per_tlp_prob) ** tlp_count(nbytes, max_payload)


def effective_bandwidth(raw_bandwidth: float, payload: int) -> float:
    """Payload bandwidth after TLP overhead, in the same units as input.

    ``effective_bandwidth(7.87e9, 64)`` is the paper's 5.6 GB/s figure.
    """
    if payload <= 0:
        raise ValueError(f"payload must be positive: {payload}")
    wire = payload + tlp_count(payload) * PCIE_TLP_OVERHEAD
    return raw_bandwidth * payload / wire


def effective_op_rate(raw_bandwidth: float, payload: int) -> float:
    """Operations per second at a given payload, bandwidth-bound.

    ``effective_op_rate(7.87e9, 64)`` is the paper's 87 Mops figure.
    """
    return effective_bandwidth(raw_bandwidth, payload) / payload
