"""RDMA-over-Ethernet framing arithmetic.

Every packet carries 88 bytes of header and padding (Ethernet + IP + UDP +
InfiniBand BTH/RETH + ICRC, as in RoCEv2) - the constant the paper uses to
motivate client-side batching (section 4).
"""

from __future__ import annotations

import math

from repro.constants import NETWORK_MTU, RDMA_PACKET_OVERHEAD


def packet_wire_bytes(payload: int) -> int:
    """Wire bytes for one packet with ``payload`` bytes of KV data."""
    if payload < 0:
        raise ValueError(f"negative payload: {payload}")
    return payload + RDMA_PACKET_OVERHEAD


def packets_for_payload(payload: int, mtu: int = NETWORK_MTU) -> int:
    """Packets needed to carry ``payload`` bytes at the given MTU."""
    if mtu <= 0:
        raise ValueError(f"MTU must be positive: {mtu}")
    if payload <= 0:
        return 1
    return math.ceil(payload / mtu)


def wire_bytes(payload: int, mtu: int = NETWORK_MTU) -> int:
    """Total wire bytes including per-packet overhead for a payload."""
    return payload + packets_for_payload(payload, mtu) * RDMA_PACKET_OVERHEAD
