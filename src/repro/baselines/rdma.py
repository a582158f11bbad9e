"""Analytic RDMA-based KVS models (sections 2.2, 5.1.3; Figure 13).

Two-sided RDMA (HERD-style): the NIC delivers messages, server CPU
processes KV ops - bounded by min(NIC message rate, CPU throughput).

One-sided RDMA (Pilaf/FaRM-style): clients GET with 1 + epsilon READs, but
PUTs need multiple round trips (lock/insert/unlock or CPU fallback), and
atomics serialize on internal NIC locks: the paper measures 2.24 Mops for
single-key RDMA atomics.
"""

from __future__ import annotations

from repro import constants


class TwoSidedRDMAModel:
    """Server-CPU-bound RPC KVS over a message-rate-limited NIC."""

    cores = 16
    nic_message_rate = constants.RDMA_NIC_MESSAGE_RATE[1]
    ops_per_core = constants.CPU_CORE_KV_OPS_BATCHED

    def throughput(self) -> float:
        """min(NIC message rate, aggregate CPU rate), ops/s."""
        return min(self.nic_message_rate, self.cores * self.ops_per_core)

    def atomics_throughput(self, distinct_keys: int = 1) -> float:
        """Atomics execute on the server CPU; one core per hot key."""
        per_key = self.ops_per_core
        return min(self.throughput(), distinct_keys * per_key)


class OneSidedRDMAModel:
    """Client-driven KVS using one-sided READ/WRITE/atomics."""

    nic_message_rate = constants.RDMA_NIC_MESSAGE_RATE[1]
    #: Measured single-key atomics rate (internal NIC lock serializes).
    atomics_rate = constants.RDMA_ATOMICS_OPS

    def atomics_throughput(self, distinct_keys: int = 1) -> float:
        """Per-key atomics serialize; spread across keys until NIC-bound."""
        return min(
            self.nic_message_rate, distinct_keys * self.atomics_rate
        )
