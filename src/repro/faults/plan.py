"""Declarative fault plans: what can go wrong, how often, and when.

A :class:`FaultPlan` is an immutable description of the adverse conditions
a simulation should run under - PCIe DMA delay spikes and dropped TLPs,
NIC-DRAM bit flips (routed through the real Hamming SEC-DED path), network
packet loss / reordering / duplication, and slab-area exhaustion.  The plan
itself holds no state; a :class:`~repro.faults.injector.FaultInjector`
turns it into a deterministic, seed-reproducible schedule.

Plans compose with :class:`~repro.core.config.KVDirectConfig` via its
``fault_plan`` field; every hardware model consults the injector at its
own fault sites.  See ``docs/FAULTS.md`` for the full fault model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FaultWindow:
    """A simulated-time window during which faults are allowed to fire.

    Fault sites with no notion of simulated time (the purely functional
    slab path) ignore the window.  The default window is always open.
    """

    start_ns: float = 0.0
    end_ns: float = math.inf

    def __post_init__(self) -> None:
        # Written so that NaN fails each check; only the end may be inf.
        if not 0 <= self.start_ns < math.inf:
            raise ConfigurationError(
                f"fault window start must be finite and non-negative: "
                f"{self.start_ns}"
            )
        if not self.end_ns >= self.start_ns:
            raise ConfigurationError(
                f"fault window ends ({self.end_ns}) before it starts "
                f"({self.start_ns})"
            )

    def contains(self, now_ns: float) -> bool:
        return self.start_ns <= now_ns < self.end_ns


@dataclass(frozen=True)
class FaultPlan:
    """All fault-injection knobs of one simulation run.

    Probabilities are per fault opportunity: per DMA transfer attempt, per
    NIC-DRAM line read, per packet flight, per slab allocation.  A plan
    with every probability at zero is inert.
    """

    # -- PCIe (pcie/dma.py, pcie/tlp.py) ---------------------------------
    #: Chance a DMA transfer hits a host-side delay spike (DRAM refresh,
    #: root-complex contention), and the extra latency it costs.
    dma_delay_prob: float = 0.0
    dma_delay_ns: float = 5000.0
    #: Chance that any single TLP of a transfer is dropped in the fabric.
    #: The engine retries after a completion timeout, up to the budget;
    #: past it the DMA fails with :class:`~repro.errors.FaultInjected`.
    dma_drop_prob: float = 0.0
    dma_max_retries: int = 8
    dma_retry_timeout_ns: float = 2000.0

    # -- NIC DRAM ECC (dram/cache.py, dram/hamming.py) -------------------
    #: Chance a line read carries a single flipped bit.  Routed through the
    #: real SEC-DED codec: corrected transparently, counted.
    bit_flip_prob: float = 0.0
    #: Chance a line read carries two flipped bits: detected, not
    #: correctable - the access raises
    #: :class:`~repro.errors.CorruptionDetected`.
    double_bit_flip_prob: float = 0.0

    # -- network (network/ethernet.py) -----------------------------------
    #: Chance a packet is lost in flight (the transfer process fails with
    #: :class:`~repro.errors.FaultInjected`; clients retry with backoff).
    packet_loss_prob: float = 0.0
    #: Chance a packet is delayed past its successors (reordering), and by
    #: how much.
    packet_reorder_prob: float = 0.0
    packet_reorder_delay_ns: float = 3000.0
    #: Chance a packet is duplicated (the copy burns link bandwidth).
    packet_duplicate_prob: float = 0.0

    # -- slab area (core/slab.py) -----------------------------------------
    #: Chance an allocation fails as if the dynamic area were exhausted.
    slab_exhaust_prob: float = 0.0

    # -- cluster nodes (multi/cluster.py) ---------------------------------
    #: Chance a whole node (one ServerStack) is killed, drawn once per
    #: operation arrival at that node.  A killed node NACKs everything with
    #: :class:`~repro.errors.NodeDown` until failover promotes its backup.
    node_kill_prob: float = 0.0
    #: Chance a node stalls (stops serving for ``node_stall_ns``) at an
    #: operation arrival; stalled nodes NACK like killed ones but recover.
    node_stall_prob: float = 0.0
    node_stall_ns: float = 200_000.0

    # -- scheduling --------------------------------------------------------
    #: Simulated-time window outside which timed faults are suppressed.
    window: FaultWindow = FaultWindow()
    #: Extra salt mixed into every fault-site RNG stream, so two plans with
    #: the same probabilities can still produce independent schedules.
    seed_salt: int = 0

    def __post_init__(self) -> None:
        for name in (
            "dma_delay_prob",
            "dma_drop_prob",
            "bit_flip_prob",
            "double_bit_flip_prob",
            "packet_loss_prob",
            "packet_reorder_prob",
            "packet_duplicate_prob",
            "slab_exhaust_prob",
            "node_kill_prob",
            "node_stall_prob",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be a probability in [0, 1]: {value}"
                )
        for name in (
            "dma_delay_ns",
            "dma_retry_timeout_ns",
            "packet_reorder_delay_ns",
            "node_stall_ns",
        ):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # NaN fails too
                raise ConfigurationError(
                    f"{name} must be finite and non-negative: {value}"
                )
        retries = self.dma_max_retries
        if type(retries) is not int or retries < 0:  # rejects bool and float
            raise ConfigurationError(
                f"dma_max_retries must be an int >= 0: {retries!r}"
            )
        if not isinstance(self.window, FaultWindow):
            raise ConfigurationError("window must be a FaultWindow")

    # -- presets -----------------------------------------------------------

    @classmethod
    def chaos(cls, intensity: float = 0.05) -> "FaultPlan":
        """Every fault class active at a common (low) probability."""
        if not 0.0 < intensity <= 1.0:
            raise ConfigurationError(
                f"chaos intensity must be in (0, 1]: {intensity}"
            )
        return cls(
            dma_delay_prob=intensity,
            dma_drop_prob=intensity / 4,
            bit_flip_prob=intensity,
            double_bit_flip_prob=intensity / 50,
            packet_loss_prob=intensity,
            packet_reorder_prob=intensity,
            packet_duplicate_prob=intensity / 2,
            slab_exhaust_prob=intensity / 10,
        )
