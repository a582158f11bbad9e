"""KV-Direct configuration.

Three parameters are workload-tunable per the paper and are "configured at
initialization time": the **hash index ratio** (fraction of KV memory used
for the hash index), the **inline threshold** (largest KV stored in the
index), and the **load dispatch ratio** (fraction of memory cacheable in
NIC DRAM).  Section 5.2.1: "Before each benchmark, we tune hash index
ratio, inline threshold and load dispatch ratio according to the KV size,
access pattern and target memory utilization."
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro import constants
from repro.constants import BUCKET_SIZE
from repro.core.admission import OverloadPolicy
from repro.core.hashindex import max_inline_kv_size
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan


@dataclass(frozen=True)
class KVDirectConfig:
    """What an experiment varies on one KV-Direct NIC + its slice of host
    memory.  The testbed's fixed hardware (the 180 MHz clock, the 2 us
    network RTT, NIC DRAM at 1/16 of host memory, the slab sync batch) is
    in :mod:`repro.constants`.

    Defaults give a laptop-scale 64 MiB KV store with the paper's ratios
    (two PCIe Gen3 x8 links, 40 GbE).
    """

    #: Host memory reserved for KV storage (index + dynamic area), bytes.
    memory_size: int = 64 << 20

    #: Fraction of memory_size used by the hash index.
    hash_index_ratio: float = 0.5

    #: KVs with klen + vlen at or below this are stored inline.
    inline_threshold: int = constants.DEFAULT_INLINE_THRESHOLD

    #: Fraction of memory cacheable in NIC DRAM (load dispatch ratio, l).
    load_dispatch_ratio: float = constants.DEFAULT_LOAD_DISPATCH_RATIO

    #: PCIe Gen3 x8 endpoints on the NIC.
    pcie_links: int = constants.PCIE_LINK_COUNT

    #: Network port bandwidth (bytes/s).
    network_bandwidth: float = constants.NETWORK_BANDWIDTH

    #: Reservation station geometry.
    reservation_slots: int = constants.RESERVATION_STATION_SLOTS
    max_inflight: int = constants.MAX_INFLIGHT_OPS

    #: Out-of-order execution on/off (Figure 13's ablation).
    out_of_order: bool = True

    #: Maintain an ordered index beside the hash table, enabling the
    #: RANGE/SCAN operations (see :mod:`repro.core.ordered`).  Off by
    #: default: the hash-only memory path is byte-identical to the
    #: pre-index-refactor behaviour, and PUT/DELETE pay no ordered
    #: maintenance accesses.
    ordered_index: bool = False

    #: Seed for the latency distributions.
    seed: int = 0

    #: Optional fault-injection plan (see :mod:`repro.faults`).  When set,
    #: the store and processor share one deterministic
    #: :class:`~repro.faults.injector.FaultInjector` seeded from ``seed``,
    #: and every hardware layer consults it at its fault sites.
    fault_plan: Optional[FaultPlan] = None

    #: Optional overload-control policy (see :mod:`repro.core.admission`
    #: and ``docs/ROBUSTNESS.md``).  When set, the processor's ingress
    #: queue in front of the reservation station is bounded and sheds
    #: excess load with :class:`~repro.errors.ServerBusy` NACKs; when
    #: ``None`` it is unbounded (the collapse-prone behaviour).
    overload: Optional[OverloadPolicy] = None

    def __post_init__(self) -> None:
        if self.fault_plan is not None and not isinstance(
            self.fault_plan, FaultPlan
        ):
            raise ConfigurationError(
                f"fault_plan must be a FaultPlan, got "
                f"{type(self.fault_plan).__name__}"
            )
        if self.overload is not None and not isinstance(
            self.overload, OverloadPolicy
        ):
            raise ConfigurationError(
                f"overload must be an OverloadPolicy, got "
                f"{type(self.overload).__name__}"
            )
        # Counts are ints (not bool, not float) in range, and the ratios and
        # the bandwidth are written so that NaN fails each check.
        for name, low, high in (
            ("memory_size", 4 * BUCKET_SIZE, math.inf),
            ("inline_threshold", 0, max_inline_kv_size()),
            ("pcie_links", 1, math.inf),
            ("reservation_slots", 1, math.inf),
            ("max_inflight", 1, math.inf),
        ):
            value = getattr(self, name)
            if type(value) is not int or not low <= value <= high:
                raise ConfigurationError(
                    f"{name} must be an int in [{low}, {high}]: {value!r}"
                )
        if not 0.0 < self.hash_index_ratio < 1.0:
            raise ConfigurationError(
                f"hash index ratio must be in (0, 1): {self.hash_index_ratio}"
            )
        if not 0.0 <= self.load_dispatch_ratio <= 1.0:
            raise ConfigurationError("load dispatch ratio must be in [0, 1]")
        if not 0 < self.network_bandwidth < math.inf:
            raise ConfigurationError("network bandwidth must be finite, > 0")
        index = self.index_bytes
        if index < BUCKET_SIZE:
            raise ConfigurationError("hash index smaller than one bucket")
        if self.memory_size - index < constants.SLAB_MAX_SIZE:
            raise ConfigurationError(
                "dynamic area smaller than one maximal slab"
            )

    # -- derived geometry ------------------------------------------------------

    @property
    def index_bytes(self) -> int:
        """Hash index size, rounded down to whole buckets."""
        return (
            int(self.memory_size * self.hash_index_ratio)
            // BUCKET_SIZE
            * BUCKET_SIZE
        )

    @property
    def num_buckets(self) -> int:
        return self.index_bytes // BUCKET_SIZE

    @property
    def dynamic_bytes(self) -> int:
        return self.memory_size - self.index_bytes

    @property
    def nic_dram_bytes(self) -> int:
        """NIC on-board DRAM, at the testbed's host:NIC ratio."""
        return self.memory_size // constants.HOST_TO_NIC_DRAM_RATIO

    @property
    def cycle_ns(self) -> float:
        return 1e9 / constants.KV_CLOCK_HZ

    # -- convenience -------------------------------------------------------------

    @classmethod
    def paper_scale(cls) -> "KVDirectConfig":
        """The testbed's actual sizes (64 GiB host KVS, so 4 GiB NIC DRAM).

        A functional store this size builds in milliseconds and holds only
        the lines and chunks a run writes, but the OS may refuse the 64 GiB
        reservation (a ConfigurationError that names the size).
        """
        return cls(memory_size=constants.HOST_KVS_SIZE)
