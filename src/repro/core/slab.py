"""NIC-side slab allocator: cached free-slab stacks (section 3.3.2).

"The free slab pool can be cached on the NIC.  The cache syncs with the
host memory in batches of slab entries.  Amortized by batching, less than
0.07 DMA operation is needed per allocation or deallocation."

Each size class has a double-ended stack: the NIC end is popped/pushed by
the allocator and deallocator; the other end syncs with the host daemon's
stack over PCIe when watermarks are crossed.  Because each end is touched
by only one side, no locking is needed.

Watermark note: the hardware refills *asynchronously* below a low
watermark so allocation never stalls; this functional model refills
synchronously when the stack empties and drains when it overfills - the
same DMA count per sync, which is what the <0.07-DMA/op bound measures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.constants import (
    SLAB_NIC_STACK_CAPACITY,
    SLAB_SYNC_BATCH,
)
from repro.core.slab_host import (
    NUM_CLASSES,
    HostSlabManager,
    class_for_size,
    class_size,
)
from repro.errors import AllocationError, ConfigurationError, FaultInjected
from repro.sim.stats import Counter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector

#: Wire size of one slab entry: address field + slab type field (section
#: 3.3.2 - including the type in the entry makes splitting a pure copy).
SLAB_ENTRY_BYTES = 5


class SlabAllocator:
    """The NIC half of the slab allocator."""

    def __init__(
        self,
        host: HostSlabManager,
        sync_batch: int = SLAB_SYNC_BATCH,
        stack_capacity: int = SLAB_NIC_STACK_CAPACITY,
        injector: Optional["FaultInjector"] = None,
    ) -> None:
        if sync_batch <= 0:
            raise ConfigurationError("sync batch must be positive")
        if stack_capacity < sync_batch:
            raise ConfigurationError(
                "NIC stack must hold at least one sync batch"
            )
        self.host = host
        self.sync_batch = sync_batch
        self.stack_capacity = stack_capacity
        self._stacks: Dict[int, List[int]] = {
            c: [] for c in range(NUM_CLASSES)
        }
        #: Optional fault injector: simulated slab-area exhaustion.
        self.injector = injector
        #: Outstanding allocations (addr -> class), the ownership ledger
        #: that rejects double frees and class-mismatched frees.
        self._live: Dict[int, int] = {}
        self.counters = Counter()

    # -- allocation -----------------------------------------------------------

    def alloc(self, nbytes: int) -> int:
        """Allocate a slab that fits ``nbytes``; returns its address."""
        class_index = class_for_size(nbytes)
        return self.alloc_class(class_index)

    def alloc_class(self, class_index: int) -> int:
        """Allocate one slab of an explicit size class."""
        if self.injector is not None and self.injector.slab_exhausted(
            detail=f"class {class_index}"
        ):
            self.counters["fault_exhaustions"] += 1
            raise FaultInjected(
                f"injected slab exhaustion for class {class_index} "
                f"({class_size(class_index)} B)"
            )
        stack = self._stacks[class_index]
        if not stack:
            self._sync_from_host(class_index)
            stack = self._stacks[class_index]
        self.counters["allocs"] += 1
        addr = stack.pop()
        self._live[addr] = class_index
        self.counters.record_max("live_peak", len(self._live))
        return addr

    def free(self, addr: int, class_index: int) -> None:
        """Return a slab of ``class_index`` at ``addr`` to the free pool.

        Frees are validated against the ownership ledger: freeing an
        address that is not currently allocated (double free, or an
        address this allocator never handed out) or freeing with the wrong
        size class raises :class:`~repro.errors.AllocationError` instead of
        corrupting the free pools.
        """
        if not 0 <= class_index < NUM_CLASSES:
            raise AllocationError(f"bad slab class: {class_index}")
        owner_class = self._live.pop(addr, None)
        if owner_class is None:
            self.counters["rejected_frees"] += 1
            raise AllocationError(
                f"free of address {addr:#x} that is not allocated "
                f"(double free?)"
            )
        if owner_class != class_index:
            self._live[addr] = owner_class
            self.counters["rejected_frees"] += 1
            raise AllocationError(
                f"free of address {addr:#x} with class {class_index}, "
                f"but it was allocated as class {owner_class}"
            )
        stack = self._stacks[class_index]
        stack.append(addr)
        self.counters["frees"] += 1
        self.counters.record_max("stack_peak", len(stack))
        if len(stack) > self.stack_capacity:
            self._sync_to_host(class_index)

    # -- host synchronization -----------------------------------------------------

    def _sync_from_host(self, class_index: int) -> None:
        """Refill an empty NIC stack with a batch of host entries (one DMA)."""
        entries = self.host.pop(class_index, self.sync_batch)
        if not entries:
            raise AllocationError(
                f"host out of slabs for class {class_index} "
                f"({class_size(class_index)} B)"
            )
        self._stacks[class_index].extend(entries)
        self.counters["sync_reads"] += 1
        self.counters["sync_read_bytes"] += len(entries) * SLAB_ENTRY_BYTES

    def _sync_to_host(self, class_index: int) -> None:
        """Drain the low half of an overfull NIC stack to the host (one DMA)."""
        stack = self._stacks[class_index]
        drain = len(stack) - self.stack_capacity // 2
        # The *bottom* of the stack drains: the NIC end keeps its hot top.
        entries, self._stacks[class_index] = stack[:drain], stack[drain:]
        self.host.push(class_index, entries)
        self.counters["sync_writes"] += 1
        self.counters["sync_write_bytes"] += len(entries) * SLAB_ENTRY_BYTES

    def flush(self) -> int:
        """Drain every cached free entry back to the host.

        Returns the number of entries drained.  Used on teardown and by
        invariant checks: after a flush, the host's pools plus the ledger
        of live allocations account for every byte of the dynamic area.
        """
        drained = 0
        for class_index, stack in self._stacks.items():
            if not stack:
                continue
            self.host.push(class_index, stack)
            drained += len(stack)
            self.counters["sync_writes"] += 1
            self.counters.add(
                "sync_write_bytes", len(stack) * SLAB_ENTRY_BYTES
            )
            self._stacks[class_index] = []
        return drained

    # -- accounting -----------------------------------------------------------------

    @property
    def sync_dmas(self) -> int:
        """Total PCIe round trips spent on slab entry synchronization."""
        return self.counters["sync_reads"] + self.counters["sync_writes"]

    def amortized_dma_per_op(self) -> float:
        """DMA operations per alloc/free - the paper's < 0.07 figure."""
        ops = self.counters["allocs"] + self.counters["frees"]
        return self.sync_dmas / ops if ops else 0.0
