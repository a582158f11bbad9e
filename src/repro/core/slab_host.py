"""Host-side slab allocator daemon (sections 3.3.2 and 4, Figure 8).

The host daemon owns the dynamic memory region: per-size free slab pools
(the host halves of the double-ended stacks), a global allocation bitmap at
32 B granularity, slab *splitting* when a small pool runs low, and *lazy
merging* - batch-recombining free slabs into larger ones using either a
bitmap scan or radix sort (Figure 12) - instead of checking neighbors on
every deallocation.

The 512 B slabs nothing has taken yet are a count, not a list, and the
bitmap is one byte per unit in an anonymous mapping, so a region costs
memory for the slabs a run takes, not for those it could take.  The
region-wide scans (the merges, ``check_invariants``, ``radix_sort``) are
plain Python over lists and the mapping's ``find`` / ``count``: no run
path takes them but a lazy merge, and Figure 12 prices their work from
counts, not from this interpreter's clock.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.constants import SLAB_MIN_SIZE, SLAB_SIZES
from repro.dram.host import anonymous_mapping
from repro.errors import AllocationError, ConfigurationError, SimulationError
from repro.sim.stats import Counter

#: Number of slab size classes (32, 64, 128, 256, 512).
NUM_CLASSES = len(SLAB_SIZES)

#: Bits of a key each radix-sort pass deals on (256 buckets).
RADIX_BITS = 8


def class_size(class_index: int) -> int:
    """Slab bytes of a size class."""
    if not 0 <= class_index < NUM_CLASSES:
        raise AllocationError(f"bad slab class: {class_index}")
    return SLAB_SIZES[class_index]


def class_for_size(nbytes: int) -> int:
    """Smallest slab class that fits ``nbytes``."""
    if nbytes <= 0:
        raise AllocationError(f"allocation size must be positive: {nbytes}")
    for index, size in enumerate(SLAB_SIZES):
        if nbytes <= size:
            return index
    raise AllocationError(
        f"allocation of {nbytes} B exceeds max slab size {SLAB_SIZES[-1]} B"
    )


class AllocationBitmap:
    """Free/allocated flags over the dynamic region at 32 B granularity.

    One byte per unit, 1 = allocated (or cached on the NIC, i.e. not
    mergeable), in an anonymous mapping: only the units a run touches take
    memory.
    """

    def __init__(self, units: int) -> None:
        if units <= 0:
            raise ConfigurationError("bitmap must cover at least one unit")
        self.units = units
        self._bits = anonymous_mapping(units, "slab allocation bitmap")

    def mark_allocated(self, unit: int, count: int) -> None:
        self._check(unit, count)
        self._bits[unit : unit + count] = b"\x01" * count

    def mark_free(self, unit: int, count: int) -> None:
        self._check(unit, count)
        self._bits[unit : unit + count] = bytes(count)

    def is_free(self, unit: int, count: int = 1) -> bool:
        self._check(unit, count)
        return self._bits.find(b"\x01", unit, unit + count) < 0

    def _check(self, unit: int, count: int) -> None:
        if unit < 0 or count < 0 or unit + count > self.units:
            raise IndexError(
                f"bitmap range [{unit}, {unit + count}) outside "
                f"[0, {self.units})"
            )

    def free_units(self) -> int:
        bits = self._bits
        step = 1 << 23
        return self.units - sum(
            bits[first : first + step].count(1)
            for first in range(0, self.units, step)
        )


class HostSlabManager:
    """The daemon state: free pools, bitmap, split and merge machinery.

    Addresses are byte offsets into the KV storage; the dynamic region is
    ``[base, base + size)``.  Slab entries handed to the NIC are marked
    allocated in the bitmap (they are no longer mergeable); entries pushed
    back are marked free.
    """

    def __init__(self, base: int, size: int) -> None:
        if base < 0 or size <= 0:
            raise ConfigurationError("invalid dynamic region")
        if base % SLAB_MIN_SIZE:
            raise ConfigurationError(
                f"region base must be {SLAB_MIN_SIZE}-byte aligned"
            )
        self.base = base
        self.size = size - size % SLAB_SIZES[-1]
        if self.size <= 0:
            raise ConfigurationError(
                f"dynamic region smaller than one {SLAB_SIZES[-1]} B slab"
            )
        self.bitmap = AllocationBitmap(self.size // SLAB_MIN_SIZE)
        #: Host halves of the per-class double-ended stacks.  Pool 4 is
        #: ``list(range(base, base + 512 * _fresh, 512)) + pools[4]``: the
        #: ``_fresh`` lowest 512 B slabs were never taken, pops take the top.
        self.pools: Dict[int, List[int]] = {c: [] for c in range(NUM_CLASSES)}
        self._fresh = self.size // SLAB_SIZES[-1]
        self.counters = Counter()

    # -- unit helpers --------------------------------------------------------

    def _unit(self, addr: int) -> int:
        offset = addr - self.base
        if offset < 0 or offset >= self.size or offset % SLAB_MIN_SIZE:
            raise AllocationError(f"address {addr} outside dynamic region")
        return offset // SLAB_MIN_SIZE

    def _units_of(self, class_index: int) -> int:
        return class_size(class_index) // SLAB_MIN_SIZE

    # -- NIC-facing stack ends -------------------------------------------------

    def pop(self, class_index: int, max_entries: int) -> List[int]:
        """Hand up to ``max_entries`` free slabs of a class to the NIC.

        Splits larger slabs (and, failing that, lazily merges smaller ones)
        to refill an empty pool.
        """
        if type(max_entries) is not int or max_entries <= 0 or (
            class_index not in self.pools
        ):
            raise AllocationError(
                f"cannot pop {max_entries!r} slabs of class {class_index!r}"
            )
        pool = self.pools[class_index]
        largest = SLAB_SIZES[-1]
        # Fresh slabs count in pool 4 only, and nothing below takes any.
        fresh = self._fresh if class_index == NUM_CLASSES - 1 else 0
        # The daemon keeps pools stocked by splitting larger slabs; lazy
        # merging is the last resort when nothing can be split.
        while len(pool) + fresh < max_entries and self.split(class_index):
            pass
        if not pool and not fresh:
            self._refill(class_index)
            pool = self.pools[class_index]
        taken = pool[-max_entries:]
        short = max_entries - len(taken)
        del pool[-max_entries:]
        if short and fresh:
            self._fresh = left = (fresh - short if short < fresh else 0)
            top = self.base + fresh * largest
            taken[:0] = range(self.base + left * largest, top, largest)
        units = self._units_of(class_index)
        for addr in taken:
            self.bitmap.mark_allocated(self._unit(addr), units)
        self.counters["pops"] += len(taken)
        return taken

    def push(self, class_index: int, entries: Sequence[int]) -> None:
        """Accept freed slabs back from the NIC."""
        units = self._units_of(class_index)
        pool = self.pools[class_index]
        for addr in entries:
            self.bitmap.mark_free(self._unit(addr), units)
            pool.append(addr)
        self.counters["pushes"] += len(entries)

    # -- splitting ---------------------------------------------------------------

    def split(self, class_index: int) -> bool:
        """Split one slab of ``class_index + 1`` into two of ``class_index``.

        "Slab entries are simply copied from the larger pool to the smaller
        pool, without the need for computation" - the split is a constant
        amount of pointer work.
        """
        if class_index + 1 >= NUM_CLASSES:
            return False
        upper = self.pools[class_index + 1]
        if not upper and class_index + 2 == NUM_CLASSES and self._fresh:
            self._fresh -= 1  # the highest fresh slab
            addr = self.base + self._fresh * SLAB_SIZES[-1]
        elif upper or self.split(class_index + 1):
            addr = upper.pop()
        else:
            return False
        half = class_size(class_index)
        self.pools[class_index].extend((addr, addr + half))
        self.counters["splits"] += 1
        return True

    def _refill(self, class_index: int) -> None:
        if self.split(class_index):
            return
        # "Lazy slab merging ... practically only triggered when the
        # workload shifts from small KV to large KV" - or, as here, when no
        # larger pool can be split.
        self.merge_free_slabs()
        if not (self.pools[class_index] or self.split(class_index)):
            raise AllocationError(
                f"out of memory for slab class {class_index} "
                f"({class_size(class_index)} B)"
            )

    # -- lazy merging -------------------------------------------------------------

    def merge_free_slabs(self, method: str = "radix") -> Dict[str, int]:
        """Batch-merge free slabs into the largest possible classes.

        ``method`` selects the Figure 12 algorithm: ``"radix"`` sorts free
        slab addresses with an LSD radix sort and merges aligned buddy
        pairs; ``"bitmap"`` scans the allocation bitmap for aligned free
        runs.  Both produce identical pools.
        """
        merged = 0
        if method == "bitmap":
            merged = self._merge_via_bitmap()
        elif method == "radix":
            for class_index in range(NUM_CLASSES - 1):
                merged += self._merge_class_radix(class_index)
        else:
            raise ValueError(f"unknown merge method: {method}")
        self.counters["merges"] += merged
        return {"merged": merged}

    def _merge_class_radix(self, class_index: int) -> int:
        pool = self.pools[class_index]
        if len(pool) < 2:
            return 0
        size = class_size(class_index)
        addrs = radix_sort(pool)
        # A slab aligned to 2*size merges with the slab at addr + size;
        # buddy pairs are disjoint by construction, so one pass over the
        # sorted addresses pairs each aligned slab with its successor.
        kept: List[int] = []
        promoted: List[int] = []
        at = 0
        while at < len(addrs):
            addr = addrs[at]
            buddy = at + 1 < len(addrs) and addrs[at + 1] == addr + size
            if buddy and (addr - self.base) % (2 * size) == 0:
                promoted.append(addr)
                at += 2
            else:
                kept.append(addr)
                at += 1
        if promoted:
            self.pools[class_index] = kept
            self.pools[class_index + 1].extend(promoted)
        return len(promoted)

    def _merge_via_bitmap(self) -> int:
        """Rebuild all pools by scanning the allocation bitmap.

        Free units (bit clear) are re-carved greedily into maximal aligned
        slabs, one free run at a time.  This discards the existing pool
        lists entirely, which is why the bitmap approach is expensive: it
        touches the whole region.
        """
        bits = self.bitmap._bits
        new_pools: Dict[int, List[int]] = {c: [] for c in range(NUM_CLASSES)}
        merged = 0
        unit = bits.find(b"\x00")
        while unit >= 0:
            end = bits.find(b"\x01", unit)
            end = self.bitmap.units if end < 0 else end
            while unit < end:
                class_index = NUM_CLASSES - 1
                units = self._units_of(class_index)
                while unit % units or unit + units > end:
                    class_index -= 1
                    units = self._units_of(class_index)
                new_pools[class_index].append(self.base + unit * SLAB_MIN_SIZE)
                merged += class_index > 0
                unit += units
            unit = bits.find(b"\x00", end)
        self.pools = new_pools
        self._fresh = 0
        return merged

    # -- introspection -------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify pools and bitmap agree exactly; raises on any violation.

        Checks that (1) no two pooled free slabs overlap, (2) every pooled
        slab is marked free in the bitmap, aligned to its class, and inside
        the region, and (3) the pools account for *all* free units - so a
        leaked or double-counted slab is caught, not papered over.
        """
        claimed = bytearray(self.bitmap.units)
        for class_index, pool in self.pools.items():
            units = self._units_of(class_index)
            if class_index == NUM_CLASSES - 1:
                # The fresh slabs as one slice, or on a clash slab by slab.
                end = self._fresh * units
                clash = claimed.find(1, 0, end) >= 0
                if clash or not self.bitmap.is_free(0, end):
                    top = self.base + end * SLAB_MIN_SIZE
                    pool = [*range(self.base, top, SLAB_SIZES[-1]), *pool]
                else:
                    claimed[:end] = b"\x01" * end
            for addr in pool:
                unit = self._unit(addr)  # raises if outside the region
                if unit % units:
                    raise SimulationError(
                        f"free slab {addr:#x} misaligned for class "
                        f"{class_index}"
                    )
                if claimed.find(1, unit, unit + units) >= 0:
                    raise SimulationError(
                        f"free slab {addr:#x} overlaps another pooled slab"
                    )
                if not self.bitmap.is_free(unit, units):
                    raise SimulationError(
                        f"pooled slab {addr:#x} is marked allocated in "
                        f"the bitmap"
                    )
                claimed[unit : unit + units] = b"\x01" * units
        pooled = claimed.count(1)
        if pooled != self.bitmap.free_units():
            raise SimulationError(
                f"pools cover {pooled} free units but the bitmap reports "
                f"{self.bitmap.free_units()}"
            )

    def free_bytes(self) -> int:
        return self._fresh * SLAB_SIZES[-1] + sum(
            len(pool) * class_size(c) for c, pool in self.pools.items()
        )

    def pool_sizes(self) -> Dict[int, int]:
        sizes = {c: len(pool) for c, pool in self.pools.items()}
        sizes[NUM_CLASSES - 1] += self._fresh
        return sizes


def radix_sort(values: Sequence[int]) -> List[int]:
    """LSD radix sort of non-negative ints, :data:`RADIX_BITS` per pass.

    The paper cites radix sort [66] as scaling better than a bitmap for
    merging billions of slab slots; this is the real algorithm (each pass
    deals the list stably into one bucket per digit), used by the merger.
    """
    out = list(values)
    if out and min(out) < 0:
        raise ValueError("radix_sort requires non-negative values")
    top = max(out, default=0)
    mask = (1 << RADIX_BITS) - 1
    shift = 0
    while top >> shift:
        buckets: List[List[int]] = [[] for _ in range(mask + 1)]
        for value in out:
            buckets[(value >> shift) & mask].append(value)
        out = [value for bucket in buckets for value in bucket]
        shift += RADIX_BITS
    return out
