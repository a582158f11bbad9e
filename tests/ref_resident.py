"""The NIC-DRAM cache, the host slab daemon and the host memory image as
they were before their state stopped pre-allocating the modelled size or
became resident by chunk, kept verbatim as ``RefDramCache`` (a ``_valid``
byte and a ``_meta`` word per NIC line), ``RefHostSlabManager`` (pool 4
built in full as ``list(range(...))``) and ``RefMemoryImage`` (one flat
mapping of the modelled size, resident by page): the references the lazily
resident :class:`~repro.dram.cache.DramCache`,
:class:`~repro.core.slab_host.HostSlabManager` and
:class:`~repro.dram.host.MemoryImage` are compared against, answer for
answer (``tests/test_dram.py``, ``tests/test_slab.py``).

The edits since: the reference daemon shares the live
:class:`~repro.core.slab_host.AllocationBitmap`, whose flags are now a
mapping, so its bitmap merge reads them through a zero-copy numpy view;
and since the live daemon's scans dropped numpy, the reference keeps the
numpy ``radix_sort`` as :func:`ref_radix_sort` and imports numpy inside
the functions that use it, so importing this module needs no numpy."""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.constants import CACHE_LINE_SIZE, SLAB_MIN_SIZE, SLAB_SIZES
from repro.core.slab_host import NUM_CLASSES, AllocationBitmap, class_size
from repro.dram.cache import (
    _HIT,
    _MISS_FILL,
    _MISS_NO_FILL,
    AccessResult,
    CacheStats,
)
from repro.dram.ecc import ECCLineLayout, ECCMetadataCodec
from repro.dram.host import anonymous_mapping
from repro.memory.dispatcher import (
    LINE_HASH_MASK,
    LINE_HASH_MULTIPLIER,
    LoadDispatcher,
)
from repro.errors import AllocationError, ConfigurationError, SimulationError
from repro.sim.stats import Counter


def address_hash(line_index: int) -> float:
    """The dispatcher's 32-bit line hash scaled into [0, 1): a line is
    cacheable when this is below the load dispatch ratio."""
    return (
        (line_index * LINE_HASH_MULTIPLIER) & LINE_HASH_MASK
    ) / (LINE_HASH_MASK + 1)


def is_cacheable(dispatcher: LoadDispatcher, addr: int) -> bool:
    """Whether the 64 B line holding ``addr`` is in the cacheable part: the
    test the memory access engine evaluates in place."""
    return address_hash(addr // CACHE_LINE_SIZE) < dispatcher.ratio


def touched_lines(addr: int, size: int, line: int = 64) -> int:
    """Number of 64 B lines the byte range [addr, addr+size) overlaps: the
    count ``MemoryImage.read`` / ``write`` add to ``*_lines`` in place."""
    if size <= 0:
        return 0
    first = addr // line
    last = (addr + size - 1) // line
    return last - first + 1


class RefMetadataCodec(ECCMetadataCodec):
    """The codec's pack / unpack, which ``DramCache.access`` writes out
    inline: the word layout the reference cache stores per line."""

    @property
    def metadata_bits(self) -> int:
        return self.tag_bits + 1

    def pack(self, tag: int, dirty: bool) -> int:
        """Encode (tag, dirty) into the spare-bit word."""
        if tag < 0 or tag >= (1 << self.tag_bits):
            raise ValueError(
                f"tag {tag} does not fit in {self.tag_bits} bits"
            )
        return (tag << 1) | int(dirty)

    def unpack(self, word: int) -> tuple:
        """Decode the spare-bit word back into (tag, dirty)."""
        if word < 0 or word >= (1 << self.metadata_bits):
            raise ValueError(f"metadata word out of range: {word}")
        return word >> 1, bool(word & 1)


class RefDramCache:
    """Direct-mapped cache of host lines in NIC DRAM.

    ``host_lines`` is the total host KV storage in lines; a host line maps to
    NIC line ``host_line % nic_lines`` with tag ``host_line // nic_lines``.
    The tag width is therefore fixed by the host:NIC capacity ratio
    (4 bits for the paper's 64 GiB / 4 GiB) regardless of the load dispatch
    ratio, matching the paper's "additional 4 address bits".
    """

    def __init__(
        self,
        nic_lines: int,
        host_lines: int,
        layout: ECCLineLayout = ECCLineLayout(),
    ) -> None:
        if nic_lines <= 0 or host_lines <= 0:
            raise ConfigurationError("line counts must be positive")
        if host_lines < nic_lines:
            raise ConfigurationError(
                "host storage smaller than NIC DRAM: caching is pointless"
            )
        self.nic_lines = nic_lines
        self.host_lines = host_lines
        ways = math.ceil(host_lines / nic_lines)
        self.tag_bits = max(1, math.ceil(math.log2(ways)))
        #: Validates that tag + dirty fit the spare ECC bits.
        self.codec = RefMetadataCodec(self.tag_bits, layout)
        # The real hardware needs no valid bit (the NIC initializes and
        # exclusively owns the DRAM); we keep one so a cold simulated cache
        # does not alias tag-0 lines.
        self._valid = bytearray(nic_lines)
        self._meta = [0] * nic_lines  # packed (tag, dirty) words
        self.stats = CacheStats()

    # -- mapping ------------------------------------------------------------

    def slot_of(self, host_line: int) -> int:
        self._check_line(host_line)
        return host_line % self.nic_lines

    def tag_of(self, host_line: int) -> int:
        return host_line // self.nic_lines

    def _check_line(self, host_line: int) -> None:
        if not 0 <= host_line < self.host_lines:
            raise IndexError(
                f"host line {host_line} outside [0, {self.host_lines})"
            )

    def resident_line(self, slot: int) -> Optional[int]:
        """Host line currently held in a NIC slot, or None if empty."""
        if not self._valid[slot]:
            return None
        tag, __ = self.codec.unpack(self._meta[slot])
        return tag * self.nic_lines + slot

    # -- operations ----------------------------------------------------------

    def lookup(self, host_line: int) -> bool:
        """Non-mutating hit test."""
        slot = self.slot_of(host_line)
        if not self._valid[slot]:
            return False
        tag, __ = self.codec.unpack(self._meta[slot])
        return tag == self.tag_of(host_line)

    def access(
        self, host_line: int, write: bool, full_line: bool = True
    ) -> AccessResult:
        """Perform one access, updating metadata and stats.

        Write misses allocate; a full-line write needs no fill, a partial
        write fetches the line first.  Returns the traffic the memory engine
        must charge (fill and/or dirty writeback).
        """
        if not 0 <= host_line < self.host_lines:
            self._check_line(host_line)
        # The metadata word is (tag << 1) | dirty, ECCMetadataCodec.pack
        # written out: the bounds check above already keeps the tag below
        # ceil(host_lines / nic_lines) <= 2**tag_bits.
        nic_lines = self.nic_lines
        slot = host_line % nic_lines
        tag = host_line // nic_lines
        stats = self.stats
        if self._valid[slot]:
            word = self._meta[slot]
            old_tag = word >> 1
            if old_tag == tag:
                stats.hits += 1
                if write:
                    self._meta[slot] = word | 1
                return _HIT
            # Conflict miss: evict the resident line.
            stats.misses += 1
            stats.evictions += 1
            self._meta[slot] = (tag << 1) | write
            if word & 1:
                stats.writebacks += 1
                return AccessResult(
                    hit=False,
                    writeback_line=old_tag * nic_lines + slot,
                    needs_fill=(not write) or (not full_line),
                )
        else:
            # Cold miss.
            stats.misses += 1
            self._valid[slot] = 1
            self._meta[slot] = (tag << 1) | write
        return _MISS_NO_FILL if write and full_line else _MISS_FILL

    def invalidate(self, host_line: int) -> Optional[int]:
        """Drop a line; returns the line index if a dirty copy was lost."""
        slot = self.slot_of(host_line)
        if not self._valid[slot]:
            return None
        tag, dirty = self.codec.unpack(self._meta[slot])
        if tag != self.tag_of(host_line):
            return None
        self._valid[slot] = 0
        return host_line if dirty else None

    def flush(self) -> list:
        """Invalidate everything; returns dirty host lines needing writeback."""
        dirty_lines = []
        for slot in range(self.nic_lines):
            if not self._valid[slot]:
                continue
            tag, dirty = self.codec.unpack(self._meta[slot])
            if dirty:
                dirty_lines.append(tag * self.nic_lines + slot)
            self._valid[slot] = 0
        return dirty_lines

    def occupancy(self) -> float:
        """Fraction of NIC slots holding a valid line."""
        return sum(self._valid) / self.nic_lines


class RefHostSlabManager:
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
        #: Host halves of the per-class double-ended stacks.
        self.pools: Dict[int, List[int]] = {c: [] for c in range(NUM_CLASSES)}
        largest = SLAB_SIZES[-1]
        self.pools[NUM_CLASSES - 1] = list(
            range(base, base + self.size, largest)
        )
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
        pool = self.pools[class_index]
        # The daemon keeps pools stocked by splitting larger slabs; lazy
        # merging is the last resort when nothing can be split.
        while len(pool) < max_entries and self.split(class_index):
            pass
        if not pool:
            self._refill(class_index)
            pool = self.pools[class_index]
        taken = pool[-max_entries:]
        del pool[-len(taken) :]
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
        if not upper:
            if not self.split(class_index + 1):
                return False
        addr = self.pools[class_index + 1].pop()
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
        if self.pools[class_index]:
            return
        if self.split(class_index):
            return
        if not self.pools[class_index]:
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
        import numpy as np

        size = class_size(class_index)
        addrs = ref_radix_sort(np.array(pool, dtype=np.int64))
        # A slab aligned to 2*size merges with the slab at addr + size;
        # buddy pairs are disjoint by construction, so detection is a
        # vectorized adjacent-element test.
        aligned = (addrs - self.base) % (2 * size) == 0
        lower = np.zeros(len(addrs), dtype=bool)
        lower[:-1] = aligned[:-1] & (addrs[1:] == addrs[:-1] + size)
        upper = np.roll(lower, 1)
        upper[0] = False
        promoted = addrs[lower]
        if len(promoted):
            self.pools[class_index] = addrs[~(lower | upper)].tolist()
            self.pools[class_index + 1].extend(promoted.tolist())
        return len(promoted)

    def _merge_via_bitmap(self) -> int:
        """Rebuild all pools by scanning the allocation bitmap.

        Free units (bit clear) are re-carved greedily into maximal aligned
        slabs.  This discards the existing pool lists entirely, which is
        why the bitmap approach is expensive: it touches the whole region.
        """
        import numpy as np

        free = ~np.frombuffer(self.bitmap._bits, dtype=bool)
        new_pools: Dict[int, List[int]] = {c: [] for c in range(NUM_CLASSES)}
        unit_bytes = SLAB_MIN_SIZE
        total_units = self.bitmap.units
        merged = 0
        unit = 0
        while unit < total_units:
            if not free[unit]:
                unit += 1
                continue
            placed = False
            for class_index in reversed(range(NUM_CLASSES)):
                units = self._units_of(class_index)
                if (
                    unit % units == 0
                    and unit + units <= total_units
                    and free[unit : unit + units].all()
                ):
                    new_pools[class_index].append(self.base + unit * unit_bytes)
                    if class_index > 0:
                        merged += 1
                    unit += units
                    placed = True
                    break
            if not placed:  # pragma: no cover - class 0 always places
                unit += 1
        self.pools = new_pools
        return merged

    # -- introspection -------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify pools and bitmap agree exactly; raises on any violation.

        Checks that (1) no two pooled free slabs overlap, (2) every pooled
        slab is marked free in the bitmap, aligned to its class, and inside
        the region, and (3) the pools account for *all* free units - so a
        leaked or double-counted slab is caught, not papered over.
        """
        import numpy as np

        claimed = np.zeros(self.bitmap.units, dtype=bool)
        for class_index, pool in self.pools.items():
            units = self._units_of(class_index)
            for addr in pool:
                unit = self._unit(addr)  # raises if outside the region
                if unit % units:
                    raise SimulationError(
                        f"free slab {addr:#x} misaligned for class "
                        f"{class_index}"
                    )
                if claimed[unit : unit + units].any():
                    raise SimulationError(
                        f"free slab {addr:#x} overlaps another pooled slab"
                    )
                if not self.bitmap.is_free(unit, units):
                    raise SimulationError(
                        f"pooled slab {addr:#x} is marked allocated in "
                        f"the bitmap"
                    )
                claimed[unit : unit + units] = True
        pooled = int(claimed.sum())
        if pooled != self.bitmap.free_units():
            raise SimulationError(
                f"pools cover {pooled} free units but the bitmap reports "
                f"{self.bitmap.free_units()}"
            )

    def free_bytes(self) -> int:
        return sum(
            len(pool) * class_size(c) for c, pool in self.pools.items()
        )

    def pool_sizes(self) -> Dict[int, int]:
        return {c: len(pool) for c, pool in self.pools.items()}


def ref_radix_sort(values, radix_bits: int = 8):
    """LSD radix sort of a 1-D array of non-negative int64 values (numpy
    counting passes per digit): the daemon's sort before it took lists."""
    import numpy as np

    if values.ndim != 1:
        raise ValueError("radix_sort expects a 1-D array")
    if len(values) == 0:
        return values.copy()
    if (values < 0).any():
        raise ValueError("radix_sort requires non-negative values")
    out = values.copy()
    max_value = int(out.max())
    shift = 0
    mask = (1 << radix_bits) - 1
    while (max_value >> shift) > 0:
        digits = (out >> shift) & mask
        order = np.argsort(digits, kind="stable")
        out = out[order]
        shift += radix_bits
    return out


class RefMemoryImage:
    """A contiguous byte-addressable memory with access counters.

    Reads and writes are counted both as discrete accesses and as touched
    64-byte lines (the unit one PCIe DMA or one DRAM burst moves).  An
    optional trace records ``(kind, addr, size)`` tuples for the timing
    layer to replay.  :attr:`accesses`, which the per-op cost statistics
    read before and after every operation, is a plain field kept next to
    the counters, so reading it costs no call.
    """

    def __init__(self, size: int, name: str = "host") -> None:
        if type(size) is not int or size <= 0:
            raise ConfigurationError(f"{name}: size {size!r} not an int > 0")
        self.size = size
        self.name = name
        self._data = anonymous_mapping(size, name)
        self.counters = Counter()
        #: Counted read + write accesses: ``counters["reads"] +
        #: counters["writes"]``, zeroed with them by :meth:`reset_counters`.
        self.accesses = 0
        self._trace: Optional[List[Tuple[str, int, int]]] = None

    # -- tracing ------------------------------------------------------------

    def start_trace(self) -> None:
        """Begin recording accesses (clears any previous trace)."""
        self._trace = []

    def stop_trace(self) -> List[Tuple[str, int, int]]:
        """Stop recording and return the trace."""
        trace = self._trace or []
        self._trace = None
        return trace

    @property
    def tracing(self) -> bool:
        return self._trace is not None

    # -- access -------------------------------------------------------------

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.size:
            raise IndexError(
                f"{self.name}: access [{addr}, {addr + size}) outside "
                f"[0, {self.size})"
            )

    def read(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes at ``addr``; counts one read access."""
        end = addr + size
        if addr < 0 or size < 0 or end > self.size:
            self._check(addr, size)
        counters = self.counters
        counters["reads"] += 1
        self.accesses += 1
        counters["read_bytes"] += size
        counters["read_lines"] += (  # touched_lines(addr, size), in place
            (end - 1) // CACHE_LINE_SIZE - addr // CACHE_LINE_SIZE + 1
            if size else 0
        )
        if self._trace is not None:
            self._trace.append(("read", addr, size))
        return self._data[addr:end]

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` at ``addr``; counts one write access."""
        size = len(data)
        end = addr + size
        if addr < 0 or end > self.size:
            self._check(addr, size)
        counters = self.counters
        counters["writes"] += 1
        self.accesses += 1
        counters["write_bytes"] += size
        counters["write_lines"] += (
            (end - 1) // CACHE_LINE_SIZE - addr // CACHE_LINE_SIZE + 1
            if size else 0
        )
        if self._trace is not None:
            self._trace.append(("write", addr, size))
        self._data[addr:end] = data

    def peek(self, addr: int, size: int) -> bytes:
        """Read without counting (debug / test introspection)."""
        self._check(addr, size)
        return self._data[addr : addr + size]

    def poke(self, addr: int, data: bytes) -> None:
        """Write without counting (initialization)."""
        self._check(addr, len(data))
        self._data[addr : addr + len(data)] = data

    def fill(self, value: int = 0) -> None:
        """Reset contents without counting (every page becomes resident)."""
        for i in range(0, self.size, 1 << 20):
            span = min(1 << 20, self.size - i)
            self._data[i : i + span] = bytes([value]) * span

    # -- accounting ---------------------------------------------------------

    @property
    def lines_touched(self) -> int:
        """Total 64 B lines moved (the DMA-equivalent unit)."""
        return self.counters["read_lines"] + self.counters["write_lines"]

    def reset_counters(self) -> None:
        self.counters.reset()
        self.accesses = 0
