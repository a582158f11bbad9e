"""Byte-addressable memory images with access accounting.

The KV storage lives in host memory; the NIC accesses it via PCIe DMA in
64-byte granularity.  :class:`MemoryImage` is the functional half of that:
real bytes, bounds checking, and counters that let the hash-table figures
(6, 9, 10, 11) report *measured* memory accesses per operation.

The image is resident by the 512 B chunk (``SLAB_SIZES[-1]``) or, for a
chunk whose first write lies in one 64 B line, by the line: the first
write packs the chunk, or the line, into a private anonymous mapping, and
a chunk table (another mapping, of 4 B places) says where.  So a bucket
costs its 64 B line, and a 512 B leaf or a 256 B record its chunk whole.
Buckets are 64 B-aligned and slabs are aligned to their own size from the
dynamic region's base, so if that is 512-aligned no access crosses chunks.
"""

from __future__ import annotations

from mmap import MAP_ANONYMOUS, MAP_PRIVATE, mmap
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.stats import Counter


def anonymous_mapping(size: int, name: str, asked: int = 0) -> mmap:
    """``size`` zero bytes, resident once written; private, so a fork shares
    them copy-on-write as it would a ``bytearray``.  A refusal is a
    :class:`ConfigurationError` that names ``asked or size``."""
    try:
        return mmap(-1, size, flags=MAP_PRIVATE | MAP_ANONYMOUS)
    except (OSError, OverflowError) as exc:
        size = asked or size
        raise ConfigurationError(
            f"{name}: cannot reserve {size} B ({size / 2**30:.2f} GiB): {exc}"
        ) from None


class MemoryImage:
    """A contiguous byte-addressable memory with access counters.

    Reads and writes are counted both as discrete accesses and as touched
    64-byte lines (the unit one PCIe DMA or one DRAM burst moves).  An
    optional trace records ``(kind, addr, size)`` tuples for the timing
    layer to replay.  :attr:`accesses`, which the per-op cost statistics
    read before and after every operation, is a plain field kept next to
    the counters, so reading it costs no call.

    Chunk ``c`` is unwritten while ``_places[c]`` is 0.  An even place ``p``
    holds it whole, its byte ``i`` at ``(p << 5) + i`` of ``_data``; an odd
    one line by line, line ``k`` at the even place ``_lines[p + k]`` (0 =
    unwritten).  ``_data``'s 64 B slots 8 to ``_slots`` are placed, and
    ``_groups`` groups of eight line places.
    """

    def __init__(self, size: int, name: str = "host") -> None:
        if type(size) is not int or size <= 0:
            raise ConfigurationError(f"{name}: size {size!r} not an int > 0")
        if size > (1 << 37) - 512:  # even 4 B places: 2**31 slots of 64 B
            raise ConfigurationError(
                f"{name}: cannot reserve {size} B: chunk places cover 128 GiB"
            )
        self.size = size
        self.name = name
        lines = (size + 511) >> 9 << 3
        self._data = anonymous_mapping((lines + 8) << 6, name, size)
        self._table = anonymous_mapping(lines >> 1, name, size)
        self._places = memoryview(self._table).cast("I")
        self._group_table = anonymous_mapping((lines + 1) * 4, name, size)
        self._lines = memoryview(self._group_table).cast("I")
        self._slots, self._groups = 7, 0
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

    # -- access -------------------------------------------------------------
    # A span in one whole chunk, or in one line of a line-held chunk, is
    # served (and placed, at its first write) in frame, with no call and no
    # global; any other a chunk, then a line, at a time.  ``_check`` raises.

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
        lines = ((end - 1) >> 6) - (addr >> 6) + 1 if size else 0
        counters = self.counters
        counters["reads"] += 1
        self.accesses += 1
        counters["read_bytes"] += size
        counters["read_lines"] += lines  # the 64 B lines the span overlaps
        if self._trace is not None:
            self._trace.append(("read", addr, size))
        if lines != 1 and (end - 1) ^ addr > 511:  # across chunks
            return self._gather(addr, end)
        place = self._places[addr >> 9]
        if place & 1:  # held line by line
            if lines > 1:
                return self._gather(addr, end, 64)
            place = self._lines[place + ((addr >> 6) & 7)]
        at = (place << 5) + (addr & 511)
        return self._data[at:at + size] if place else bytes(size)

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` at ``addr``; counts one write access."""
        size = len(data)
        end = addr + size
        if addr < 0 or end > self.size:
            self._check(addr, size)
        lines = ((end - 1) >> 6) - (addr >> 6) + 1 if size else 0
        counters = self.counters
        counters["writes"] += 1
        self.accesses += 1
        counters["write_bytes"] += size
        counters["write_lines"] += lines
        if self._trace is not None:
            self._trace.append(("write", addr, size))
        if lines != 1 and ((end - 1) ^ addr > 511 or not size):
            return self._scatter(addr, data)  # placing no empty chunk
        place = self._places[addr >> 9]
        if not place and lines > 1:  # first written across lines: whole
            self._slots += 8
            place = self._places[addr >> 9] = (self._slots - 7) << 1
        elif not place:  # first written inside one line: line by line
            place = self._places[addr >> 9] = (self._groups << 3) | 1
            self._groups += 1
        if place & 1:
            if lines > 1:
                return self._scatter(addr, data, 64)
            line = place + ((addr >> 6) & 7)
            place = self._lines[line]
            if not place:  # its first write: the slot less the line's offset
                self._slots += 1
                place = self._lines[line] = (self._slots - (line - 1 & 7)) << 1
        at = (place << 5) + (addr & 511)
        self._data[at:at + size] = data

    def peek(self, addr: int, size: int) -> bytes:
        """Read without counting (debug / test introspection)."""
        end = addr + size
        if addr < 0 or size < 0 or end > self.size:
            self._check(addr, size)
        span = (end - 1) ^ addr  # above 511 across chunks, 63 across lines
        if span > 511:
            return self._gather(addr, end)
        place = self._places[addr >> 9]
        if place & 1:
            if span > 63:
                return self._gather(addr, end, 64)
            place = self._lines[place + ((addr >> 6) & 7)]
        at = (place << 5) + (addr & 511)
        return self._data[at:at + size] if place else bytes(size)

    def poke(self, addr: int, data: bytes) -> None:
        """Write without counting (initialization)."""
        size = len(data)
        end = addr + size
        if addr < 0 or end > self.size:
            self._check(addr, size)
        span = (end - 1) ^ addr
        if span > 511 or not size:
            return self._scatter(addr, data)
        place = self._places[addr >> 9]
        if not place and span > 63:
            self._slots += 8
            place = self._places[addr >> 9] = (self._slots - 7) << 1
        elif not place:
            place = self._places[addr >> 9] = (self._groups << 3) | 1
            self._groups += 1
        if place & 1:
            if span > 63:
                return self._scatter(addr, data, 64)
            line = place + ((addr >> 6) & 7)
            place = self._lines[line]
            if not place:
                self._slots += 1
                place = self._lines[line] = (self._slots - (line - 1 & 7)) << 1
        at = (place << 5) + (addr & 511)
        self._data[at:at + size] = data

    @staticmethod
    def _parts(addr: int, end: int, step: int) -> List[Tuple[int, int]]:
        """``(start, stop)`` of each chunk's or line's part of a span."""
        cuts = [addr, *range(addr - addr % step + step, end, step), end]
        return [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]

    def _gather(self, addr: int, end: int, step: int = 512) -> bytes:
        return b"".join(
            self.peek(a, b - a) for a, b in self._parts(addr, end, step)
        )

    def _scatter(self, addr: int, data: bytes, step: int = 512) -> None:
        for a, b in self._parts(addr, addr + len(data), step):
            self.poke(a, data[a - addr:b - addr])

    # -- accounting ---------------------------------------------------------

    @property
    def lines_touched(self) -> int:
        """Total 64 B lines moved (the DMA-equivalent unit)."""
        return self.counters["read_lines"] + self.counters["write_lines"]

    def reset_counters(self) -> None:
        self.counters.reset()
        self.accesses = 0
