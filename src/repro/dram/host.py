"""Byte-addressable memory images with access accounting.

The KV storage lives in host memory; the NIC accesses it via PCIe DMA in
64-byte granularity.  :class:`MemoryImage` is the functional half of that:
real bytes, bounds checking, and counters that let the hash-table figures
(6, 9, 10, 11) report *measured* memory accesses per operation.

The image is resident by the 512 B chunk (``SLAB_SIZES[-1]``), not by the
4 KiB page: a chunk's first write packs it into a private anonymous
mapping, and a chunk table (another mapping, of 4 B places) says where.
Buckets are 64 B-aligned and slabs are aligned to their own size from the
dynamic region's base, so if that is 512-aligned no access crosses chunks.
"""

from __future__ import annotations

from mmap import MAP_ANONYMOUS, MAP_PRIVATE, mmap
from typing import List, Optional, Tuple

from repro.constants import CACHE_LINE_SIZE
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


#: The unit of residency: ``addr >> 9`` is the chunk an address lies in.
CHUNK_SIZE = 512


class MemoryImage:
    """A contiguous byte-addressable memory with access counters.

    Reads and writes are counted both as discrete accesses and as touched
    64-byte lines (the unit one PCIe DMA or one DRAM burst moves).  An
    optional trace records ``(kind, addr, size)`` tuples for the timing
    layer to replay.  :attr:`accesses`, which the per-op cost statistics
    read before and after every operation, is a plain field kept next to
    the counters, so reading it costs no call.

    Chunk ``c`` is unwritten while ``_places[c]`` is 0, and otherwise at byte
    ``_places[c] << 9`` of ``_data`` (slot 0 unused); ``_chunks`` are placed.
    """

    def __init__(self, size: int, name: str = "host") -> None:
        if type(size) is not int or size <= 0:
            raise ConfigurationError(f"{name}: size {size!r} not an int > 0")
        if size > (1 << 41) - CHUNK_SIZE:  # 4 B places: 2**32 - 1 chunks
            raise ConfigurationError(
                f"{name}: cannot reserve {size} B: chunk places cover 2 TiB"
            )
        self.size = size
        self.name = name
        self._map()
        self.counters = Counter()
        #: Counted read + write accesses: ``counters["reads"] +
        #: counters["writes"]``, zeroed with them by :meth:`reset_counters`.
        self.accesses = 0
        self._trace: Optional[List[Tuple[str, int, int]]] = None

    def _map(self) -> None:
        """Fresh mappings, every chunk unwritten: rebound, never closed,
        since a view may still hold the old table."""
        size, name, chunks = self.size, self.name, (self.size + 511) >> 9
        self._data = anonymous_mapping((chunks + 1) << 9, name, size)
        self._table = anonymous_mapping(chunks * 4, name, size)
        self._places = memoryview(self._table).cast("I")
        self._chunks = 0

    def __getstate__(self) -> dict:  # for copy and pickle: not the mappings
        written = self._data[CHUNK_SIZE:(self._chunks + 1) << 9]
        state = {**self.__dict__, "_data": written, "_table": self._table[:]}
        del state["_places"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._map()
        self._chunks, written = state["_chunks"], state["_data"]
        self._data[CHUNK_SIZE:CHUNK_SIZE + len(written)] = written
        self._table[:] = state["_table"]

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
    # A span within one chunk is served in frame, with no call (and literals:
    # a global costs a lookup); one across chunks, a chunk at a time.  The
    # bounds test is in frame too: ``_check`` is called only to raise.

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
        counters["read_lines"] += (  # the 64 B lines the span overlaps
            (end - 1) // CACHE_LINE_SIZE - addr // CACHE_LINE_SIZE + 1
            if size else 0
        )
        if self._trace is not None:
            self._trace.append(("read", addr, size))
        if addr >> 9 != (end - 1) >> 9:
            return self._gather(addr, end)
        place = self._places[addr >> 9]
        at = (place << 9) | (addr & 511)
        return self._data[at:at + size] if place else bytes(size)

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
        if addr >> 9 != (end - 1) >> 9 or not size:  # places no empty chunk
            return self._scatter(addr, data)
        place = self._places[addr >> 9]
        if not place:
            place = self._places[addr >> 9] = self._chunks = self._chunks + 1
        at = (place << 9) | (addr & 511)
        self._data[at:at + size] = data

    def peek(self, addr: int, size: int) -> bytes:
        """Read without counting (debug / test introspection)."""
        end = addr + size
        if addr < 0 or size < 0 or end > self.size:
            self._check(addr, size)
        if addr >> 9 != (end - 1) >> 9:
            return self._gather(addr, end)
        place = self._places[addr >> 9]
        at = (place << 9) | (addr & 511)
        return self._data[at:at + size] if place else bytes(size)

    def poke(self, addr: int, data: bytes) -> None:
        """Write without counting (initialization)."""
        size = len(data)
        end = addr + size
        if addr < 0 or end > self.size:
            self._check(addr, size)
        if addr >> 9 != (end - 1) >> 9 or not size:  # places no empty chunk
            return self._scatter(addr, data)
        place = self._places[addr >> 9]
        if not place:
            place = self._places[addr >> 9] = self._chunks = self._chunks + 1
        at = (place << 9) | (addr & 511)
        self._data[at:at + size] = data

    @staticmethod
    def _parts(addr: int, end: int) -> List[Tuple[int, int]]:
        """``(start, stop)`` of each chunk's part of ``[addr, end)``."""
        cuts = [addr, *range((addr | 511) + 1, end, CHUNK_SIZE), end]
        return [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]

    def _gather(self, addr: int, end: int) -> bytes:
        return b"".join(self.peek(a, b - a) for a, b in self._parts(addr, end))

    def _scatter(self, addr: int, data: bytes) -> None:
        for a, b in self._parts(addr, addr + len(data)):
            self.poke(a, data[a - addr:b - addr])

    # -- accounting ---------------------------------------------------------

    @property
    def lines_touched(self) -> int:
        """Total 64 B lines moved (the DMA-equivalent unit)."""
        return self.counters["read_lines"] + self.counters["write_lines"]

    def reset_counters(self) -> None:
        self.counters.reset()
        self.accesses = 0
