"""Byte-addressable memory images with access accounting.

The KV storage lives in host memory; the NIC accesses it via PCIe DMA in
64-byte granularity.  :class:`MemoryImage` is the functional half of that:
real bytes, bounds checking, and counters that let the hash-table figures
(6, 9, 10, 11) report *measured* memory accesses per operation.

The bytes live in a private anonymous mapping, so a page becomes resident
only when first written: a run's footprint follows what it stores.
"""

from __future__ import annotations

from mmap import MAP_ANONYMOUS, MAP_PRIVATE, mmap
from typing import List, Optional, Tuple

from repro.constants import CACHE_LINE_SIZE
from repro.errors import ConfigurationError
from repro.sim.stats import Counter


def anonymous_mapping(size: int, name: str) -> mmap:
    """``size`` zero bytes, resident once written; private, so a fork shares
    them copy-on-write as it would a ``bytearray``."""
    try:
        return mmap(-1, size, flags=MAP_PRIVATE | MAP_ANONYMOUS)
    except (OSError, OverflowError) as exc:
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

    def __getstate__(self) -> dict:  # for copy and pickle: not the mapping
        return {**self.__dict__, "_data": self._data[:]}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._data = anonymous_mapping(self.size, self.name)
        self._data[:] = state["_data"]

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


def touched_lines(addr: int, size: int, line: int = CACHE_LINE_SIZE) -> int:
    """Number of 64 B lines the byte range [addr, addr+size) overlaps."""
    if size <= 0:
        return 0
    first = addr // line
    last = (addr + size - 1) // line
    return last - first + 1
