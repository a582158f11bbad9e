"""Unified memory access engine (Figure 7).

"Both the hash index and the slab-allocated memory are managed by a unified
memory access engine, which accesses the host memory via PCIe DMA and caches
a portion of host memory in NIC DRAM" (section 3.3).

The engine is the timing hub of the KV processor: every memory access the
functional hash table / slab allocator makes is replayed here, routed by the
load dispatcher to either the NIC DRAM (cacheable lines) or PCIe DMA
(bypass), charging bandwidth/latency and cache fill/writeback traffic.  An
access ends by queueing the caller's continuation, ``then``: the one way
to wait on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.constants import CACHE_LINE_SIZE
from repro.dram.cache import DramCache, ECCFaultPath
from repro.dram.hamming import DecodeStatus
from repro.dram.nic import NICDram
from repro.errors import CorruptionDetected
from repro.memory.dispatcher import (
    LINE_HASH_MASK,
    LINE_HASH_MULTIPLIER,
    LoadDispatcher,
)
from repro.pcie.dma import MultiLinkDMA
from repro.sim.engine import Simulator
from repro.sim.stats import Counter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.profiler import StageProfiler


class _Access:
    """One timed access: fan out a transfer per line, join when the last
    one lands - queueing ``then``, the caller's next step - and fail fast
    with the first failure."""

    __slots__ = ("engine", "addr", "size", "write", "seq", "then", "waiting")

    def __init__(self, engine: "MemoryAccessEngine", addr: int, size: int,
                 write: bool, seq: int, then) -> None:
        self.engine = engine
        self.addr = addr
        self.size = size
        self.write = write
        self.seq = seq
        self.then = then
        engine.sim.call_soon(self.start)

    def start(self, _entry) -> None:
        engine = self.engine
        addr, size, write, seq = self.addr, self.size, self.write, self.seq
        if size <= 0:
            self.joined(None)
            return
        engine.counters["writes" if write else "reads"] += 1
        line_size = engine.line_size
        end = addr + size
        first = addr // line_size
        last = (end - 1) // line_size
        # The tracer check is hoisted so untraced runs never build the
        # per-line detail strings.
        tracer = engine.tracer
        cache = engine.cache
        # The dispatcher's per-line test, evaluated in place.
        threshold = engine.dispatcher.threshold
        line_landed = self.line_landed
        for line in range(first, last + 1):
            line_addr = line * line_size
            start = addr if line == first else line_addr
            span = (end if line == last else line_addr + line_size) - start
            if cache is not None and (
                (line * LINE_HASH_MULTIPLIER) & LINE_HASH_MASK
            ) < threshold:
                if tracer is not None:
                    tracer.emit(seq, "mem.route", f"line={line} dram")
                _CachedLine(
                    engine, line, write, span == line_size, seq, line_landed
                )
            else:
                engine.counters["pcie_direct"] += 1
                if tracer is not None:
                    tracer.emit(seq, "mem.route", f"line={line} pcie")
                if write:
                    engine.dma.write(span, seq, line_landed)
                else:
                    engine.dma.read(span, seq, line_landed)
        self.waiting = last - first + 1

    def line_landed(self, event) -> None:
        """A line's continuation: the kick, or the line's failed event."""
        if not self.waiting:
            return  # already failed
        error = event.exception
        sim = self.engine.sim
        if error is not None:
            self.waiting = 0
            sim.call_soon(lambda _entry: sim.fail(self.then, error))
        else:
            self.waiting -= 1
            if not self.waiting:
                sim.call_soon(self.joined)

    def joined(self, _entry) -> None:
        self.engine.sim.call_soon(self.then)


class _CachedLine:
    """One cacheable line: a hit is one NIC-DRAM burst; a miss is write-back
    of a dirty victim (NIC-DRAM read, then PCIe write), fill over PCIe and
    install into NIC DRAM.  Each step is the continuation handed to the
    burst or DMA before it; the last one queues ``then`` (the access's
    ``line_landed``), and a failed step - an uncorrectable ECC read, a
    write-back or fill out of retries - hands it a failed event instead."""

    __slots__ = ("engine", "line", "write", "full", "seq", "then", "fill")

    def __init__(self, engine: "MemoryAccessEngine", line: int, write: bool,
                 full: bool, seq: int, then) -> None:
        self.engine = engine
        self.line = line
        self.write = write
        self.full = full
        self.seq = seq
        self.then = then
        engine.sim.call_soon(self.start)

    def start(self, _entry) -> None:
        engine = self.engine
        line, write, seq = self.line, self.write, self.seq
        tracer = engine.tracer
        result = engine.cache.access(line, write, full_line=self.full)
        if result.hit:
            engine.counters["cache_hits"] += 1
            if engine.profiler is not None:
                engine.profiler.record_cache(seq, "hit")
            if tracer is not None:
                tracer.emit(seq, "dram.hit", f"line={line}")
            if not write and engine.ecc is not None:
                # A read serves data out of NIC DRAM: one word of the line
                # passes through the SEC-DED path (an injected double-bit
                # error fails the line with CorruptionDetected).
                try:
                    status = engine.ecc.read_word(engine.sim.now)
                except CorruptionDetected as exc:
                    engine.sim.fail(self.then, exc)
                    return
                if status is DecodeStatus.CORRECTED and tracer is not None:
                    tracer.emit(seq, "dram.ecc_corrected", f"line={line}")
            # The line's last step: one NIC-DRAM burst, then done.
            engine.nic_dram.access(engine.line_size, write, self.landed)
            return
        engine.counters["cache_misses"] += 1
        if engine.profiler is not None:
            engine.profiler.record_cache(seq, "miss")
        if tracer is not None:
            tracer.emit(seq, "dram.miss", f"line={line}")
        self.fill = result.needs_fill
        # Dirty eviction: read old line from NIC DRAM, write back over PCIe.
        if result.writeback_line is not None:
            engine.counters["writebacks"] += 1
            if engine.profiler is not None:
                engine.profiler.record_cache(seq, "writeback")
            if tracer is not None:
                tracer.emit(
                    seq, "dram.writeback", f"line={result.writeback_line}"
                )
            engine.nic_dram.access(engine.line_size, False, self.victim_read)
        else:
            self.fetch()

    def victim_read(self, _entry) -> None:
        engine = self.engine
        engine.dma.write(engine.line_size, self.seq, self.dma_landed)

    def dma_landed(self, event) -> None:
        """The write-back or the fill is over: on to the next step, unless
        the DMA failed (and the line with it)."""
        if event.exception is not None:
            self.engine.sim.fail(self.then, event.exception)
        else:
            self.fetch()

    def fetch(self) -> None:
        engine = self.engine
        if not self.fill:
            # Install the (new or fetched) line in NIC DRAM: the last step.
            engine.nic_dram.access(engine.line_size, True, self.landed)
            return
        self.fill = False
        engine.counters["fills"] += 1
        if engine.profiler is not None:
            engine.profiler.record_cache(self.seq, "fill")
        if engine.tracer is not None:
            engine.tracer.emit(self.seq, "dram.fill", f"line={self.line}")
        engine.dma.read(engine.line_size, self.seq, self.dma_landed)

    def landed(self, _entry) -> None:
        self.engine.sim.call_soon(self.then)


class MemoryAccessEngine:
    """Routes line-granularity memory accesses between DRAM cache and PCIe."""

    def __init__(
        self,
        sim: Simulator,
        dma: MultiLinkDMA,
        nic_dram: NICDram,
        dispatcher: LoadDispatcher,
        cache: Optional[DramCache] = None,
        line_size: int = CACHE_LINE_SIZE,
        ecc: Optional[ECCFaultPath] = None,
        profiler: Optional["StageProfiler"] = None,
    ) -> None:
        self.sim = sim
        self.dma = dma
        self.nic_dram = nic_dram
        self.dispatcher = dispatcher
        self.cache = cache
        self.line_size = line_size
        #: Optional ECC fault path: injected bit flips on cached-line reads
        #: run through the real SEC-DED codec (corrected or detected).
        self.ecc = ecc
        #: The simulator's per-op tracer: routing decisions, hits/fills, ECC.
        self.tracer = sim.tracer
        #: Optional profiler: attributes cache events to op classes.
        self.profiler = profiler
        self.counters = Counter()

    def access(self, addr: int, size: int, write: bool, seq: int,
               then: Callable) -> None:
        """Perform a timed access: ``then(kick)`` is queued when all its
        traffic drains (``then(failed_event)`` on a failed line).  ``seq``
        attributes the access to a client operation for tracing (-1 when
        unattributed)."""
        _Access(self, addr, size, write, seq, then)

    # -- introspection ------------------------------------------------------

    def hit_rate(self) -> float:
        hits = self.counters["cache_hits"]
        total = hits + self.counters["cache_misses"]
        return hits / total if total else 0.0
