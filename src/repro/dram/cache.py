"""Direct-mapped DRAM cache metadata (section 3.3.4 + section 4).

The NIC's 4 GiB DRAM caches the *cacheable* portion of the 64 GiB host KV
storage in 64-byte lines.  With a 16:1 host:NIC ratio a direct-mapped cache
needs 4 tag bits plus a dirty flag per line - exactly the 5 metadata bits
the paper squeezes into spare ECC bits (:mod:`repro.dram.ecc`).

This class models the cache *metadata* (tags, dirty bits, hit/miss/eviction
accounting).  Functional data stays in the host :class:`~repro.dram.host.
MemoryImage`; the memory access engine charges timing for the traffic this
class reports (fills, writebacks).  The metadata is one 64-bit word per NIC
line in an anonymous mapping, so only the slots a run fills take memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.dram.ecc import ECCLineLayout, ECCMetadataCodec
from repro.dram.hamming import DecodeStatus, HammingSECDED
from repro.dram.host import anonymous_mapping
from repro.errors import ConfigurationError, CorruptionDetected
from repro.sim.stats import Counter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache access at line granularity."""

    hit: bool
    #: Host line index that must be written back (dirty eviction), if any.
    writeback_line: Optional[int] = None
    #: Whether a fill from host memory is required (read miss, partial write).
    needs_fill: bool = False


#: Every hit's result, and every miss's without a dirty victim: frozen, so
#: one object serves them all.
_HIT = AccessResult(hit=True)
_MISS_FILL = AccessResult(hit=False, needs_fill=True)
_MISS_NO_FILL = AccessResult(hit=False)


class CacheStats:
    """Hit/miss/eviction counters with derived rates."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class DramCache:
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
        self.codec = ECCMetadataCodec(self.tag_bits, layout)
        self._clear()
        self.stats = CacheStats()

    def _clear(self) -> None:
        """Empty every slot: a fresh mapping, resident once written."""
        # Per slot, the codec's word over a valid bit the hardware does
        # without (the NIC owns its DRAM from reset): 0 is an empty slot, so
        # a cold simulated cache does not alias tag-0 lines.
        self._tags = anonymous_mapping(self.nic_lines * 8, "NIC DRAM cache tags")
        self._words = memoryview(self._tags).cast("Q")

    def _check_line(self, host_line: int) -> None:
        if not 0 <= host_line < self.host_lines:
            raise IndexError(
                f"host line {host_line} outside [0, {self.host_lines})"
            )

    # -- operations ----------------------------------------------------------

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
        # The slot word is (tag << 2) | (dirty << 1) | valid,
        # ECCMetadataCodec.pack written out: the bounds check above already
        # keeps the tag below ceil(host_lines / nic_lines) <= 2**tag_bits.
        nic_lines = self.nic_lines
        slot = host_line % nic_lines
        tag = host_line // nic_lines
        stats = self.stats
        words = self._words
        word = words[slot]
        if word:
            old_tag = word >> 2
            if old_tag == tag:
                stats.hits += 1
                if write:
                    words[slot] = word | 2
                return _HIT
            # Conflict miss: evict the resident line.
            stats.misses += 1
            stats.evictions += 1
            words[slot] = (tag << 2) | (write << 1) | 1
            if word & 2:
                stats.writebacks += 1
                return AccessResult(
                    hit=False,
                    writeback_line=old_tag * nic_lines + slot,
                    needs_fill=(not write) or (not full_line),
                )
        else:
            # Cold miss.
            stats.misses += 1
            words[slot] = (tag << 2) | (write << 1) | 1
        return _MISS_NO_FILL if write and full_line else _MISS_FILL


class ECCFaultPath:
    """Routes injected NIC-DRAM bit flips through the real SEC-DED codec.

    When the active :class:`~repro.faults.plan.FaultPlan` fires a bit-flip
    fault on a cached-line read, this path *actually runs the Hamming
    machinery* on a word of the line: it encodes a word, flips one or two
    bits at injector-chosen positions, and decodes.  A single flip must
    come back :attr:`~repro.dram.hamming.DecodeStatus.CORRECTED` with the
    original data (served transparently, counted); a double flip comes back
    :attr:`~repro.dram.hamming.DecodeStatus.DOUBLE_ERROR` and the read
    raises :class:`~repro.errors.CorruptionDetected` rather than serving
    garbage - the paper's ECC story, demonstrated instead of asserted.
    """

    #: Fault sites consulted on every protected read.
    SITE_DOUBLE = "dram.ecc.double"
    SITE_SINGLE = "dram.ecc.single"
    SITE_POSITIONS = "dram.ecc.positions"

    def __init__(
        self,
        injector: "FaultInjector",
        codec: Optional[HammingSECDED] = None,
    ) -> None:
        self.injector = injector
        self.codec = codec or HammingSECDED(64)
        self.counters = Counter()

    def read_word(self, now: Optional[float] = None) -> DecodeStatus:
        """Run one ECC word read under the fault plan.

        Returns the decode status; raises
        :class:`~repro.errors.CorruptionDetected` on an uncorrectable
        double-bit error.
        """
        injector = self.injector
        plan = injector.plan
        double = injector.fire(
            self.SITE_DOUBLE, "double_bit_flip", plan.double_bit_flip_prob,
            now,
        )
        single = not double and injector.fire(
            self.SITE_SINGLE, "bit_flip", plan.bit_flip_prob, now
        )
        if not double and not single:
            return DecodeStatus.CLEAN
        rng = injector.rng(self.SITE_POSITIONS)
        codec = self.codec
        word = rng.getrandbits(codec.data_bits)
        positions = rng.sample(
            range(1, codec.total_bits + 1), 2 if double else 1
        )
        result = codec.decode(codec.corrupt(codec.encode(word), positions))
        if result.status is DecodeStatus.CORRECTED:
            if result.data != word:  # pragma: no cover - codec invariant
                raise CorruptionDetected(
                    "SEC-DED correction returned the wrong data"
                )
            self.counters["corrected_bits"] += 1
            return result.status
        self.counters["detected_double_errors"] += 1
        raise CorruptionDetected(
            f"uncorrectable double-bit error in NIC DRAM "
            f"(positions {sorted(positions)})"
        )
