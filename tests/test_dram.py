"""Unit tests for memory images, NIC DRAM, ECC metadata, and the cache."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dram import (
    DramCache,
    ECCLineLayout,
    MemoryImage,
    NICDram,
    hamming_parity_bits,
    spare_bits_per_line,
)
from repro.dram.cache import AccessResult
from repro.dram.ecc import ECCMetadataCodec
from repro.dram.host import touched_lines
from repro.errors import ConfigurationError
from repro.sim import Simulator
from tests.waiting import wait


class TestMemoryImage:
    def test_write_then_read(self):
        mem = MemoryImage(1024)
        mem.write(100, b"hello")
        assert mem.read(100, 5) == b"hello"

    def test_counters(self):
        mem = MemoryImage(1024)
        mem.write(0, b"x" * 64)
        mem.read(0, 64)
        assert mem.counters["reads"] == 1
        assert mem.counters["writes"] == 1
        assert mem.counters["read_bytes"] == 64
        assert mem.accesses == 2

    def test_peek_poke_uncounted(self):
        mem = MemoryImage(128)
        mem.poke(0, b"abc")
        assert mem.peek(0, 3) == b"abc"
        assert mem.accesses == 0

    def test_accesses_field_tracks_the_counters(self):
        """``accesses`` is a field kept next to the read/write counters:
        it must equal their sum after counted and uncounted accesses and
        after a reset."""
        mem = MemoryImage(256)

        def in_step():
            counters = mem.counters
            return mem.accesses == counters["reads"] + counters["writes"]

        mem.write(0, b"x" * 100)
        mem.read(10, 80)
        mem.read(0, 0)
        assert mem.accesses == 3 and in_step()
        mem.poke(128, b"y" * 8)
        assert mem.peek(128, 8) == b"y" * 8
        assert mem.accesses == 3 and in_step()
        mem.reset_counters()
        assert mem.accesses == 0 and in_step()
        mem.write(200, b"z")
        assert mem.accesses == 1 and in_step()

    def test_out_of_bounds(self):
        mem = MemoryImage(64)
        with pytest.raises(IndexError):
            mem.read(60, 8)
        with pytest.raises(IndexError):
            mem.write(-1, b"x")

    def test_trace(self):
        mem = MemoryImage(256)
        mem.start_trace()
        mem.read(0, 64)
        mem.write(64, b"y" * 10)
        trace = mem.stop_trace()
        assert trace == [("read", 0, 64), ("write", 64, 10)]
        assert not mem.tracing

    def test_fill_resets(self):
        mem = MemoryImage(100)
        mem.poke(50, b"zz")
        mem.fill(0)
        assert mem.peek(50, 2) == b"\x00\x00"

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryImage(0)

    def test_line_accounting(self):
        mem = MemoryImage(256)
        mem.read(0, 64)  # one line
        mem.read(32, 64)  # straddles two lines
        assert mem.counters["read_lines"] == 3


class TestTouchedLines:
    def test_aligned(self):
        assert touched_lines(0, 64) == 1
        assert touched_lines(64, 64) == 1
        assert touched_lines(0, 128) == 2

    def test_straddle(self):
        assert touched_lines(32, 64) == 2
        assert touched_lines(63, 2) == 2

    def test_empty(self):
        assert touched_lines(10, 0) == 0

    @given(st.integers(0, 10_000), st.integers(1, 1024))
    def test_bounds(self, addr, size):
        lines = touched_lines(addr, size)
        assert 1 <= lines <= size // 64 + 2


class TestNICDram:
    def test_access_charges_bandwidth_and_latency(self):
        sim = Simulator()
        dram = NICDram(sim, bandwidth=12.8e9, latency_ns=100.0)
        sim.run(wait(sim, dram.access, 64, False))
        assert sim.now == pytest.approx(64 / 12.8 + 100.0)

    def test_counters(self):
        sim = Simulator()
        dram = NICDram(sim)
        sim.run(sim.all_of([
            wait(sim, dram.access, 64, False), wait(sim, dram.access, 64, True)
        ]))
        assert dram.counters["reads"] == 1
        assert dram.counters["writes"] == 1
        assert dram.accesses == 2

    def test_invalid_config(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            NICDram(sim, size=0)
        with pytest.raises(ConfigurationError):
            NICDram(sim, bandwidth=-1)

    def test_nan_config_rejected(self):
        sim = Simulator()
        nan = float("nan")
        for options in ({"latency_ns": nan}, {"bandwidth": nan}, {"size": nan}):
            with pytest.raises(ConfigurationError):
                NICDram(sim, **options)


class TestECC:
    def test_hamming_64_needs_7(self):
        assert hamming_parity_bits(64) == 7

    def test_hamming_small(self):
        assert hamming_parity_bits(1) == 2
        assert hamming_parity_bits(4) == 3
        assert hamming_parity_bits(11) == 4

    def test_paper_layout_spare_bits(self):
        """Section 4: widened parity frees 6 bits - enough for 5 metadata."""
        layout = ECCLineLayout()
        assert layout.total_ecc_bits == 64
        assert layout.correction_bits == 56
        assert layout.parity_bits == 2
        assert layout.spare_bits == 6
        layout.check_metadata_fits(5)

    def test_default_parity_granularity_too_small(self):
        """Without widening parity there are no spare bits."""
        layout = ECCLineLayout(parity_granularity_bits=64)
        assert layout.spare_bits == 0
        with pytest.raises(ConfigurationError):
            layout.check_metadata_fits(5)

    def test_spare_bits_helper(self):
        assert spare_bits_per_line() == 6

    def test_codec_roundtrip(self):
        codec = ECCMetadataCodec(tag_bits=4)
        for tag in range(16):
            for dirty in (False, True):
                word = codec.pack(tag, dirty)
                assert codec.unpack(word) == (tag, dirty)

    def test_codec_rejects_oversize_tag(self):
        codec = ECCMetadataCodec(tag_bits=4)
        with pytest.raises(ValueError):
            codec.pack(16, False)

    def test_codec_rejects_too_many_tag_bits(self):
        with pytest.raises(ConfigurationError):
            ECCMetadataCodec(tag_bits=6)  # 6+1 > 6 spare

    @given(st.integers(0, 15), st.booleans())
    def test_codec_property(self, tag, dirty):
        codec = ECCMetadataCodec(tag_bits=4)
        assert codec.unpack(codec.pack(tag, dirty)) == (tag, dirty)


class RefDramCache(DramCache):
    """The access path as it was: an ``AccessResult`` built per miss and
    every installed metadata word packed (and range-checked) by the
    codec."""

    def access(self, host_line, write, full_line=True):
        if not 0 <= host_line < self.host_lines:
            self._check_line(host_line)
        nic_lines = self.nic_lines
        slot = host_line % nic_lines
        tag = host_line // nic_lines
        if self._valid[slot]:
            word = self._meta[slot]
            old_tag = word >> 1
            if old_tag == tag:
                self.stats.hits += 1
                if write:
                    self._meta[slot] = word | 1
                return AccessResult(hit=True)
            self.stats.misses += 1
            self.stats.evictions += 1
            writeback = None
            if word & 1:
                self.stats.writebacks += 1
                writeback = old_tag * nic_lines + slot
            self._meta[slot] = self.codec.pack(tag, write)
            needs_fill = (not write) or (not full_line)
            return AccessResult(
                hit=False, writeback_line=writeback, needs_fill=needs_fill
            )
        self.stats.misses += 1
        self._valid[slot] = 1
        self._meta[slot] = self.codec.pack(tag, write)
        needs_fill = (not write) or (not full_line)
        return AccessResult(hit=False, needs_fill=needs_fill)


class TestDramCache:
    def _cache(self, nic_lines=16, host_lines=256):
        return DramCache(nic_lines=nic_lines, host_lines=host_lines)

    def test_paper_tag_width(self):
        """64 GiB host over 4 GiB NIC DRAM -> 4 tag bits."""
        cache = self._cache(nic_lines=16, host_lines=256)
        assert cache.tag_bits == 4

    def test_cold_miss_then_hit(self):
        cache = self._cache()
        first = cache.access(5, write=False)
        assert not first.hit and first.needs_fill
        second = cache.access(5, write=False)
        assert second.hit
        assert cache.stats.hit_rate() == 0.5

    def test_conflict_eviction(self):
        cache = self._cache(nic_lines=4, host_lines=16)
        cache.access(1, write=False)
        result = cache.access(5, write=False)  # same slot (1 % 4 == 5 % 4)
        assert not result.hit
        assert cache.stats.evictions == 1
        assert result.writeback_line is None  # clean eviction

    def test_dirty_eviction_reports_writeback(self):
        cache = self._cache(nic_lines=4, host_lines=16)
        cache.access(1, write=True)
        result = cache.access(5, write=False)
        assert result.writeback_line == 1
        assert cache.stats.writebacks == 1

    def test_full_line_write_miss_needs_no_fill(self):
        cache = self._cache()
        result = cache.access(3, write=True, full_line=True)
        assert not result.needs_fill

    def test_partial_write_miss_needs_fill(self):
        cache = self._cache()
        result = cache.access(3, write=True, full_line=False)
        assert result.needs_fill

    def test_write_hit_sets_dirty(self):
        cache = self._cache(nic_lines=4, host_lines=16)
        cache.access(2, write=False)
        cache.access(2, write=True)  # hit, marks dirty
        result = cache.access(6, write=False)  # evicts dirty line 2
        assert result.writeback_line == 2

    def test_lookup_nonmutating(self):
        cache = self._cache()
        assert not cache.lookup(7)
        cache.access(7, write=False)
        assert cache.lookup(7)
        assert cache.stats.accesses == 1  # lookup did not count

    def test_invalidate(self):
        cache = self._cache()
        cache.access(9, write=True)
        assert cache.invalidate(9) == 9  # dirty line reported
        assert not cache.lookup(9)
        assert cache.invalidate(9) is None

    def test_flush_returns_dirty_lines(self):
        cache = self._cache(nic_lines=8, host_lines=64)
        cache.access(1, write=True)
        cache.access(2, write=False)
        cache.access(3, write=True)
        dirty = cache.flush()
        assert sorted(dirty) == [1, 3]
        assert cache.occupancy() == 0.0

    def test_resident_line(self):
        cache = self._cache(nic_lines=4, host_lines=16)
        assert cache.resident_line(1) is None
        cache.access(5, write=False)
        assert cache.resident_line(1) == 5

    def test_bounds(self):
        cache = self._cache(nic_lines=4, host_lines=16)
        with pytest.raises(IndexError):
            cache.access(16, write=False)

    def test_invalid_geometry(self):
        with pytest.raises(ConfigurationError):
            DramCache(nic_lines=0, host_lines=16)
        with pytest.raises(ConfigurationError):
            DramCache(nic_lines=32, host_lines=16)

    @given(st.lists(st.tuples(st.integers(0, 63), st.booleans()), max_size=200))
    def test_stats_invariants(self, accesses):
        cache = DramCache(nic_lines=8, host_lines=64)
        for line, write in accesses:
            cache.access(line, write)
        stats = cache.stats
        assert stats.hits + stats.misses == len(accesses)
        assert stats.writebacks <= stats.evictions <= stats.misses

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=100))
    def test_second_access_hits(self, lines):
        """Accessing the same line twice in a row always hits the 2nd time."""
        cache = DramCache(nic_lines=8, host_lines=64)
        for line in lines:
            cache.access(line, write=False)
            result = cache.access(line, write=False)
            assert result.hit

    @pytest.mark.parametrize("nic_lines,host_lines", [
        (8, 64), (8, 128), (5, 37), (16, 16), (3, 40),
    ])
    def test_results_and_metadata_match_the_codec_reference(
        self, nic_lines, host_lines
    ):
        """The shared miss results and the in-place metadata word give the
        same outcomes, metadata and counters as a result object per miss
        and ``codec.pack`` per installed word, over a seeded mix that
        reaches every tag the geometry allows."""
        rng = random.Random(nic_lines * 1000 + host_lines)
        cache = DramCache(nic_lines, host_lines)
        reference = RefDramCache(nic_lines, host_lines)
        for __ in range(3000):
            line = rng.randrange(host_lines)
            write = rng.random() < 0.5
            full = rng.random() < 0.5
            got = cache.access(line, write, full_line=full)
            want = reference.access(line, write, full_line=full)
            assert (got.hit, got.writeback_line, got.needs_fill) == (
                want.hit, want.writeback_line, want.needs_fill
            )
            assert type(got.needs_fill) is bool
        assert cache._meta == reference._meta
        assert all(type(word) is int for word in cache._meta)
        assert cache._valid == reference._valid
        assert repr(cache.stats) == repr(reference.stats)
