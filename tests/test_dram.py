"""Unit tests for memory images, NIC DRAM, ECC metadata, and the cache."""

import copy
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import store as store_module
from repro.core.operations import KVOperation
from repro.core.store import KVDirectStore
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
from tests import ref_resident
from tests.waiting import all_of, wait


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

    @pytest.mark.parametrize("size", [8e6, float("nan"), True, -64, 0])
    def test_size_must_be_a_positive_int(self, size):
        with pytest.raises(ConfigurationError):
            MemoryImage(size)

    def test_a_refused_reservation_names_the_size(self):
        """More than any address space holds: the OS refuses the mapping,
        and that is a configuration error, not an OSError."""
        with pytest.raises(ConfigurationError, match=str(1 << 62)):
            MemoryImage(1 << 62, name="huge")

    @pytest.mark.parametrize("copier", [
        copy.copy, copy.deepcopy, lambda mem: pickle.loads(pickle.dumps(mem)),
    ])
    def test_a_copy_has_its_own_bytes(self, copier):
        """A mapping cannot be copied or pickled; the image can, with the
        same bytes and counters and a mapping of its own."""
        mem = MemoryImage(4096, name="img")
        mem.write(100, b"abc")
        clone = copier(mem)
        assert (clone.size, clone.name) == (4096, "img")
        assert clone.peek(0, 4096) == mem.peek(0, 4096)
        assert clone.counters.snapshot() == mem.counters.snapshot()
        clone.write(100, b"xyz")
        assert mem.peek(100, 3) == b"abc" and clone.peek(100, 3) == b"xyz"

    #: Not a whole number of 512 B chunks, so the last one is partial.
    _SIZE = 3000
    _ADDR = st.one_of(
        st.integers(-8, _SIZE + 8),
        # Near a chunk boundary, and at the end of the image.
        st.builds(lambda chunk, off: chunk * 512 + off,
                  st.integers(0, _SIZE // 512 + 1), st.integers(-70, 70)),
    )
    _COPIERS = (
        copy.copy, copy.deepcopy, lambda mem: pickle.loads(pickle.dumps(mem)),
    )
    _OP = st.one_of(
        st.tuples(st.sampled_from(["read", "peek"]), _ADDR,
                  st.one_of(st.integers(-2, 140), st.integers(0, 1100))),
        st.tuples(st.sampled_from(["write", "poke"]), _ADDR,
                  st.one_of(st.binary(max_size=140),
                            st.binary(min_size=400, max_size=1100))),
        st.tuples(st.just("fill"), st.sampled_from([0, 0, 7, 255]),
                  st.none()),
        st.tuples(st.just("copy"), st.integers(0, len(_COPIERS) - 1),
                  st.none()),
        st.tuples(st.sampled_from(["start", "stop", "reset"]), st.none(),
                  st.none()),
    )

    @given(st.lists(_OP, max_size=60))
    def test_matches_a_bytearray_model(self, ops):
        """Every read, write, peek, poke and fill answers as a
        ``bytearray`` of the same size does - the same bytes as ``bytes``,
        the same out-of-range errors - and counts and traces as the model
        says, within a chunk and across chunks, and after a copy, a
        deepcopy or a pickle round trip has replaced the image."""
        size = self._SIZE
        mem = MemoryImage(size)
        model = bytearray(size)
        counts = dict.fromkeys(
            ["reads", "read_bytes", "read_lines",
             "writes", "write_bytes", "write_lines"], 0
        )
        trace = None
        for kind, addr, arg in ops:
            if kind in ("start", "stop", "reset"):
                if kind == "start":
                    mem.start_trace()
                    trace = []
                elif kind == "stop":
                    assert mem.stop_trace() == (trace or [])
                    trace = None
                else:
                    mem.reset_counters()
                    counts = dict.fromkeys(counts, 0)
                continue
            if kind == "fill":
                mem.fill(addr)
                model[:] = bytes([addr]) * size
                continue
            if kind == "copy":
                mem = self._COPIERS[addr](mem)
                continue
            length = arg if kind in ("read", "peek") else len(arg)
            if addr < 0 or length < 0 or addr + length > size:
                with pytest.raises(IndexError):
                    getattr(mem, kind)(addr, arg)
                continue
            if kind in ("read", "peek"):
                got = getattr(mem, kind)(addr, arg)
                assert type(got) is bytes
                assert got == model[addr:addr + arg]
            else:
                assert getattr(mem, kind)(addr, arg) is None
                model[addr:addr + length] = arg
            if kind in ("read", "write"):
                counts[kind + "s"] += 1
                counts[kind + "_bytes"] += length
                counts[kind + "_lines"] += touched_lines(addr, length)
                if trace is not None:
                    trace.append((kind, addr, length))
        assert mem.peek(0, size) == bytes(model)
        assert {k: mem.counters[k] for k in counts} == counts
        assert mem.accesses == counts["reads"] + counts["writes"]
        assert mem.lines_touched == (
            counts["read_lines"] + counts["write_lines"]
        )
        assert mem.tracing == (trace is not None)

    def test_line_accounting(self):
        mem = MemoryImage(256)
        mem.read(0, 64)  # one line
        mem.read(32, 64)  # straddles two lines
        assert mem.counters["read_lines"] == 3

    def test_zero_length_accesses_place_no_chunk(self):
        """An empty write places no chunk, even inside one, and an empty
        access at the very end reads past no table."""
        for size in (1024, 1000):
            mem = MemoryImage(size)
            for addr in (0, 100, 512, size):
                mem.write(addr, b"")
                mem.poke(addr, b"")
                assert mem.read(addr, 0) == mem.peek(addr, 0) == b""
            assert mem._chunks == 0

    def test_written_chunks_are_packed_in_first_write_order(self):
        mem = MemoryImage(4096)
        mem.write(3000, b"a")
        mem.write(100, b"b" * 8)
        mem.write(3001, b"c")
        mem.poke(1000, b"d" * 30)  # crosses into chunk 2
        assert list(mem._places) == [2, 3, 4, 0, 0, 1, 0, 0]
        assert mem.peek(2999, 4) == b"\0ac\0"

    def test_more_than_4_byte_places_cover_is_refused(self):
        with pytest.raises(ConfigurationError, match=str((1 << 41) + 1)):
            MemoryImage((1 << 41) + 1, name="huge")


class _Recording:
    """Mixin logging every byte string an image's counted reads return."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.answers = []

    def read(self, addr, size):
        got = super().read(addr, size)
        self.answers.append(got)
        return got


class _RecordingImage(_Recording, MemoryImage):
    pass


class _RecordingRefImage(_Recording, ref_resident.RefMemoryImage):
    pass


class TestChunkedImageAgainstTheFlatOne:
    """A store on the chunk-resident image makes the same accesses, reads
    the same bytes and leaves the same image as on the flat one it
    replaced (``RefMemoryImage``)."""

    @staticmethod
    def run_store(monkeypatch, image_cls, memory_size, ratio):
        monkeypatch.setattr(store_module, "MemoryImage", image_cls)
        store = KVDirectStore.create(
            memory_size=memory_size, hash_index_ratio=ratio,
            ordered_index=True,
        )
        memory = store.memory
        memory.start_trace()
        rng = random.Random(11)
        keys = [i.to_bytes(8, "big") for i in range(0, 1200, 3)]
        results = []
        for seq in range(3000):
            key = rng.choice(keys)
            roll = rng.random()
            if roll < 0.35:
                op = KVOperation.put(key, bytes([seq % 251]) * 5, seq=seq)
            elif roll < 0.6:
                op = KVOperation.put(key, bytes([seq % 241]) * 246, seq=seq)
            elif roll < 0.75:
                op = KVOperation.delete(key, seq=seq)
            elif roll < 0.95:
                op = KVOperation.get(key, seq=seq)
            else:
                op = KVOperation.range(key, 6, seq=seq)
            results.append(store.execute(op))
        results.append(sorted(store.items()))
        return (
            results, memory.answers, memory.stop_trace(),
            memory.counters.snapshot(), memory.peek(0, memory_size),
        )

    @pytest.mark.parametrize("ratio", [0.5, 0.3])
    def test_a_store_workload_is_byte_identical(self, monkeypatch, ratio):
        """At ratio 0.5 the index ends on a chunk boundary and no access
        crosses one; at 0.3 it ends 64-aligned only, so 256 B and 512 B
        slabs straddle chunks and take the loop."""
        size = 1 << 20
        index_bytes = int(size * ratio) // 64 * 64
        assert (index_bytes % 512 == 0) == (ratio == 0.5)
        got = self.run_store(monkeypatch, _RecordingImage, size, ratio)
        want = self.run_store(monkeypatch, _RecordingRefImage, size, ratio)
        for part, mine, theirs in zip(
            ("results", "answers", "trace", "counters", "image"), got, want
        ):
            assert mine == theirs, part
        assert len(got[1]) > 6_000
        assert sum(result.ok for result in got[0][:-1]) > 2000


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
        sim.run(all_of(sim, [
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


class RefDramCache(ref_resident.RefDramCache):
    """The access path as it was: an ``AccessResult`` built per miss, every
    installed metadata word packed (and range-checked) by the codec, and a
    valid byte plus a metadata word per NIC line."""

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
        (1, 1 << 20), (7, 3 << 17),
    ])
    def test_results_and_metadata_match_the_codec_reference(
        self, nic_lines, host_lines
    ):
        """The shared miss results and the one lazily resident word per
        slot give the same answers - every access, lookup, invalidate and
        flush, each slot's resident line, occupancy and counters - as a
        result object per miss, ``codec.pack`` per installed word and a
        valid byte per slot, over a seeded mix that reaches every tag the
        geometry allows (20 tag bits on the widest)."""
        # Tags wider than the paper's 6 spare bits allow need a wider ECC.
        wide = host_lines > 32 * nic_lines
        layout = ECCLineLayout(ecc_bits_per_word=16 if wide else 8)
        rng = random.Random(nic_lines * 1000 + host_lines)
        cache = DramCache(nic_lines, host_lines, layout)
        reference = RefDramCache(nic_lines, host_lines, layout)

        def same_state():
            for slot in range(nic_lines):
                assert cache.resident_line(slot) == reference.resident_line(
                    slot
                )
            assert cache.occupancy() == reference.occupancy()
            assert type(cache.occupancy()) is float
            assert repr(cache.stats) == repr(reference.stats)

        for step in range(3000):
            line = rng.randrange(host_lines)
            kind = rng.random()
            if kind < 0.8:
                write = rng.random() < 0.5
                full = rng.random() < 0.5
                got = cache.access(line, write, full_line=full)
                want = reference.access(line, write, full_line=full)
                assert (got.hit, got.writeback_line, got.needs_fill) == (
                    want.hit, want.writeback_line, want.needs_fill
                )
                assert type(got.needs_fill) is bool
            elif kind < 0.9:
                assert cache.lookup(line) == reference.lookup(line)
            elif kind < 0.995:
                assert cache.invalidate(line) == reference.invalidate(line)
            else:
                same_state()
                got = cache.flush()
                assert got == reference.flush()
                assert all(type(line) is int for line in got)
            if step % 500 == 0:
                same_state()
        same_state()
        assert cache.flush() == reference.flush()
        same_state()
