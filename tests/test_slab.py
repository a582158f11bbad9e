"""Unit tests for the slab allocator (NIC cache + host daemon)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.slab import SlabAllocator
from repro.core.slab_host import (
    NUM_CLASSES,
    AllocationBitmap,
    HostSlabManager,
    class_for_size,
    class_size,
    radix_sort,
)
from repro.errors import AllocationError, ConfigurationError, SimulationError
from tests.ref_resident import RefHostSlabManager


class TestSizeClasses:
    def test_class_sizes(self):
        assert [class_size(i) for i in range(NUM_CLASSES)] == [
            32, 64, 128, 256, 512,
        ]

    def test_class_for_size(self):
        assert class_for_size(1) == 0
        assert class_for_size(32) == 0
        assert class_for_size(33) == 1
        assert class_for_size(512) == 4

    def test_oversize_rejected(self):
        with pytest.raises(AllocationError):
            class_for_size(513)

    def test_nonpositive_rejected(self):
        with pytest.raises(AllocationError):
            class_for_size(0)


class TestAllocationBitmap:
    def test_mark_and_query(self):
        bitmap = AllocationBitmap(100)
        assert bitmap.is_free(10, 5)
        bitmap.mark_allocated(10, 5)
        assert not bitmap.is_free(10, 5)
        assert not bitmap.is_free(12)
        bitmap.mark_free(10, 5)
        assert bitmap.is_free(10, 5)

    def test_free_units(self):
        bitmap = AllocationBitmap(64)
        bitmap.mark_allocated(0, 16)
        assert bitmap.free_units() == 48

    def test_bounds(self):
        bitmap = AllocationBitmap(10)
        with pytest.raises(IndexError):
            bitmap.mark_allocated(8, 4)


class TestHostSlabManager:
    def test_initial_carving(self):
        host = HostSlabManager(base=0, size=4096)
        assert host.pool_sizes()[NUM_CLASSES - 1] == 8
        assert host.free_bytes() == 4096

    def test_pop_marks_allocated(self):
        host = HostSlabManager(base=0, size=1024)
        entries = host.pop(NUM_CLASSES - 1, 1)
        assert len(entries) == 1
        assert not host.bitmap.is_free(entries[0] // 32, 16)

    def test_split_cascades(self):
        host = HostSlabManager(base=0, size=512)
        entries = host.pop(0, 1)  # needs 512 -> 256 -> ... -> 32 splits
        assert len(entries) == 1
        sizes = host.pool_sizes()
        assert sizes[0] == 1  # the buddy 32 B slab
        assert sizes[1] == 1 and sizes[2] == 1 and sizes[3] == 1

    def test_push_returns_to_pool(self):
        host = HostSlabManager(base=0, size=1024)
        entries = host.pop(4, 2)
        host.push(4, entries)
        assert host.free_bytes() == 1024

    def test_out_of_memory(self):
        host = HostSlabManager(base=0, size=512)
        host.pop(4, 1)
        with pytest.raises(AllocationError):
            host.pop(4, 1)

    def test_region_too_small(self):
        with pytest.raises(ConfigurationError):
            HostSlabManager(base=0, size=256)

    def test_misaligned_base(self):
        with pytest.raises(ConfigurationError):
            HostSlabManager(base=17, size=1024)

    def test_nonzero_base_addresses(self):
        host = HostSlabManager(base=4096, size=1024)
        entries = host.pop(4, 2)
        assert all(addr >= 4096 for addr in entries)


class TestPopArguments:
    @pytest.mark.parametrize("class_index,count", [
        (4, 0), (4, -3), (0, 0), (4, True), (4, 2.0), (4, None),
        (7, 1), (-1, 1), (NUM_CLASSES, 1),
    ])
    def test_a_bad_pop_is_refused_before_any_state_moves(
        self, class_index, count
    ):
        """A count that is not a positive int, or a class that does not
        exist, is an AllocationError - not the whole pool, not all but
        three slabs, not a bare KeyError - and nothing is taken."""
        host = HostSlabManager(base=0, size=1 << 20)
        host.pop(0, 3)
        before = (
            host.pool_sizes(), host.counters.snapshot(),
            host.bitmap.free_units(),
        )
        with pytest.raises(AllocationError):
            host.pop(class_index, count)
        after = (
            host.pool_sizes(), host.counters.snapshot(),
            host.bitmap.free_units(),
        )
        assert after == before


def _outcome(method, *args):
    """A method's answer, or the type and message of what it raised."""
    try:
        return method(*args)
    except (AllocationError, SimulationError) as exc:
        return type(exc).__name__, str(exc)


def _pools(host):
    """Every pool as the list it stands for: pool 4 is the ``_fresh``
    never-taken 512 B slabs from the base up, then its list."""
    pools = {c: list(pool) for c, pool in host.pools.items()}
    pools[NUM_CLASSES - 1][:0] = range(
        host.base, host.base + 512 * host._fresh, 512
    )
    return pools


def _same_state(host, ref):
    assert _pools(host) == ref.pools
    assert host.pool_sizes() == ref.pool_sizes()
    assert host.free_bytes() == ref.free_bytes()
    assert host.bitmap._bits[:] == ref.bitmap._bits[:]
    assert host.counters.snapshot() == ref.counters.snapshot()
    assert _outcome(host.check_invariants) == _outcome(ref.check_invariants)


class TestMatchesTheListPools:
    """The count of never-taken 512 B slabs answers as the pool built in
    full as ``list(range(...))`` did (``RefHostSlabManager``,
    kept verbatim in ``tests/ref_resident.py``): every pop list, push,
    split, merge and out-of-memory error, and the pools, bitmap bits,
    counters and invariant check after them."""

    # A bitmap merge materialises the whole pool, so the radix-only mixes
    # keep part of the fresh range untaken to the end.
    @pytest.mark.parametrize("base,size,steps,seed,methods", [
        (0, 1 << 16, 1500, 1, ("radix", "bitmap")),
        (4096, (1 << 16) + 3 * 512 + 100, 1500, 2, ("radix", "bitmap")),
        (1024, 7 * 512, 800, 3, ("radix", "bitmap")),
        (0, 512, 300, 4, ("radix", "bitmap")),
        (512, 1 << 20, 600, 5, ("radix",)),
        (0, 1 << 16, 1500, 6, ("radix",)),
    ])
    def test_seeded_mix(self, base, size, steps, seed, methods):
        pytest.importorskip("numpy")
        rng = random.Random(seed)
        host = HostSlabManager(base=base, size=size)
        ref = RefHostSlabManager(base=base, size=size)
        _same_state(host, ref)
        live = {c: [] for c in range(NUM_CLASSES)}
        for step in range(steps):
            roll = rng.random()
            class_index = rng.randrange(NUM_CLASSES)
            held = live[class_index]
            if roll < 0.45:
                count = rng.randint(1, 40)
                got = _outcome(host.pop, class_index, count)
                assert got == _outcome(ref.pop, class_index, count)
                if isinstance(got, list):
                    held.extend(got)
            elif roll < 0.8 and held:
                rng.shuffle(held)
                back = held[:rng.randint(1, len(held))]
                del held[:len(back)]
                host.push(class_index, back)
                ref.push(class_index, back)
            elif roll < 0.9:
                assert host.split(class_index) == ref.split(class_index)
            elif roll < 0.95:
                method = rng.choice(methods)
                assert host.merge_free_slabs(method) == (
                    ref.merge_free_slabs(method)
                )
            if step % 100 == 0:
                _same_state(host, ref)
        _same_state(host, ref)

    @given(
        base=st.sampled_from([0, 512, 3 * 1024]),
        size=st.integers(512, 16 * 512 + 511),
        steps=st.lists(
            st.tuples(
                st.sampled_from(["pop", "push", "split"]),
                st.integers(0, NUM_CLASSES - 1),
                st.integers(1, 24),
            ),
            max_size=40,
        ),
        seed=st.integers(0, 2**16),
        methods=st.sampled_from([("radix", "bitmap"), ("bitmap", "radix")]),
    )
    @settings(max_examples=150, deadline=None)
    def test_both_merges_after_any_mix(self, base, size, steps, seed, methods):
        """After any pop / push / split sequence, each merge method in
        turn leaves the reference's pools, bitmap bytes, counters and
        invariant-check outcome."""
        pytest.importorskip("numpy")
        rng = random.Random(seed)
        host = HostSlabManager(base=base, size=size)
        ref = RefHostSlabManager(base=base, size=size)
        live = {c: [] for c in range(NUM_CLASSES)}
        for kind, class_index, count in steps:
            held = live[class_index]
            if kind == "pop":
                got = _outcome(host.pop, class_index, count)
                assert got == _outcome(ref.pop, class_index, count)
                if isinstance(got, list):
                    held.extend(got)
            elif kind == "push" and held:
                rng.shuffle(held)
                back = held[:count]
                del held[:count]
                host.push(class_index, back)
                ref.push(class_index, back)
            elif kind == "split":
                assert host.split(class_index) == ref.split(class_index)
        _same_state(host, ref)
        for method in methods:
            assert host.merge_free_slabs(method) == (
                ref.merge_free_slabs(method)
            )
            _same_state(host, ref)
        assert host._fresh == 0  # the bitmap merge materialised them

    @pytest.mark.parametrize("corrupt", ["allocated", "overlap", "leak"])
    def test_a_corrupt_fresh_range_is_reported_as_before(self, corrupt):
        """The fresh range is checked with one slice, and a clash inside it
        names the same slab with the same message as the per-slab loop."""
        pytest.importorskip("numpy")
        base, size = 2048, 1 << 15
        host = HostSlabManager(base=base, size=size)
        ref = RefHostSlabManager(base=base, size=size)
        for manager in (host, ref):
            manager.pop(4, 3)
            victim = base + 5 * 512
            if corrupt == "allocated":
                manager.bitmap.mark_allocated((victim - base) // 32 + 7, 1)
            elif corrupt == "overlap":
                manager.pools[1].append(victim + 128)
            else:
                (addr,) = manager.pop(4, 1)
                manager.bitmap.mark_free((addr - base) // 32, 16)
        got = _outcome(host.check_invariants)
        assert got == _outcome(ref.check_invariants)
        assert got[0] == "SimulationError"


class TestMerging:
    def _fragment(self, host):
        """Pop everything as 32 B slabs, then free them all."""
        taken = []
        while True:
            try:
                taken.extend(host.pop(0, 16))
            except AllocationError:
                break
        host.push(0, taken)
        return len(taken)

    def test_radix_merge_restores_large_slabs(self):
        host = HostSlabManager(base=0, size=2048)
        count = self._fragment(host)
        assert count == 64
        host.merge_free_slabs(method="radix")
        assert host.pool_sizes()[NUM_CLASSES - 1] == 4
        assert host.free_bytes() == 2048

    def test_bitmap_merge_restores_large_slabs(self):
        host = HostSlabManager(base=0, size=2048)
        self._fragment(host)
        host.merge_free_slabs(method="bitmap")
        assert host.pool_sizes()[NUM_CLASSES - 1] == 4
        assert host.free_bytes() == 2048

    def test_methods_agree(self):
        host_a = HostSlabManager(base=0, size=4096)
        host_b = HostSlabManager(base=0, size=4096)
        for host in (host_a, host_b):
            taken = host.pop(0, 7)
            host.push(0, taken[:5])  # keep 2 allocated: partial merge only
        host_a.merge_free_slabs(method="radix")
        host_b.merge_free_slabs(method="bitmap")
        assert host_a.free_bytes() == host_b.free_bytes()

    def test_merge_respects_allocated_holes(self):
        host = HostSlabManager(base=0, size=512)
        entries = host.pop(0, 4)  # 4 x 32 B
        host.push(0, entries[1:])  # keep entries[0] allocated
        host.merge_free_slabs(method="radix")
        # The hole prevents full recombination back to one 512 B slab.
        assert host.pool_sizes()[NUM_CLASSES - 1] == 0

    def test_allocation_after_merge(self):
        host = HostSlabManager(base=0, size=1024)
        self._fragment(host)
        # pop(4) forces refill -> merge path internally.
        entries = host.pop(4, 1)
        assert len(entries) == 1

    def test_unknown_method(self):
        host = HostSlabManager(base=0, size=512)
        with pytest.raises(ValueError):
            host.merge_free_slabs(method="quantum")


class TestRadixSort:
    def test_sorts(self):
        values = [5, 3, 9, 1, 1, 0, 255, 256]
        assert radix_sort(values) == sorted(values)
        assert values == [5, 3, 9, 1, 1, 0, 255, 256]  # not sorted in place

    def test_empty(self):
        assert radix_sort([]) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            radix_sort([3, -1])

    @given(st.lists(st.integers(0, 2**40), max_size=200))
    @settings(max_examples=50)
    def test_matches_sorted(self, values):
        assert radix_sort(values) == sorted(values)


class TestSlabAllocator:
    def _allocator(self, size=64 * 1024, batch=8, capacity=32):
        host = HostSlabManager(base=0, size=size)
        return SlabAllocator(host, sync_batch=batch, stack_capacity=capacity)

    def test_alloc_free_roundtrip(self):
        alloc = self._allocator()
        addr = alloc.alloc(100)  # -> 128 B class
        assert addr % 32 == 0
        alloc.free(addr, class_for_size(100))
        assert alloc.counters["allocs"] == 1
        assert alloc.counters["frees"] == 1

    def test_distinct_addresses(self):
        alloc = self._allocator()
        addrs = {alloc.alloc(64) for __ in range(100)}
        assert len(addrs) == 100

    def test_reuse_after_free(self):
        alloc = self._allocator()
        addr = alloc.alloc(32)
        alloc.free(addr, 0)
        assert alloc.alloc(32) == addr  # LIFO stack reuses the hot entry

    def test_amortized_dma_below_paper_bound(self):
        """Section 3.3.2: < 0.1 amortized DMA per allocation."""
        alloc = self._allocator(size=1 << 20, batch=32, capacity=256)
        addrs = [alloc.alloc(64) for __ in range(2000)]
        for addr in addrs:
            alloc.free(addr, 1)
        assert alloc.amortized_dma_per_op() < 0.1

    def test_sync_read_on_empty_stack(self):
        alloc = self._allocator(batch=4)
        alloc.alloc(32)
        assert alloc.counters["sync_reads"] == 1
        # Next 3 allocs come from the cached batch.
        for __ in range(3):
            alloc.alloc(32)
        assert alloc.counters["sync_reads"] == 1

    def test_sync_write_on_overfull_stack(self):
        alloc = self._allocator(batch=4, capacity=8)
        addrs = [alloc.alloc(32) for __ in range(16)]
        for addr in addrs:
            alloc.free(addr, 0)
        assert alloc.counters["sync_writes"] >= 1

    def test_exhaustion_raises(self):
        alloc = self._allocator(size=512, batch=2)
        with pytest.raises(AllocationError):
            for __ in range(100):
                alloc.alloc(512)

    def test_invalid_config(self):
        host = HostSlabManager(base=0, size=1024)
        with pytest.raises(ConfigurationError):
            SlabAllocator(host, sync_batch=0)
        with pytest.raises(ConfigurationError):
            SlabAllocator(host, sync_batch=32, stack_capacity=16)

    def test_bad_free_class(self):
        alloc = self._allocator()
        with pytest.raises(AllocationError):
            alloc.free(0, 9)

    @given(st.lists(st.integers(1, 512), min_size=1, max_size=300))
    @settings(max_examples=30)
    def test_no_double_allocation_property(self, sizes):
        """Live allocations never overlap, for any allocation pattern."""
        alloc = self._allocator(size=1 << 20)
        live = {}
        for i, size in enumerate(sizes):
            addr = alloc.alloc(size)
            cls = class_for_size(size)
            span = class_size(cls)
            for other_addr, other_span in live.items():
                assert addr + span <= other_addr or other_addr + other_span <= addr
            live[addr] = span
            if i % 3 == 2:  # free every third allocation
                victim = next(iter(live))
                alloc.free(victim, class_for_size(live.pop(victim)))
