"""Slab allocator invariants under randomized alloc/free storms.

Three families of guarantees:

- **No double allocation**: no address is ever live twice, and no two live
  slabs of any class overlap in the dynamic area.
- **Free validation**: double frees, frees of never-allocated addresses,
  and frees with the wrong size class are rejected with
  :class:`~repro.errors.AllocationError` and do not corrupt the pools.
- **Exact reclamation**: after freeing everything, flushing the NIC
  stacks, and lazily merging, the host pools account for every free unit -
  the same free-slab counts as a virgin region
  (:meth:`~repro.core.slab_host.HostSlabManager.check_invariants` plus
  byte-exact pool comparison).
"""

import random

import pytest

from repro.core.slab import SlabAllocator
from repro.core.slab_host import (
    NUM_CLASSES,
    HostSlabManager,
    class_for_size,
    class_size,
)
from repro.errors import AllocationError


def make_allocator(size=1 << 20, base=0, **kwargs):
    host = HostSlabManager(base=base, size=size)
    return host, SlabAllocator(host, **kwargs)


def baseline_pools(size=1 << 20, base=0):
    """Pool sizes and free bytes of a virgin region."""
    host = HostSlabManager(base=base, size=size)
    return host.pool_sizes(), host.free_bytes()


class TestNoDoubleAllocation:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_live_slabs_never_overlap(self, seed):
        """Random storm: every live address is unique and no two live
        slabs' byte ranges intersect at any point in time."""
        rng = random.Random(seed)
        host, allocator = make_allocator()
        live = {}  # addr -> class
        for step in range(3000):
            if live and rng.random() < 0.45:
                addr = rng.choice(list(live))
                allocator.free(addr, live.pop(addr))
            else:
                class_index = rng.randrange(NUM_CLASSES)
                addr = allocator.alloc_class(class_index)
                assert addr not in live, f"step {step}: double allocation"
                live[addr] = class_index
            assert len(allocator._live) == len(live)
        spans = sorted(
            (addr, addr + class_size(c)) for addr, c in live.items()
        )
        for (a_start, a_end), (b_start, __) in zip(spans, spans[1:]):
            assert a_end <= b_start, "live slabs overlap"

    def test_alloc_respects_class_size(self):
        __, allocator = make_allocator()
        for nbytes, want_class in ((1, 0), (32, 0), (33, 1), (512, 4)):
            addr = allocator.alloc(nbytes)
            assert addr in allocator._live
            allocator.free(addr, want_class)


class TestFreeValidation:
    def test_double_free_rejected(self):
        __, allocator = make_allocator()
        addr = allocator.alloc_class(0)
        allocator.free(addr, 0)
        with pytest.raises(AllocationError):
            allocator.free(addr, 0)
        assert allocator.counters["rejected_frees"] == 1

    def test_foreign_address_rejected(self):
        __, allocator = make_allocator()
        with pytest.raises(AllocationError):
            allocator.free(0x40, 0)

    def test_class_mismatch_rejected_and_slab_stays_live(self):
        __, allocator = make_allocator()
        addr = allocator.alloc_class(2)
        with pytest.raises(AllocationError):
            allocator.free(addr, 1)
        assert addr in allocator._live  # rejection must not consume it
        allocator.free(addr, 2)  # the correct free still works
        assert addr not in allocator._live

    def test_bad_class_index_rejected(self):
        __, allocator = make_allocator()
        addr = allocator.alloc_class(0)
        with pytest.raises(AllocationError):
            allocator.free(addr, NUM_CLASSES)
        assert addr in allocator._live

    def test_rejected_frees_do_not_corrupt_pools(self):
        """After a burst of invalid frees the allocator still round-trips
        to the exact virgin pool state."""
        host, allocator = make_allocator()
        addrs = [allocator.alloc_class(1) for __ in range(20)]
        for addr in addrs[:5]:
            with pytest.raises(AllocationError):
                allocator.free(addr, 3)  # wrong class
        with pytest.raises(AllocationError):
            allocator.free(0x12345 * 32, 1)  # never allocated
        for addr in addrs:
            allocator.free(addr, 1)
        allocator.flush()
        host.merge_free_slabs()
        host.check_invariants()
        want_pools, want_bytes = baseline_pools()
        assert host.pool_sizes() == want_pools
        assert host.free_bytes() == want_bytes


class TestExactReclamation:
    @pytest.mark.parametrize("seed,method", [
        (0, "radix"), (1, "radix"), (2, "bitmap"), (3, "bitmap"),
    ])
    def test_storm_then_full_free_restores_virgin_pools(self, seed, method):
        """Alloc/free storm, free everything, flush, lazily merge: the
        host must report exactly the virgin free-slab counts."""
        rng = random.Random(seed)
        host, allocator = make_allocator()
        live = {}
        for __ in range(4000):
            if live and rng.random() < 0.5:
                addr = rng.choice(list(live))
                allocator.free(addr, live.pop(addr))
            else:
                class_index = rng.randrange(NUM_CLASSES)
                live[allocator.alloc_class(class_index)] = class_index
        for addr, class_index in list(live.items()):
            allocator.free(addr, class_index)
        assert len(allocator._live) == 0
        allocator.flush()
        host.merge_free_slabs(method=method)
        host.check_invariants()
        want_pools, want_bytes = baseline_pools()
        assert host.free_bytes() == want_bytes
        assert host.pool_sizes() == want_pools

    def test_check_invariants_catches_leak(self):
        """The invariant check is not vacuous: hiding a free slab from the
        pools trips the exact-accounting assertion."""
        host, __ = make_allocator()
        # A 512 B slab leaves the pools but stays free in the bitmap.
        (addr,) = host.pop(NUM_CLASSES - 1, 1)
        host.bitmap.mark_free((addr - host.base) // 32, 16)
        from repro.errors import SimulationError
        with pytest.raises(SimulationError, match="pools cover"):
            host.check_invariants()

    def test_check_invariants_catches_double_pooling(self):
        host, __ = make_allocator()
        # The lowest 512 B slab, never taken, pooled a second time.
        host.pools[NUM_CLASSES - 1].append(host.base)
        from repro.errors import SimulationError
        with pytest.raises(SimulationError, match="overlaps"):
            host.check_invariants()

    def test_partial_frees_account_exactly(self):
        """With some slabs still live, pooled + live bytes == region."""
        host, allocator = make_allocator()
        live = {}
        rng = random.Random(7)
        for __ in range(500):
            class_index = rng.randrange(NUM_CLASSES)
            live[allocator.alloc_class(class_index)] = class_index
        for addr in list(live)[::2]:
            allocator.free(addr, live.pop(addr))
        allocator.flush()
        host.check_invariants()
        live_bytes = sum(class_size(c) for c in live.values())
        assert host.free_bytes() + live_bytes == host.size
