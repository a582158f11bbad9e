"""Figure 12: execution time of merging free slab slots - allocation
bitmap vs radix sort, and scaling across cores.

Paper: merging 4 billion slab slots in a 16 GiB vector takes 30 s on one
core with a bitmap, or 1.8 s on 32 cores with radix sort [66]; the bitmap
does not parallelize (it is a full-region scan), radix sort does.

The *real* merges run on a scaled-down region, for correctness only: each
must recombine the fragmented region whole.  The figure prices counted
work on the paper's host instead of timing this interpreter
(docs/MODELING.md, "Slab merging"):

- the bitmap scan visits every 32 B unit once, serially, each visit a byte
  load plus a data-dependent branch, ``CYCLES_PER_UNIT`` cycles of a
  ``CORE_HZ`` core;
- the radix sort makes ``KEY_BITS / RADIX_BITS`` passes over the 32-bit
  slot indices, each reading and writing every 4 B key at one core's
  sequential bandwidth, ``CORE_BYTES_PER_S``.

The counts scale linearly from the measured region to the paper's 4 G
slots, and Amdahl's law spreads each method over the cores (radix sort's
passes parallelize; the bitmap scan is serial).  No wall clock enters, so
the table is the same on every box.
"""

import random

from repro.analysis.report import format_series
from repro.core.slab_host import RADIX_BITS, HostSlabManager, radix_sort
from repro.errors import AllocationError

#: Scaled-down merge problem: ~131k slots of 32 B in a 4 MiB region.
REGION = 4 << 20
PAPER_SLOTS = 4e9

#: The paper's host core: a Xeon E5-2650 v2 (Ivy Bridge-EP) at 2.6 GHz.
CORE_HZ = 2.6e9
#: One bitmap unit visited: a byte load (4-5 cycles load-to-use) and a
#: data-dependent branch that mispredicts on a fragmented bitmap (~15).
CYCLES_PER_UNIT = 20
#: One core's sequential copy bandwidth: 10 line fill buffers of 64 B
#: each kept busy over a ~65 ns DRAM round trip (Little's law), B/s.
CORE_BYTES_PER_S = 10e9
#: A 4 G-slot vector's slot indices are 32-bit keys.
KEY_BITS = 32

#: Parallel fraction of radix sort (counting passes parallelize well).
RADIX_PARALLEL_FRACTION = 0.95
#: The bitmap scan is inherently serial.
BITMAP_PARALLEL_FRACTION = 0.05

CORES = [1, 2, 4, 8, 16, 32]


def _fragmented_manager() -> HostSlabManager:
    host = HostSlabManager(base=0, size=REGION)
    taken = []
    try:
        while True:
            taken.extend(host.pop(0, 256))
    except AllocationError:
        pass
    host.push(0, taken)
    return host


def _slots(host) -> int:
    return sum(host.pool_sizes().values())


def amdahl(serial_time: float, cores: int, parallel_fraction: float) -> float:
    return serial_time * (
        (1 - parallel_fraction) + parallel_fraction / cores
    )


def one_core_seconds(units: int, slots: int) -> dict:
    """Each method's one-core time for the paper's slot count, from the
    work counted on a region of ``units`` bitmap units and ``slots`` free
    slots."""
    scale = PAPER_SLOTS / slots
    passes = KEY_BITS // RADIX_BITS
    key_bytes = 2 * (KEY_BITS // 8)  # each pass reads and writes a key
    return {
        "bitmap": units * scale * CYCLES_PER_UNIT / CORE_HZ,
        "radix": passes * slots * scale * key_bytes / CORE_BYTES_PER_S,
    }


def test_fig12_merge_methods_scale(emit):
    pools = {}
    for method in ("bitmap", "radix"):
        host = _fragmented_manager()
        slots, units = _slots(host), host.bitmap.units
        host.merge_free_slabs(method=method)
        # Both must fully recombine the region, into the same pools.
        assert host.free_bytes() == host.size
        host.check_invariants()
        pools[method] = host.pool_sizes()
    assert pools["bitmap"] == pools["radix"]
    seconds = one_core_seconds(units, slots)
    rows = [
        (
            cores,
            amdahl(seconds["bitmap"], cores, BITMAP_PARALLEL_FRACTION),
            amdahl(seconds["radix"], cores, RADIX_PARALLEL_FRACTION),
        )
        for cores in CORES
    ]
    emit(
        "fig12_merge",
        format_series(
            f"Figure 12: merging {PAPER_SLOTS:.0e} slab slots, priced from "
            f"the work counted on a {slots}-slot region",
            "cores",
            [r[0] for r in rows],
            [
                ("bitmap (s)", [r[1] for r in rows]),
                ("radix sort (s)", [r[2] for r in rows]),
            ],
        ),
    )
    # Paper: 30 s for the bitmap on one core, 1.8 s for radix sort on 32.
    assert 15 <= rows[0][1] <= 60
    assert 0.9 <= rows[-1][2] <= 3.6
    # Paper shape: radix at 32 cores is far below bitmap at 1 core, and
    # the bitmap barely gains from cores.
    assert rows[-1][2] < rows[0][1] / 3
    assert rows[-1][1] > rows[0][1] * 0.5


def test_fig12_radix_sort_correct():
    rng = random.Random(0)
    values = [rng.randrange(2**40) for _ in range(50_000)]
    assert radix_sort(values) == sorted(values)


def test_fig12_background_merge_does_not_block_allocator():
    """'It runs in background without stalling the slab allocator' - after
    a merge the allocator can immediately serve every class."""
    host = _fragmented_manager()
    host.merge_free_slabs(method="radix")
    pops = [host.pop(c, 1) for c in range(5)]
    assert all(len(p) == 1 for p in pops)
