"""Ablations of the design choices DESIGN.md calls out.

Beyond the figure-level ablations (chaining vs cuckoo/hopscotch = Fig 11,
OoO on/off = Fig 13, dispatch modes = Fig 14, inline threshold = Fig 6,
batching = Fig 15), this file sweeps the structural parameters the paper
fixes with one-sentence justifications:

- reservation-station capacity (256 in-flight "to saturate PCIe, DRAM and
  the processing pipeline");
- reservation-station hash slots (1024 "to make hash collision
  probability below 25 %");
- slab sync batch size (amortizes to < 0.07 DMA/op);
- PCIe link count (the bifurcated x16 gives two x8 endpoints).
"""

from repro import scenario
from repro.analysis.report import format_series
from repro.core.slab import SlabAllocator
from repro.core.slab_host import HostSlabManager
from repro.driver import run_closed_loop


def _ycsb_throughput(**overrides) -> float:
    built = scenario.build(memory_size=4 << 20, corpus=3000, **overrides)
    stats = run_closed_loop(
        built.processor, built.operations(4000), concurrency=250
    )
    return stats["throughput_mops"]


def test_ablation_inflight_capacity(benchmark, emit):
    """Section 3.3.3: 'to saturate PCIe, DRAM and the processing pipeline,
    up to 256 in-flight KV operations are needed.'"""
    capacities = [16, 64, 256]

    def sweep():
        return [
            _ycsb_throughput(max_inflight=c) for c in capacities
        ]

    tputs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "ablation_inflight",
        format_series(
            "Ablation: in-flight operation budget vs throughput",
            "max in-flight",
            capacities,
            [("Mops", tputs)],
        ),
    )
    # Throughput starves with a small window and saturates near 256.
    assert tputs[0] < tputs[-1] * 0.5
    assert tputs[1] < tputs[-1]


def test_ablation_station_slots(benchmark, emit):
    """Section 3.3.3: 1024 hash slots keep collision probability below
    25 %; far fewer slots serialize independent keys."""
    slot_counts = [16, 128, 1024]

    def sweep():
        return [
            _ycsb_throughput(reservation_slots=s) for s in slot_counts
        ]

    tputs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "ablation_station_slots",
        format_series(
            "Ablation: reservation-station hash slots vs throughput",
            "slots",
            slot_counts,
            [("Mops", tputs)],
        ),
    )
    # 16 slots force massive false dependencies.
    assert tputs[0] < tputs[-1] * 0.8
    # 1024 is comfortably past the knee.
    assert tputs[1] > tputs[0]


def test_ablation_slab_sync_batch(benchmark, emit):
    """Section 3.3.2: batching slab-entry sync amortizes the PCIe cost;
    a batch of 1 means one DMA per allocation."""
    batches = [1, 8, 32]

    def sweep():
        amortized = []
        for batch in batches:
            host = HostSlabManager(base=0, size=1 << 20)
            allocator = SlabAllocator(
                host, sync_batch=batch, stack_capacity=max(batch, 64)
            )
            addrs = [allocator.alloc(64) for __ in range(2000)]
            for addr in addrs:
                allocator.free(addr, 1)
            amortized.append(allocator.amortized_dma_per_op())
        return amortized

    values = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "ablation_slab_batch",
        format_series(
            "Ablation: slab sync batch vs amortized DMA per alloc/free",
            "batch entries",
            batches,
            [("DMA/op", values)],
        ),
    )
    assert values[0] > 0.2  # unbatched: a DMA every couple of ops
    assert values[-1] < 0.07  # the paper's bound needs real batching
    assert values[0] > values[1] > values[2]


def test_ablation_pcie_link_count(benchmark, emit):
    """The bifurcated x16 (two x8 endpoints) roughly doubles the
    PCIe-bound throughput over a single x8."""
    links = [1, 2]

    def sweep():
        return [_ycsb_throughput(pcie_links=n) for n in links]

    tputs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "ablation_pcie_links",
        format_series(
            "Ablation: PCIe endpoints vs uniform GET throughput",
            "x8 links",
            links,
            [("Mops", tputs)],
        ),
    )
    assert tputs[1] > tputs[0] * 1.5
