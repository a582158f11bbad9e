"""Figure 14: memory access throughput with the DRAM load dispatcher
(load dispatch ratio 0.5) vs the PCIe-only baseline.

Paper: under uniform workload the caching effect is negligible (NIC DRAM
is a small fraction of KVS memory); under long-tail a large share of
accesses hit the DRAM cache and GET-heavy mixes reach the 180 Mops clock
bound.  Using the DRAM as a *pure* cache for all of memory underperforms
the hybrid because the DRAM is slower than the two PCIe links combined.

The corpus is filled to 35 % memory utilization (section 5.2.1 style) so
the cacheable footprint genuinely exceeds NIC DRAM - with a tiny corpus
everything caches and the uniform/long-tail distinction vanishes.
"""

import pytest

from repro.analysis.report import format_series
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.driver import run_closed_loop
from repro.sim import Simulator
from repro.workloads import KeySpace, WorkloadSpec, YCSBGenerator

GET_PERCENTAGES = [50, 95, 100]
OPS = 5000
MEMORY = 8 << 20
FILL = 0.35
KV_SIZE = 13


def _filled_store(**overrides) -> KVDirectStore:
    store = KVDirectStore.create(memory_size=MEMORY, **overrides)
    store.fill_to_utilization(FILL, KV_SIZE)
    store.reset_measurements()
    return store


@pytest.fixture(scope="module")
def stores():
    return {
        "baseline": _filled_store(load_dispatch_ratio=0.0),
        "hybrid": _filled_store(load_dispatch_ratio=0.5),
        "cache_all": _filled_store(load_dispatch_ratio=1.0),
    }


def _throughput(store: KVDirectStore, distribution: str, get_pct: int) -> float:
    sim = Simulator()
    processor = KVProcessor(sim, store)
    keyspace = KeySpace(count=len(store), kv_size=KV_SIZE)
    generator = YCSBGenerator(
        keyspace,
        WorkloadSpec(put_ratio=1 - get_pct / 100, distribution=distribution),
    )
    stats = run_closed_loop(
        processor, generator.operations(OPS), concurrency=250
    )
    return stats["throughput_mops"]


@pytest.fixture(scope="module")
def figure14(stores):
    data = {}
    for distribution in ("uniform", "zipf"):
        for mode in ("baseline", "hybrid"):
            data[(distribution, mode)] = [
                _throughput(stores[mode], distribution, pct)
                for pct in GET_PERCENTAGES
            ]
    return data


def test_fig14_load_dispatch(benchmark, figure14, stores, emit):
    benchmark.pedantic(
        lambda: _throughput(stores["hybrid"], "zipf", 100),
        rounds=1,
        iterations=1,
    )
    emit(
        "fig14_dispatch",
        format_series(
            "Figure 14: throughput (Mops) with load dispatch (l = 0.5)",
            "GET %",
            GET_PERCENTAGES,
            [
                ("baseline uniform", figure14[("uniform", "baseline")]),
                ("hybrid uniform", figure14[("uniform", "hybrid")]),
                ("baseline long-tail", figure14[("zipf", "baseline")]),
                ("hybrid long-tail", figure14[("zipf", "hybrid")]),
            ],
        ),
    )
    # Long-tail + dispatch clearly exceeds the PCIe-only bound at
    # GET-heavy mixes (the paper reaches its 180 Mops clock bound; our
    # corpus at 35 % utilization pays some extra accesses per op).
    assert figure14[("zipf", "hybrid")][-1] > 125.0
    assert (
        figure14[("zipf", "hybrid")][-1]
        > figure14[("uniform", "baseline")][-1] * 1.3
    )
    # Dispatch never hurts the long-tail workload.
    for hybrid, baseline in zip(
        figure14[("zipf", "hybrid")], figure14[("zipf", "baseline")]
    ):
        assert hybrid > baseline * 0.95
    # Uniform gains are modest compared to the long-tail gains.
    uniform_gain = (
        figure14[("uniform", "hybrid")][-1]
        / figure14[("uniform", "baseline")][-1]
    )
    longtail_gain = (
        figure14[("zipf", "hybrid")][-1]
        / figure14[("zipf", "baseline")][-1]
    )
    assert longtail_gain >= uniform_gain * 0.9


def test_fig14_hybrid_vs_pure_cache_on_uniform(benchmark, stores, emit):
    """'If DRAM is simply used as a cache, the throughput would be
    adversely impacted because the DRAM throughput is lower than PCIe' -
    visible on the uniform workload, where caching all of memory sends
    every (mostly missing) access through the slower DRAM."""

    def pair():
        return (
            _throughput(stores["hybrid"], "uniform", 100),
            _throughput(stores["cache_all"], "uniform", 100),
        )

    hybrid, cache_all = benchmark.pedantic(pair, rounds=1, iterations=1)
    emit(
        "fig14_cache_all_ablation",
        format_series(
            "Figure 14 ablation: hybrid dispatch vs DRAM-as-full-cache "
            "(uniform, 100 % GET)",
            "mode",
            ["hybrid l=0.5", "cache all l=1.0"],
            [("Mops", [hybrid, cache_all])],
        ),
    )
    assert hybrid >= cache_all * 0.9
