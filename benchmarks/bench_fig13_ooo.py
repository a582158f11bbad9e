"""Figure 13: effectiveness of the out-of-order execution engine.

(a) Atomics throughput vs number of keys: with OoO, KV-Direct processes
    single-key atomics at the clock bound (~180 Mops, a 191x gain);
    without it, each atomic stalls for a PCIe round trip (~1 Mops),
    matching the 2.24 Mops of RDMA NIC atomics; one-/two-sided RDMA grow
    with key count but stay far below KV-Direct.
(b) Long-tail (Zipf 0.99) workload throughput vs PUT ratio: stalling on
    popular keys hurts more as the PUT ratio rises; OoO holds steady.
"""

import struct

import pytest

from repro.analysis.report import format_series
from repro.baselines import OneSidedRDMAModel, TwoSidedRDMAModel
from repro.core.operations import KVOperation
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.core.vector import FETCH_ADD
from repro.driver import run_closed_loop
from repro.sim import Simulator
from repro.workloads import KeySpace, WorkloadSpec, YCSBGenerator

KEY_COUNTS = [1, 4, 16, 64]
PUT_RATIOS = [0.0, 0.05, 0.3, 1.0]


def q(value):
    return struct.pack("<q", value)


def _atomics_throughput(out_of_order: bool, keys: int, ops: int) -> float:
    sim = Simulator()
    store = KVDirectStore.create(
        memory_size=4 << 20, out_of_order=out_of_order
    )
    for k in range(keys):
        store.put(b"ctr%04d" % k, q(0))
    processor = KVProcessor(sim, store)
    stream = [
        KVOperation.update(b"ctr%04d" % (i % keys), FETCH_ADD, q(1), seq=i)
        for i in range(ops)
    ]
    stats = run_closed_loop(processor, stream, concurrency=200)
    return stats["throughput_mops"]


def _longtail_throughput(out_of_order: bool, put_ratio: float) -> float:
    sim = Simulator()
    store = KVDirectStore.create(
        memory_size=4 << 20, out_of_order=out_of_order
    )
    keyspace = KeySpace(count=2000, kv_size=13)
    for key, value in keyspace.pairs():
        store.put(key, value)
    store.reset_measurements()
    processor = KVProcessor(sim, store)
    generator = YCSBGenerator(
        keyspace, WorkloadSpec(put_ratio=put_ratio, distribution="zipf")
    )
    stats = run_closed_loop(
        processor, generator.operations(4000), concurrency=200
    )
    return stats["throughput_mops"]


@pytest.fixture(scope="module")
def figure13a():
    with_ooo, without = [], []
    for keys in KEY_COUNTS:
        with_ooo.append(_atomics_throughput(True, keys, 3000))
        without.append(_atomics_throughput(False, keys, max(400, keys * 40)))
    one_sided = [
        OneSidedRDMAModel().atomics_throughput(k) / 1e6 for k in KEY_COUNTS
    ]
    two_sided = [
        TwoSidedRDMAModel().atomics_throughput(k) / 1e6 for k in KEY_COUNTS
    ]
    return with_ooo, without, one_sided, two_sided


def test_fig13a_atomics(benchmark, figure13a, emit):
    with_ooo, without, one_sided, two_sided = figure13a
    benchmark.pedantic(
        lambda: _atomics_throughput(True, 1, 1000), rounds=1, iterations=1
    )
    emit(
        "fig13a_atomics",
        format_series(
            "Figure 13a: atomics throughput (Mops) vs number of keys",
            "keys",
            KEY_COUNTS,
            [
                ("with OoO", with_ooo),
                ("without OoO", without),
                ("one-sided RDMA", one_sided),
                ("two-sided RDMA", two_sided),
            ],
        ),
    )
    # Single-key: OoO reaches the clock-bound regime; stall mode collapses
    # to the PCIe-round-trip bound (paper: 180 vs 0.94 Mops, 191x).
    assert with_ooo[0] > 100.0
    assert without[0] < 10.0
    assert with_ooo[0] / without[0] > 20.0
    # RDMA baselines sit close to their measured constants.
    assert one_sided[0] == pytest.approx(2.24, rel=0.01)
    # Without OoO, throughput grows with key count (more parallelism).
    assert without[-1] > without[0] * 2
    # KV-Direct with OoO dominates every alternative at every key count.
    for i in range(len(KEY_COUNTS)):
        assert with_ooo[i] > max(without[i], one_sided[i], two_sided[i])


@pytest.fixture(scope="module")
def figure13b():
    with_ooo = [_longtail_throughput(True, r) for r in PUT_RATIOS]
    without = [_longtail_throughput(False, r) for r in PUT_RATIOS]
    return with_ooo, without


def test_fig13b_longtail_put_ratio(benchmark, figure13b, emit):
    with_ooo, without = figure13b
    benchmark.pedantic(
        lambda: _longtail_throughput(True, 0.5), rounds=1, iterations=1
    )
    emit(
        "fig13b_longtail",
        format_series(
            "Figure 13b: long-tail workload throughput (Mops) vs PUT ratio",
            "PUT ratio",
            PUT_RATIOS,
            [("with OoO", with_ooo), ("without OoO", without)],
        ),
    )
    # At 0 % PUT both run at the clock bound (reads never conflict);
    # any writes at all collapse the stalling baseline.
    assert without[0] == pytest.approx(with_ooo[0], rel=0.15)
    for w, wo in zip(with_ooo[1:], without[1:]):
        assert w > 2 * wo
    # The stall penalty grows with PUT ratio.
    assert without[-1] <= without[1] * 1.1
    # OoO stays near the clock bound across the whole sweep.
    assert min(with_ooo) > 0.8 * max(with_ooo)
