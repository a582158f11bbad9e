"""Figure 11: memory accesses per KV operation - KV-Direct vs MemC3
(bucketized cuckoo) vs FaRM (chain-associative hopscotch).

Panels: (a) 10 B GET, (b) 10 B PUT, (c) ~254 B GET, (d) ~254 B PUT,
versus memory utilization.  As in the paper, the hash index ratio is tuned
per system and KV size before measuring (section 5.2.1), and the baselines
hit their out-of-memory wall at much lower utilization than KV-Direct for
tiny KVs (the paper: MemC3/FaRM cannot exceed 55 % for 10 B KVs; in this
reproduction the wall sits lower because the smallest slab is 32 B, so a
2 B value burns 32 B - the *ordering* is what reproduces).

Paper shape reproduced here:

- inline KVs in KV-Direct: ~1 access per GET, ~2 per PUT;
- cuckoo and hopscotch pay the extra value-slab access on every op;
- cuckoo PUT fluctuates under high index load factor (kick chains);
- hopscotch GET is competitive, PUT degrades sharply (bubbling).
"""

from typing import Tuple

import pytest

from repro.analysis.report import format_series
from repro.baselines.cuckoo import CuckooHashTable
from repro.baselines.hopscotch import HopscotchHashTable
from repro.core.config import KVDirectConfig
from repro.core.store import KVDirectStore
from repro.errors import CapacityError
from repro.workloads.keyspace import KEY_SIZE

MEMORY = 1 << 20
UTILIZATIONS = [0.05, 0.10, 0.15]
#: KV-Direct-only extension - past the baselines' out-of-memory wall.
EXTENDED_UTILIZATIONS = [0.20, 0.28, 0.36]
SMALL_KV = 10
#: Near the paper's "power of two minus 2 B metadata" point (254 B): a
#: 253 B KV's record, 255 B under KV-Direct's 2 B header, keeps the 256 B
#: slab class (the table was cut when that header was 3 B).
LARGE_KV = 253


def _random_keys(count: int, seed: int = 11):
    """Pseudo-random keys: sequential integers through FNV land nearly
    round-robin across buckets, hiding collision behaviour."""
    import random

    rng = random.Random(seed)
    return [rng.getrandbits(64).to_bytes(KEY_SIZE, "big") for __ in range(count)]


def _fill(table, utilization, kv_size, memory_size):
    """Fill with random keys; returns the key list or None (OOM)."""
    import random

    rng = random.Random(11)
    value = b"\xab" * (kv_size - KEY_SIZE)
    keys = []
    try:
        while table.stored_bytes / memory_size < utilization:
            key = rng.getrandbits(64).to_bytes(KEY_SIZE, "big")
            table.put(key, value)
            keys.append(key)
    except CapacityError:
        return None
    return keys


def _probe(table, keys, kv_size, probe=400) -> Tuple[float, float]:
    table.get_cost = type(table.get_cost)()
    table.put_cost = type(table.put_cost)()
    value = b"\xcd" * (kv_size - KEY_SIZE)
    step = max(1, len(keys) // probe)
    for key in keys[::step]:
        table.get(key)
    try:
        for key in keys[::step]:
            table.put(key, value)
    except CapacityError:
        pass
    return table.get_cost.mean, table.put_cost.mean


def _kvdirect(utilization, kv_size):
    # Tuned per KV size: inline-heavy index for tiny KVs, small index for
    # big slab-resident KVs.
    ratio = 0.6 if kv_size <= 20 else 0.15
    config = KVDirectConfig(
        memory_size=MEMORY, hash_index_ratio=ratio, inline_threshold=20
    )
    store = KVDirectStore(config)
    keys = _fill(store.table, utilization, kv_size, MEMORY)
    if keys is None:
        return None
    return _probe(store.table, keys, kv_size)


def _baseline(cls, utilization, kv_size):
    # Tuned split: balance index slots against value slabs.
    ratio = 0.3 if kv_size <= 20 else 0.1
    table = cls.over(MEMORY, int(MEMORY * ratio))
    keys = _fill(table, utilization, kv_size, MEMORY)
    if keys is None:
        return None
    return _probe(table, keys, kv_size)


SYSTEMS = [
    ("KV-Direct", _kvdirect),
    ("MemC3 (cuckoo)", lambda u, k: _baseline(CuckooHashTable, u, k)),
    ("FaRM (hopscotch)", lambda u, k: _baseline(HopscotchHashTable, u, k)),
]


@pytest.fixture(scope="module")
def figure11():
    data = {}
    for kv_size in (SMALL_KV, LARGE_KV):
        for name, runner in SYSTEMS:
            gets, puts = [], []
            for utilization in UTILIZATIONS:
                result = runner(utilization, kv_size)
                if result is None:
                    gets.append(float("nan"))
                    puts.append(float("nan"))
                else:
                    gets.append(result[0])
                    puts.append(result[1])
            data[(kv_size, name, "GET")] = gets
            data[(kv_size, name, "PUT")] = puts
    return data


def _emit_panel(emit, data, kv_size, op, label):
    emit(
        f"fig11{label}_{kv_size}b_{op.lower()}",
        format_series(
            f"Figure 11{label}: {kv_size} B {op} memory accesses per op",
            "utilization",
            UTILIZATIONS,
            [(name, data[(kv_size, name, op)]) for name, __ in SYSTEMS],
        ),
    )


def test_fig11a_small_get(benchmark, figure11, emit):
    benchmark.pedantic(lambda: _kvdirect(0.1, SMALL_KV), rounds=1, iterations=1)
    _emit_panel(emit, figure11, SMALL_KV, "GET", "a")
    kvd = figure11[(SMALL_KV, "KV-Direct", "GET")]
    assert all(v < 1.5 for v in kvd if v == v)  # inline: ~1 access
    for name in ("MemC3 (cuckoo)", "FaRM (hopscotch)"):
        other = figure11[(SMALL_KV, name, "GET")]
        for k, o in zip(kvd, other):
            if k == k and o == o:
                assert o > k  # both pay the value-slab access


def test_fig11b_small_put(benchmark, figure11, emit):
    benchmark.pedantic(lambda: _kvdirect(0.1, SMALL_KV), rounds=1, iterations=1)
    _emit_panel(emit, figure11, SMALL_KV, "PUT", "b")
    kvd = figure11[(SMALL_KV, "KV-Direct", "PUT")]
    assert all(v < 2.6 for v in kvd if v == v)  # close to 2
    for name in ("MemC3 (cuckoo)", "FaRM (hopscotch)"):
        other = figure11[(SMALL_KV, name, "PUT")]
        for k, o in zip(kvd, other):
            if k == k and o == o:
                assert o > k


def test_fig11ab_kvdirect_extends_past_baseline_wall(benchmark, emit):
    """The paper's three rightmost bars: only KV-Direct reaches high
    utilization with 10 B KVs."""

    def extended():
        rows = []
        for utilization in EXTENDED_UTILIZATIONS:
            kvd = _kvdirect(utilization, SMALL_KV)
            cuckoo = _baseline(CuckooHashTable, utilization, SMALL_KV)
            hop = _baseline(HopscotchHashTable, utilization, SMALL_KV)
            rows.append((utilization, kvd, cuckoo, hop))
        return rows

    rows = benchmark.pedantic(extended, rounds=1, iterations=1)
    emit(
        "fig11ab_extended",
        format_series(
            "Figure 11a/b extension: 10 B KVs past the baselines' "
            "out-of-memory wall (GET accesses; '-' = out of memory)",
            "utilization",
            [r[0] for r in rows],
            [
                (
                    "KV-Direct",
                    [r[1][0] if r[1] else float("nan") for r in rows],
                ),
                (
                    "MemC3",
                    [r[2][0] if r[2] else float("nan") for r in rows],
                ),
                (
                    "FaRM",
                    [r[3][0] if r[3] else float("nan") for r in rows],
                ),
            ],
        ),
    )
    # Some utilization must exist where KV-Direct still works and both
    # baselines are out of memory.
    assert any(
        r[1] is not None and r[2] is None and r[3] is None for r in rows
    )


def test_fig11c_large_get(benchmark, figure11, emit):
    benchmark.pedantic(lambda: _kvdirect(0.1, LARGE_KV), rounds=1, iterations=1)
    _emit_panel(emit, figure11, LARGE_KV, "GET", "c")
    kvd = figure11[(LARGE_KV, "KV-Direct", "GET")]
    hop = figure11[(LARGE_KV, "FaRM (hopscotch)", "GET")]
    # Non-inline: ~2 accesses; hopscotch GET competitive (paper 11c).
    assert all(1.8 < v < 3.0 for v in kvd if v == v)
    assert all(v <= 2.5 for v in hop if v == v)


def test_fig11d_large_put(benchmark, figure11, emit):
    benchmark.pedantic(lambda: _kvdirect(0.1, LARGE_KV), rounds=1, iterations=1)
    _emit_panel(emit, figure11, LARGE_KV, "PUT", "d")
    kvd = figure11[(LARGE_KV, "KV-Direct", "PUT")]
    assert all(v < 3.6 for v in kvd if v == v)  # ~3 for non-inline


def test_fig11_cuckoo_put_fluctuates_at_high_load_factor(benchmark, emit):
    """Paper: 'under high memory utilization, cuckoo hashing incurs large
    fluctuations in memory access times per PUT.'  Exposed by filling the
    *index* (load factor), with values kept tiny."""

    def degradation():
        rows = []
        for load_factor in (0.3, 0.6, 0.85):
            cuckoo = CuckooHashTable.over(MEMORY, 64 << 10)
            slots = cuckoo.num_buckets * 4
            for key in _random_keys(int(slots * load_factor), seed=3):
                cuckoo.put(key, b"v")
            rows.append(
                (load_factor, cuckoo.put_cost.mean, cuckoo.put_cost.maximum)
            )
        return rows

    rows = benchmark.pedantic(degradation, rounds=1, iterations=1)
    emit(
        "fig11_cuckoo_degradation",
        format_series(
            "Figure 11b detail: cuckoo PUT vs index load factor",
            "load factor",
            [r[0] for r in rows],
            [
                ("mean accesses", [r[1] for r in rows]),
                ("max accesses", [r[2] for r in rows]),
            ],
        ),
    )
    # Max (fluctuation) grows much faster than the mean.
    assert rows[-1][2] > rows[0][2]
    assert rows[-1][2] >= rows[-1][1] * 2


def test_fig11_hopscotch_put_degrades_at_high_load_factor(benchmark, emit):
    """Paper: hopscotch is 'significantly worse in PUT' when dense."""

    def degradation():
        rows = []
        for load_factor in (0.3, 0.6, 0.95):
            hop = HopscotchHashTable.over(MEMORY, 64 << 10)
            slots = hop.num_buckets * 4
            for key in _random_keys(int(slots * load_factor), seed=4):
                hop.put(key, b"v")
            rows.append((load_factor, hop.put_cost.mean, hop.put_cost.maximum))
        return rows

    rows = benchmark.pedantic(degradation, rounds=1, iterations=1)
    emit(
        "fig11_hopscotch_degradation",
        format_series(
            "Figure 11d detail: hopscotch PUT vs index load factor",
            "load factor",
            [r[0] for r in rows],
            [
                ("mean accesses", [r[1] for r in rows]),
                ("max accesses", [r[2] for r in rows]),
            ],
        ),
    )
    assert rows[-1][2] > rows[0][2]
