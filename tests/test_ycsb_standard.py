"""Tests for the standard YCSB A-F workload presets."""

import struct

import pytest

from repro.core.operations import OpType
from repro.core.store import KVDirectStore
from repro.errors import ConfigurationError
from repro.workloads import KeySpace
from repro.workloads.ycsb_standard import WORKLOADS, StandardYCSB


@pytest.fixture
def keyspace():
    return KeySpace(count=500, kv_size=24)


def op_kinds(ops):
    return [op.op for op in ops]


class TestPresets:
    def test_supported_letters(self):
        assert WORKLOADS == ("A", "B", "C", "D", "E", "F")

    def test_unknown_rejected(self, keyspace):
        with pytest.raises(ConfigurationError):
            StandardYCSB(keyspace, "Z")

    def test_lowercase_accepted(self, keyspace):
        assert StandardYCSB(keyspace, "a").workload == "A"


class TestMixes:
    def _fractions(self, keyspace, workload, n=4000):
        gen = StandardYCSB(keyspace, workload, seed=1)
        ops = gen.operations(n)
        kinds = op_kinds(ops)
        return {
            "read": kinds.count(OpType.GET) / n,
            "write": kinds.count(OpType.PUT) / n,
            "rmw": kinds.count(OpType.UPDATE_SCALAR) / n,
        }

    def test_a_half_and_half(self, keyspace):
        mix = self._fractions(keyspace, "A")
        assert mix["read"] == pytest.approx(0.5, abs=0.05)
        assert mix["write"] == pytest.approx(0.5, abs=0.05)

    def test_b_read_mostly(self, keyspace):
        mix = self._fractions(keyspace, "B")
        assert mix["read"] == pytest.approx(0.95, abs=0.02)

    def test_c_read_only(self, keyspace):
        mix = self._fractions(keyspace, "C")
        assert mix["read"] == 1.0

    def test_d_inserts(self, keyspace):
        mix = self._fractions(keyspace, "D")
        assert mix["write"] == pytest.approx(0.05, abs=0.02)
        assert mix["read"] == pytest.approx(0.95, abs=0.02)

    def test_f_rmw(self, keyspace):
        mix = self._fractions(keyspace, "F")
        assert mix["rmw"] == pytest.approx(0.5, abs=0.05)

    def test_e_scan_heavy(self, keyspace):
        gen = StandardYCSB(keyspace, "E", seed=1)
        ops = gen.operations(4000)
        kinds = op_kinds(ops)
        assert kinds.count(OpType.RANGE) / 4000 == pytest.approx(
            0.95, abs=0.02
        )
        assert kinds.count(OpType.PUT) / 4000 == pytest.approx(
            0.05, abs=0.02
        )
        counts = [op.count for op in ops if op.op is OpType.RANGE]
        assert min(counts) >= 1 and max(counts) <= 25


class TestSemantics:
    def _run(self, workload, keyspace):
        store = KVDirectStore.create(memory_size=2 << 20)
        gen = StandardYCSB(keyspace, workload, seed=2)
        for op in gen.load_phase():
            store.execute(op)
        results = [store.execute(op) for op in gen.operations(1500)]
        return store, results

    def test_a_executes_cleanly(self, keyspace):
        __, results = self._run("A", keyspace)
        assert all(r.ok for r in results)

    def test_c_reads_always_hit(self, keyspace):
        __, results = self._run("C", keyspace)
        assert all(r.ok and r.value is not None for r in results)

    def test_d_read_latest_hits(self, keyspace):
        """Reads target existing recent inserts, so almost all hit."""
        __, results = self._run("D", keyspace)
        hit_rate = sum(r.ok for r in results) / len(results)
        assert hit_rate > 0.99

    def test_f_counters_accumulate(self, keyspace):
        store, results = self._run("F", keyspace)
        assert all(r.ok for r in results)
        rmw_count = sum(
            1 for r in results if r.op is OpType.UPDATE_SCALAR
        )
        # Total increment across all counters equals the RMW op count.
        total = 0
        gen_base = 0
        for index in range(keyspace.count):
            value = store.get(keyspace.key(index))
            total += struct.unpack("<q", value)[0]
            gen_base += index
        assert total == gen_base + rmw_count

    def test_d_inserts_are_new_keys(self, keyspace):
        gen = StandardYCSB(keyspace, "D", seed=0)
        ops = gen.operations(500)
        inserted = {op.key for op in ops if op.op is OpType.PUT}
        assert all(key.startswith(b"new:") for key in inserted)

    def test_deterministic(self, keyspace):
        a = StandardYCSB(keyspace, "A", seed=9).operations(100)
        b = StandardYCSB(keyspace, "A", seed=9).operations(100)
        assert a == b

    def test_e_executes_cleanly_on_ordered_store(self, keyspace):
        store = KVDirectStore.create(memory_size=2 << 20,
                                     ordered_index=True)
        gen = StandardYCSB(keyspace, "E", seed=2)
        for op in gen.load_phase():
            store.execute(op)
        results = [store.execute(op) for op in gen.operations(1000)]
        assert all(r.ok for r in results)
