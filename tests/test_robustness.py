"""Failure-injection and resource-exhaustion robustness tests."""

import struct

import pytest

from repro.core.operations import KVOperation
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.core.vector import FETCH_ADD
from repro.errors import AllocationError, CapacityError
from repro.sim import Simulator
from tests.waiting import all_of


def q(*values):
    return struct.pack("<%dq" % len(values), *values)


class TestMemoryExhaustion:
    def _fill_until_full(self, store, value_size=100):
        """Insert non-inline KVs until the allocator gives up."""
        stored = []
        value = b"x" * value_size
        i = 0
        with pytest.raises(CapacityError):
            while True:
                key = b"key%08d" % i
                store.put(key, value)
                stored.append(key)
                i += 1
        return stored, value

    def test_store_survives_out_of_memory(self):
        """After an allocation failure every prior KV is still intact."""
        store = KVDirectStore.create(memory_size=256 << 10)
        stored, value = self._fill_until_full(store)
        assert len(stored) > 100
        for key in stored[:: max(1, len(stored) // 50)]:
            assert store.get(key) == value

    def test_deletes_free_space_for_new_inserts(self):
        store = KVDirectStore.create(memory_size=256 << 10)
        stored, value = self._fill_until_full(store)
        # Free a tenth of the corpus; the space must be reusable.
        victims = stored[:: 10]
        for key in victims:
            assert store.delete(key)
        for i, key in enumerate(victims):
            store.put(b"new%07d" % i, value)
        for i in range(len(victims)):
            assert store.get(b"new%07d" % i) == value

    def test_inline_inserts_survive_slab_exhaustion(self):
        """Running out of slabs must not break inline-path PUTs."""
        store = KVDirectStore.create(memory_size=256 << 10)
        self._fill_until_full(store)
        # Inline KVs need no slab (as long as index slots remain).
        store.put(b"tiny", b"v")
        assert store.get(b"tiny") == b"v"

    def test_timed_pipeline_surfaces_capacity_error(self):
        """The processor propagates allocator failures instead of hanging."""
        sim = Simulator()
        store = KVDirectStore.create(memory_size=128 << 10)
        processor = KVProcessor(sim, store)
        ops = [
            KVOperation.put(b"key%06d" % i, b"x" * 200, seq=i)
            for i in range(2000)
        ]
        events = [processor.submit(op) for op in ops]
        with pytest.raises(CapacityError):
            sim.run(all_of(sim, events))


class TestDegenerateWorkloads:
    def test_zero_length_values_everywhere(self):
        store = KVDirectStore.create(memory_size=1 << 20)
        for i in range(500):
            store.put(b"k%04d" % i, b"")
        assert len(store) == 500
        assert all(store.get(b"k%04d" % i) == b"" for i in range(500))

    def test_single_key_hammering(self):
        store = KVDirectStore.create(memory_size=1 << 20)
        store.put(b"hot", q(0))
        for __ in range(1000):
            store.update(b"hot", FETCH_ADD, q(1))
        assert store.get(b"hot") == q(1000)
        # Hammering one key must not leak memory accesses unboundedly.
        assert store.table.get_cost.maximum <= 3

    def test_alternating_grow_shrink_value(self):
        """Repeatedly crossing the inline threshold and slab classes."""
        store = KVDirectStore.create(memory_size=1 << 20)
        sizes = [2, 100, 5, 300, 1, 60, 0, 200]
        for cycle in range(50):
            size = sizes[cycle % len(sizes)]
            store.put(b"morph", b"m" * size)
            assert store.get(b"morph") == b"m" * size
        assert len(store) == 1

    def test_many_distinct_then_all_deleted(self):
        store = KVDirectStore.create(memory_size=1 << 20)
        for i in range(2000):
            store.put(b"k%05d" % i, b"v" * (i % 50))
        for i in range(2000):
            assert store.delete(b"k%05d" % i)
        assert len(store) == 0
        assert list(store.items()) == []
        # Everything returned to the allocator.
        assert store.host_slab.free_bytes() + sum(
            len(store.allocator._stacks[c]) * (32 << c) for c in range(5)
        ) > 0


class TestAllocatorPressure:
    def test_interleaved_classes_under_pressure(self):
        """Mixed-size churn near capacity triggers split + merge paths."""
        store = KVDirectStore.create(memory_size=256 << 10)
        sizes = [40, 90, 200, 450]
        live = {}
        failures = 0
        for i in range(3000):
            key = b"k%05d" % (i % 600)
            size = sizes[i % len(sizes)]
            try:
                store.put(key, b"d" * size)
                live[key] = size
            except AllocationError:
                failures += 1
                if key in live:
                    store.delete(key)
                    del live[key]
        # The store remains consistent through any failures.
        for key, size in list(live.items())[::17]:
            assert store.get(key) == b"d" * size
