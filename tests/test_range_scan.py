"""Ordered RANGE/SCAN end-to-end: index, wire format, routing, OoO.

Covers the pluggable-index refactor: the :class:`OrderedIndex` sidecar's
access model, the RANGE/SCAN wire encoding (count field limits, reserved
opcodes), the scan payload codec and its cross-shard k-way merge, the
reservation station's scan guard, and the deterministic sharded/cluster
fan-out paths.
"""

import pytest

from repro.client.router import ClusterRouter, ShardRouter
from repro.core.config import KVDirectConfig
from repro.core.operations import (
    MAX_SCAN_COUNT,
    KVOperation,
    OpType,
    decode_scan_payload,
    encode_scan_payload,
    merge_scan_payloads,
)
from repro.core.store import KVDirectStore
from repro.driver import run_closed_loop
from repro.errors import ProtocolError, UnsupportedOperation
from repro.multi import MultiNICServer
from repro.network.batching import BatchEncoder, decode_batch, encode_batch
from repro.sim import Simulator
from tests.ref_generators import fan_out
from tests.waiting import all_of, idle, performed


def _ordered_store(**overrides):
    return KVDirectStore.create(
        memory_size=4 << 20, ordered_index=True, **overrides
    )


def _fill(store, n=64, prefix=b"key"):
    pairs = []
    for i in range(n):
        key = prefix + b"%05d" % i
        value = b"v%04d" % i
        store.put(key, value)
        pairs.append((key, value))
    return pairs


class TestOrderedIndex:
    def test_range_returns_sorted_slice(self):
        store = _ordered_store()
        pairs = _fill(store)
        got = store.range_scan(b"key00010", 5)
        assert got == pairs[10:15]

    def test_scan_keys_only(self):
        store = _ordered_store()
        pairs = _fill(store)
        got = store.range_scan(b"key00000", 3, with_values=False)
        assert got == [(key, None) for key, __ in pairs[:3]]

    def test_start_between_keys(self):
        store = _ordered_store()
        pairs = _fill(store)
        got = store.range_scan(b"key00010x", 2)
        assert got == pairs[11:13]

    def test_start_before_first_key(self):
        store = _ordered_store()
        pairs = _fill(store)
        assert store.range_scan(b"a", 2) == pairs[:2]

    def test_range_past_end_truncates(self):
        store = _ordered_store()
        pairs = _fill(store, n=8)
        assert store.range_scan(b"key00006", 100) == pairs[6:]

    def test_delete_maintains_order(self):
        store = _ordered_store()
        pairs = _fill(store)
        store.delete(pairs[11][0])
        got = store.range_scan(b"key00010", 3)
        assert got == [pairs[10], pairs[12], pairs[13]]

    def test_overwrite_does_not_duplicate(self):
        store = _ordered_store()
        _fill(store, n=16)
        store.put(b"key00005", b"other")
        got = store.range_scan(b"key00005", 2)
        assert got == [(b"key00005", b"other"), (b"key00006", b"v0006")]

    def test_leaf_split_and_drain(self):
        """Insertions past a leaf's capacity split it; deleting every key
        frees the leaves again (slab allocs returned)."""
        store = _ordered_store()
        pairs = _fill(store, n=100)
        assert len(store.ordered._leaves) > 1
        assert store.range_scan(b"key00000", 100) == pairs
        for key, __ in pairs:
            assert store.delete(key)
        assert store.ordered._leaves == []
        assert store.ordered.count == 0

    def test_scan_costs_accesses(self):
        """Scans pay modeled memory accesses (leaf reads + value probes),
        visible in dma_stats like GET/PUT costs."""
        store = _ordered_store()
        _fill(store)
        store.reset_measurements()
        store.range_scan(b"key00000", 32)
        stats = store.dma_stats()
        assert stats["scan_mean_accesses"] > 1.0
        assert stats["memory_accesses"] > 0

    def test_disabled_store_raises_unsupported(self):
        store = KVDirectStore.create(memory_size=4 << 20)
        _fill(store, n=4)
        with pytest.raises(UnsupportedOperation):
            store.range_scan(b"key00000", 2)

    def test_execute_wraps_payload(self):
        store = _ordered_store()
        pairs = _fill(store, n=8)
        result = store.execute(KVOperation.range(b"key00002", 3, seq=7))
        assert result.ok and result.seq == 7
        assert decode_scan_payload(result.value, True) == pairs[2:5]
        result = store.execute(KVOperation.scan(b"key00002", 3, seq=8))
        assert decode_scan_payload(result.value, False) == [
            (key, None) for key, __ in pairs[2:5]
        ]


class TestScanPayloadCodec:
    def test_roundtrip_with_values(self):
        entries = [(b"a", b"1"), (b"bb", b"x" * 300), (b"c" * 255, b"")]
        payload = encode_scan_payload(entries, True)
        assert decode_scan_payload(payload, True) == entries

    def test_roundtrip_keys_only(self):
        entries = [(b"a", None), (b"b", None)]
        payload = encode_scan_payload(entries, False)
        assert decode_scan_payload(payload, False) == entries

    def test_merge_sorts_and_truncates(self):
        shards = [
            encode_scan_payload([(b"a", b"1"), (b"d", b"4")], True),
            encode_scan_payload([(b"b", b"2"), (b"e", b"5")], True),
            encode_scan_payload([(b"c", b"3")], True),
        ]
        merged = merge_scan_payloads(shards, 4, with_values=True)
        assert decode_scan_payload(merged, True) == [
            (b"a", b"1"), (b"b", b"2"), (b"c", b"3"), (b"d", b"4")
        ]

    def test_merge_of_empty_partials(self):
        empty = encode_scan_payload([], True)
        assert decode_scan_payload(
            merge_scan_payloads([empty, empty], 5, with_values=True), True
        ) == []

    def test_truncated_payload_rejected(self):
        payload = encode_scan_payload([(b"key", b"value")], True)
        with pytest.raises(ProtocolError):
            decode_scan_payload(payload[:-1], True)


class TestRangeWireFormat:
    def test_range_scan_roundtrip(self):
        ops = [
            KVOperation.range(b"start", 7, seq=1),
            KVOperation.scan(b"start", 65535, seq=2),
            KVOperation.get(b"start", seq=3),
        ]
        assert decode_batch(encode_batch(ops)) == ops

    def test_range_max_key_roundtrip(self):
        ops = [KVOperation.range(b"k" * 255, MAX_SCAN_COUNT)]
        assert decode_batch(encode_batch(ops)) == ops

    def test_count_limits_enforced_at_construction(self):
        with pytest.raises(ValueError, match="count"):
            KVOperation.range(b"k", 0)
        with pytest.raises(ValueError, match="count"):
            KVOperation.range(b"k", 65536)
        with pytest.raises(ValueError, match="count"):
            KVOperation(OpType.GET, b"k", count=3)

    def test_forged_count_rejected_by_encoder(self):
        """The encoder guards the u16 count field even when dataclass
        validation was bypassed."""
        op = object.__new__(KVOperation)
        for name, val in (
            ("op", OpType.RANGE), ("key", b"k"), ("value", None),
            ("func_id", 0), ("param", b""), ("count", 0x10000),
            ("seq", 0), ("epoch", -1),
        ):
            object.__setattr__(op, name, val)
        encoder = BatchEncoder()
        with pytest.raises(ProtocolError, match="count"):
            encoder.add(op)
        assert decode_batch(encoder.finish()) == []

    def test_zero_count_on_wire_rejected(self):
        """A zero scan count can only come from a corrupt packet."""
        payload = bytearray(encode_batch([KVOperation.range(b"kk", 1)]))
        # Batch header u16 + lead byte + klen byte, then the count u16.
        offset = 2 + 1 + 1
        assert payload[offset:offset + 2] == b"\x01\x00"
        payload[offset:offset + 2] = b"\x00\x00"
        with pytest.raises(ProtocolError, match="zero scan count"):
            decode_batch(bytes(payload))

    @pytest.mark.parametrize("opcode", range(10, 16))
    def test_reserved_opcodes_rejected(self, opcode):
        """Opcodes 10-15 are unassigned: the decoder must raise a typed
        ProtocolError, not misparse or crash."""
        packet = b"\x01\x00" + bytes([opcode]) + b"\x01k"
        with pytest.raises(ProtocolError, match="opcode"):
            decode_batch(packet)

    @pytest.mark.parametrize("opcode", (8, 9))
    def test_scan_opcodes_now_assigned(self, opcode):
        """Opcodes 8 (RANGE) and 9 (SCAN) decode with their count field."""
        packet = b"\x01\x00" + bytes([opcode]) + b"\x01" + b"\x02\x00" + b"k"
        (op,) = decode_batch(packet)
        assert op.op is (OpType.RANGE if opcode == 8 else OpType.SCAN)
        assert op.key == b"k" and op.count == 2


class TestOoOScanGuard:
    def _processor(self):
        from repro.core.processor import KVProcessor

        sim = Simulator()
        store = _ordered_store()
        _fill(store, n=32)
        return sim, KVProcessor(sim, store)

    def test_scan_between_same_key_writes(self):
        """A RANGE queued behind a PUT on the same key must execute
        against memory, not be resolved by data forwarding (its result
        is a multi-entry payload, not the forwarded value)."""
        sim, processor = self._processor()
        key = b"key00004"
        events = [
            processor.submit(KVOperation.put(key, b"fresh", seq=0)),
            processor.submit(KVOperation.range(key, 2, seq=1)),
            processor.submit(KVOperation.get(key, seq=2)),
        ]
        sim.run(all_of(sim, events))
        entries = decode_scan_payload(events[1].value.value, True)
        assert entries[0] == (key, b"fresh")
        assert events[2].value.value == b"fresh"

    def test_scan_burst_completes(self):
        sim, processor = self._processor()
        events = [
            processor.submit(KVOperation.scan(b"key%05d" % (i % 8), 4,
                                              seq=i))
            for i in range(64)
        ]
        sim.run(all_of(sim, events))
        assert all(event.ok and event.value.ok for event in events)


def _sharded_scan_run(nics=4, seed=3):
    sim = Simulator()
    server = MultiNICServer(
        sim,
        nic_count=nics,
        config=KVDirectConfig(memory_size=4 << 20, seed=seed,
                              ordered_index=True),
    )
    pairs = []
    for i in range(128):
        key, value = b"key%05d" % i, b"v%04d" % i
        server.put_direct(key, value)
        pairs.append((key, value))
    ops = [
        KVOperation.get(pairs[i][0], seq=i) for i in range(0, 40, 2)
    ] + [
        KVOperation.range(b"key%05d" % (i * 3), 6, seq=100 + i)
        for i in range(10)
    ]
    scan_results = {}
    stats = run_closed_loop(server, ops, scan_results=scan_results)
    return pairs, ops, scan_results, stats


class TestShardedScans:
    def test_fanout_merges_correct_slices(self):
        pairs, __, scan_results, __stats = _sharded_scan_run()
        assert len(scan_results) == 10
        for i in range(10):
            entries = decode_scan_payload(scan_results[100 + i], True)
            assert entries == pairs[i * 3:i * 3 + 6]

    def test_merge_is_seed_stable(self):
        """Regression: merged sharded scan results are byte-identical
        across runs (partials merged in seq order, shards in shard-index
        order - never in simulated completion order)."""
        __, __, first, __s = _sharded_scan_run()
        __, __, second, __s2 = _sharded_scan_run()
        assert first == second

    def test_single_shard_equals_multi_shard(self):
        __, __, one, __s = _sharded_scan_run(nics=1)
        __, __, four, __s2 = _sharded_scan_run(nics=4)
        assert one == four

    @staticmethod
    def _loaded_server(nics):
        sim = Simulator()
        server = MultiNICServer(
            sim, nic_count=nics,
            config=KVDirectConfig(memory_size=4 << 20, ordered_index=True),
        )
        pairs = [(b"key%05d" % i, b"v%04d" % i) for i in range(64)]
        for key, value in pairs:
            server.put_direct(key, value)
        return sim, server, pairs

    @pytest.mark.parametrize("build", [KVOperation.range, KVOperation.scan])
    def test_direct_submit_refuses_a_scan_on_more_than_one_nic(self, build):
        """Regression: ``server.submit`` sent a RANGE or SCAN to the NIC
        owning its start key alone, and that shard's entries (global ranks
        0, 1, 5, 11, ... on 4 NICs) came back as the whole result."""
        sim, server, __ = self._loaded_server(nics=4)
        with pytest.raises(UnsupportedOperation, match="run_closed_loop"):
            server.submit(build(b"key00000", 10))
        assert idle(sim)  # no NIC saw the op
        assert not any(p.counters["admitted"] for p in server.processors)

    def test_direct_submit_of_a_scan_on_one_nic_is_the_whole_scan(self):
        sim, server, pairs = self._loaded_server(nics=1)
        response = server.submit(KVOperation.range(b"key00000", 10))
        result = sim.run(response)
        assert decode_scan_payload(result.value, True) == pairs[:10]


class TestShardRouterScans:
    def _run(self, shards):
        sim = Simulator()
        server = MultiNICServer(
            sim,
            nic_count=shards,
            config=KVDirectConfig(memory_size=4 << 20,
                                  ordered_index=True),
        )
        pairs = []
        for i in range(96):
            key, value = b"key%05d" % i, b"v%04d" % i
            server.put_direct(key, value)
            pairs.append((key, value))
        ops = [
            KVOperation.range(b"key%05d" % (i * 7), 5, seq=i)
            for i in range(12)
        ]
        router = server.router(batch_size=4, checksum=True)
        router.run(ops)
        return pairs, router.scan_results(ops)

    def test_fan_out_replicates_scans(self):
        parts = fan_out([
            KVOperation.get(b"point", seq=0),
            KVOperation.range(b"start", 4, seq=1),
        ], 3)
        scans_per_shard = [
            sum(1 for op in part if op.carries_count) for part in parts
        ]
        assert scans_per_shard == [1, 1, 1]
        assert sum(len(part) for part in parts) == 4

    def test_client_merge_matches_store(self):
        pairs, merged = self._run(shards=3)
        assert len(merged) == 12
        for i in range(12):
            entries = decode_scan_payload(merged[i], True)
            assert entries == pairs[i * 7:i * 7 + 5]

    def test_client_merge_shard_count_invariant(self):
        __, one = self._run(shards=1)
        __, three = self._run(shards=3)
        assert one == three


class TestClusterScans:
    def test_perform_merges_scans_across_primaries(self):
        from repro.multi import Cluster

        sim = Simulator()
        cluster = Cluster(
            sim, num_nodes=3, num_slots=8,
            config=KVDirectConfig(memory_size=4 << 20, seed=1,
                                  ordered_index=True),
        )
        pairs = []
        for i in range(64):
            key, value = b"key%05d" % i, b"v%04d" % i
            cluster.preload(key, value)
            pairs.append((key, value))
        router = ClusterRouter(sim, cluster, seed=1)
        results = {}

        def driver():
            for i in range(6):
                op = KVOperation.range(b"key%05d" % (i * 9), 4,
                                       seq=200 + i)
                results[i] = yield performed(router, op)

        sim.run(sim.process(driver()))
        for i in range(6):
            assert results[i].ok
            entries = decode_scan_payload(results[i].value, True)
            assert entries == pairs[i * 9:i * 9 + 4]
