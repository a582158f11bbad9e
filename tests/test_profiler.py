"""Stage profiler: timestamp invariants, exact latency attribution, audit.

The load-bearing guarantee under test: for every completed operation the
per-stage (queue, service) segments fold — in pipeline order, in plain
float addition — to *bit-exactly* the measured end-to-end latency, and
the stage-entry timestamps behind them are monotone in pipeline order.
Both must survive faults, shedding, and sharding, because `repro
profile`'s exit code and CI's byte-identity checks stand on them.
"""

import json

import pytest

from repro.core.admission import OverloadPolicy
from repro.core.operations import KVOperation
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.driver import run_closed_loop
from repro.faults import FaultPlan
from repro.multi import MultiNICServer
from repro.obs import StageProfiler
from repro.obs.attribution import audit
from repro.obs.profiler import (
    STAGE_ORDER,
    merge_folded,
    merged_dict,
    op_class,
)
from repro.sim import Simulator
from repro.workloads import KeySpace, WorkloadSpec, YCSBGenerator


def _ycsb_run(seed=7, ops=600, put_ratio=0.5, corpus=300, concurrency=64,
              **store_overrides):
    sim = Simulator()
    store = KVDirectStore.create(
        memory_size=4 << 20, seed=seed, **store_overrides
    )
    keyspace = KeySpace(count=corpus, kv_size=13, seed=seed)
    for key, value in keyspace.pairs():
        store.put(key, value)
    store.reset_measurements()
    profiler = StageProfiler()
    processor = KVProcessor(sim, store, profiler=profiler)
    generator = YCSBGenerator(keyspace, WorkloadSpec(put_ratio=put_ratio))
    stats = run_closed_loop(
        processor, generator.operations(ops), concurrency=concurrency
    )
    return profiler, processor, stats


def _fold(record):
    """Fold queue + service over segments the way the invariant defines."""
    total = 0.0
    for __, queue_ns, service_ns in record.segments:
        total += queue_ns
        total += service_ns
    return total


def _assert_invariants(profiler):
    assert profiler.records, "run recorded no operations"
    for record in profiler.records:
        order = [stage for stage, __ in record.timestamps]
        assert order == [s for s in STAGE_ORDER if s in order]
        times = [at for __, at in record.timestamps]
        assert times == sorted(times)
        assert record.submitted_ns <= times[0]
        assert times[-1] <= record.completed_ns
        for __, queue_ns, service_ns in record.segments:
            assert queue_ns >= 0.0
            assert service_ns >= 0.0
        assert _fold(record) == record.latency_ns  # bit-exact, not approx


class TestSegmentInvariants:
    def test_timestamps_monotone_and_sum_exact(self):
        profiler, __, __stats = _ycsb_run()
        _assert_invariants(profiler)

    @pytest.mark.parametrize("seed", [0, 7, 13, 42])
    def test_exact_sum_across_seeds(self, seed):
        # Seed 7 at this op count historically hit a round-half-even tie
        # where no adjustment of the final span alone could reproduce the
        # latency; the ulp-nudge fallback must keep the fold exact.
        profiler, __, __stats = _ycsb_run(seed=seed, ops=1500)
        _assert_invariants(profiler)

    def test_forwarded_ops_skip_memory(self):
        profiler, __, __stats = _ycsb_run(put_ratio=0.0)
        forwarded = [r for r in profiler.records if r.forwarded]
        assert forwarded, "expected some data-forwarded GETs"
        for record in forwarded:
            assert "memory" not in dict(record.timestamps)
        profile = profiler.classes["get"]
        assert profile.forwarded == len(forwarded)

    def test_accounting_identity(self):
        profiler, __, __stats = _ycsb_run()
        for profile in profiler.classes.values():
            assert profile.submitted == (
                profile.completed + profile.shed
                + profile.expired + profile.failed
            )


class TestUnderFaults:
    def test_invariants_hold_with_fault_plan(self):
        from repro.client import KVClient

        sim = Simulator()
        store = KVDirectStore.create(
            memory_size=4 << 20, seed=3,
            fault_plan=FaultPlan(packet_loss_prob=0.05, dma_delay_prob=0.05),
        )
        for i in range(64):
            store.put(b"key%02d" % i, b"value%02d" % i)
        store.reset_measurements()
        profiler = StageProfiler()
        processor = KVProcessor(sim, store, profiler=profiler)
        client = KVClient(sim, processor, batch_size=8)
        client.run([
            KVOperation.get(b"key%02d" % (i % 64), seq=i)
            for i in range(400)
        ])
        _assert_invariants(profiler)

    def test_shed_ops_counted_not_recorded(self):
        from repro.client import KVClient

        sim = Simulator()
        store = KVDirectStore.create(
            memory_size=4 << 20, seed=0,
            overload=OverloadPolicy(queue_depth=1), max_inflight=1,
        )
        for i in range(16):
            store.put(b"key%02d" % i, b"value%02d" % i)
        store.reset_measurements()
        profiler = StageProfiler()
        processor = KVProcessor(sim, store, profiler=profiler)
        client = KVClient(sim, processor, batch_size=8)
        client.run([
            KVOperation.get(b"key%02d" % (i % 16), seq=i)
            for i in range(64)
        ])
        shed = sum(p.shed for p in profiler.classes.values())
        assert shed > 0
        # Shed submissions never complete, so no record carries them.
        completed = sum(p.completed for p in profiler.classes.values())
        assert len(profiler.records) == completed
        _assert_invariants(profiler)


class TestSharded:
    def test_invariants_hold_per_shard(self):
        sim = Simulator()
        server = MultiNICServer(sim, nic_count=4, profile=True)
        for i in range(256):
            server.put_direct(b"key%04d" % i, b"v" * 5)
        ops = [
            KVOperation.get(b"key%04d" % (i % 256), seq=i)
            for i in range(1200)
        ]
        run_closed_loop(server, ops)
        profilers = server.profilers
        assert len(profilers) == 4
        assert [p.name for p in profilers] == [f"nic{i}" for i in range(4)]
        for profiler in profilers:
            _assert_invariants(profiler)
        completed = sum(
            p.classes["get"].completed for p in profilers
        )
        assert completed == 1200

    def test_merged_exports_carry_shard_prefixes(self):
        sim = Simulator()
        server = MultiNICServer(sim, nic_count=2, profile=True)
        for i in range(64):
            server.put_direct(b"key%02d" % i, b"v" * 5)
        run_closed_loop(server, [
            KVOperation.get(b"key%02d" % (i % 64), seq=i)
            for i in range(200)
        ])
        lines = merge_folded(server.profilers)
        assert lines
        assert all(line.startswith(("nic0;", "nic1;")) for line in lines)
        merged = merged_dict(server.profilers)
        assert set(merged["shards"]) == {"nic0", "nic1"}


class TestExports:
    def test_json_deterministic_across_runs(self):
        a, __, __s = _ycsb_run(seed=11, ops=400)
        b, __, __s = _ycsb_run(seed=11, ops=400)
        assert a.to_json() == b.to_json()
        assert a.folded() == b.folded()

    def test_folded_line_format(self):
        profiler, __, __stats = _ycsb_run(ops=200)
        for line in profiler.folded():
            frame, count = line.rsplit(" ", 1)
            name, stage, kind = frame.split(";")
            assert name in ("get", "put", "delete", "atomic", "vector")
            assert stage in STAGE_ORDER
            assert kind in ("queue", "service")
            assert int(count) > 0

    def test_as_dict_roundtrips_through_json(self):
        profiler, __, __stats = _ycsb_run(ops=200)
        data = json.loads(profiler.to_json())
        assert data["schema"] == 1
        get = data["op_classes"]["get"]
        stage_total = sum(
            s["queue_ns"] + s["service_ns"] for s in get["stages"].values()
        )
        assert stage_total == pytest.approx(get["latency_total_ns"])


class TestOpClass:
    def test_buckets(self):
        from repro.core.vector import FETCH_ADD
        import struct

        assert op_class(KVOperation.get(b"k")) == "get"
        assert op_class(KVOperation.put(b"k", b"v")) == "put"
        assert op_class(KVOperation.delete(b"k")) == "delete"
        assert op_class(
            KVOperation.update(b"k", FETCH_ADD, struct.pack("<q", 1))
        ) == "atomic"


class _FakeAllocator:
    def __init__(self, allocs, frees, sync_dmas):
        self.counters = {"allocs": allocs, "frees": frees}
        self.sync_dmas = sync_dmas


class TestAudit:
    def test_passes_on_clean_inline_run(self):
        __, processor, __stats = _ycsb_run(ops=1000)
        report = audit(
            [processor.profiler], allocators=[processor.store.allocator]
        )
        assert report.passed
        by_name = {check.name: check for check in report.checks}
        assert by_name["accesses per GET"].measured == pytest.approx(
            1.0, rel=0.2
        )
        assert by_name["accesses per PUT"].measured == pytest.approx(
            2.0, rel=0.2
        )

    def test_denominator_excludes_forwarded(self):
        profiler = StageProfiler()
        profile = profiler.class_profile("get")
        profile.completed = 10
        profile.forwarded = 5
        profile.memory.table_reads = 5
        report = audit([profiler])
        by_name = {check.name: check for check in report.checks}
        assert by_name["accesses per GET"].measured == 1.0
        assert by_name["accesses per GET"].status == "PASS"

    def test_unexercised_classes_audit_na(self):
        report = audit([StageProfiler()])
        assert report.passed
        assert all(check.status == "n/a" for check in report.checks)

    def test_fails_beyond_tolerance(self):
        profiler = StageProfiler()
        profile = profiler.class_profile("get")
        profile.completed = 10
        profile.memory.table_reads = 30
        report = audit([profiler])
        by_name = {check.name: check for check in report.checks}
        assert by_name["accesses per GET"].status == "FAIL"
        assert not report.passed
        assert report.verdict == "FAIL"

    def test_slab_upper_bound(self):
        profiler = StageProfiler()
        ok = audit([profiler], allocators=[_FakeAllocator(100, 100, 5)])
        bad = audit([profiler], allocators=[_FakeAllocator(100, 100, 30)])
        slab = [c for c in ok.checks if c.kind == "upper"][0]
        assert slab.measured == 0.025
        assert slab.status == "PASS"
        slab = [c for c in bad.checks if c.kind == "upper"][0]
        assert slab.status == "FAIL"

    def test_forwarded_share_reported(self):
        profiler, __, __stats = _ycsb_run(ops=400)
        report = audit([profiler])
        assert 0.0 <= report.info["forwarded_share"] < 1.0
