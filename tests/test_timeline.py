"""Tests for the simulated-time telemetry timeline + flight recorder.

Covers the :class:`~repro.obs.timeline.TimelineSampler` contract
(windowed deltas, byte-identical JSONL, pure-observer default-off), the
:class:`~repro.obs.timeline.FlightRecorder` anomaly dumps, the cluster
failover timeline, the Chrome trace export, and the
``tools/check_timeline.py`` linter.
"""

import importlib.util
import json
import pathlib

import pytest

from repro.client.router import ClusterRouter
from repro.core.config import KVDirectConfig
from repro.core.operations import KVOperation
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.driver import run_closed_loop
from repro.errors import ConfigurationError
from repro.multi import Cluster, MultiNICServer
from repro.obs import FlightRecorder, TimelineSampler, Tracer
from repro.obs.timeline import sparkline
from repro.sim import Simulator
from repro.workloads import KeySpace, WorkloadSpec, YCSBGenerator

CORPUS = 256
OPS = 1200
WINDOW_NS = 2000.0


def _single_run(timeline=None, ops=OPS, seed=7):
    """One seeded single-shard closed-loop run."""
    sim = Simulator()
    store = KVDirectStore.create(memory_size=4 << 20, seed=seed)
    keyspace = KeySpace(count=CORPUS, kv_size=13, seed=seed)
    for key, value in keyspace.pairs():
        store.put(key, value)
    store.reset_measurements()
    processor = KVProcessor(sim, store)
    generator = YCSBGenerator(
        keyspace, WorkloadSpec(put_ratio=0.5, seed=seed)
    )
    if timeline is not None:
        timeline.attach_processor("nic0", processor)
    stats = run_closed_loop(
        processor, generator.operations(ops), timeline=timeline
    )
    return processor, stats


def _sharded_run(timeline=None, shards=4, ops=OPS, seed=7):
    """One seeded multi-NIC closed-loop run."""
    sim = Simulator()
    server = MultiNICServer(
        sim, nic_count=shards,
        config=KVDirectConfig(memory_size=4 << 20, seed=seed),
    )
    keyspace = KeySpace(count=CORPUS, kv_size=13, seed=seed)
    for key, value in keyspace.pairs():
        server.put_direct(key, value)
    for stack in server.stacks:
        stack.store.reset_measurements()
    generator = YCSBGenerator(
        keyspace, WorkloadSpec(put_ratio=0.5, seed=seed)
    )
    if timeline is not None:
        server.attach_timeline(timeline)
    stats = run_closed_loop(
        server, list(generator.operations(ops)), timeline=timeline
    )
    return server, stats


def _cluster_kill_run(timeline=None, ops=900, seed=0):
    """A replicated cluster run that kills the primary mid-run."""
    sim = Simulator()
    cluster = Cluster(
        sim, num_nodes=3, config=KVDirectConfig(memory_size=4 << 20),
    )
    keys = [b"key%06d" % i for i in range(CORPUS)]
    for key in keys:
        cluster.preload(key, b"v" * 13)
    workload = [
        KVOperation.put(key, b"w" * 13, seq=i) if i % 3 == 0
        else KVOperation.get(key, seq=i)
        for i, key in enumerate(keys[i % CORPUS] for i in range(ops))
    ]
    target = cluster.map.primary(cluster.map.slot_of(workload[0].key))
    cluster.kill_after_accepts(target, max(1, ops // 9))
    if timeline is not None:
        cluster.attach_timeline(timeline)
        timeline.start()
    stats = ClusterRouter(sim, cluster).run(workload)
    if timeline is not None:
        timeline.finish()
    return cluster, stats


class TestConfiguration:
    def test_window_must_be_positive(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ConfigurationError, match="window"):
                TimelineSampler(window_ns=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_window_must_be_finite(self, bad):
        """Regression: NaN passed the ``<= 0`` check, and the first tick's
        NaN boundary ended the run ("ran out of events ... deadlock?")."""
        with pytest.raises(ConfigurationError, match="window"):
            TimelineSampler(window_ns=bad)

    def test_start_requires_simulator(self):
        """A sampler runs on the simulator of the first source attached and
        refuses a processor or a cluster on another one (which would close
        its windows on the wrong clock)."""
        sampler = TimelineSampler()
        assert sampler.sim is None
        first, second = Simulator(), Simulator()
        config = KVDirectConfig(memory_size=1 << 20)
        sampler.attach_processor(
            "nic0", KVProcessor(first, KVDirectStore(config))
        )
        assert sampler.sim is first
        stranger = KVProcessor(second, KVDirectStore(config))
        with pytest.raises(ConfigurationError, match="another simulator"):
            sampler.attach_processor("nic1", stranger)
        with pytest.raises(ConfigurationError, match="another simulator"):
            sampler.attach_cluster(Cluster(second, 2, config=config))
        assert sampler.shard_names == ["nic0"]
        sampler.start()
        assert sampler.sim is first

    def test_start_requires_a_source(self):
        sampler = TimelineSampler()
        with pytest.raises(ConfigurationError, match="source"):
            sampler.start()

    def test_attach_after_start_rejected(self):
        sim = Simulator()
        store = KVDirectStore.create(memory_size=4 << 20, seed=1)
        processor = KVProcessor(sim, store)
        sampler = TimelineSampler()
        sampler.attach_processor("nic0", processor)
        sampler.start()
        with pytest.raises(ConfigurationError, match="after start"):
            sampler.attach_processor("nic1", processor)


class TestWindows:
    def test_deltas_sum_to_run_totals(self):
        sampler = TimelineSampler(window_ns=WINDOW_NS)
        processor, stats = _single_run(sampler)
        rows = sampler._rows
        assert rows, "no windows closed"
        assert all(r["shard"] == "nic0" for r in rows)
        assert sum(r["completed"] for r in rows) == processor.completed
        assert sum(r["completed"] for r in rows) == stats["operations"]
        mem = processor.engine.counters
        assert sum(r["cache_hits"] for r in rows) == mem.get("cache_hits")
        assert sum(r["cache_misses"] for r in rows) == mem.get(
            "cache_misses"
        )

    def test_windows_are_contiguous_and_final_is_partial(self):
        sampler = TimelineSampler(window_ns=WINDOW_NS)
        processor, __ = _single_run(sampler)
        rows = sampler._rows
        for prev, cur in zip(rows, rows[1:]):
            assert cur["start_ns"] == prev["end_ns"]
            assert cur["window"] == prev["window"] + 1
        # finish() closes the last window at the run's true end, not at
        # the next boundary.
        assert rows[-1]["end_ns"] == processor.sim.now
        assert rows[-1]["end_ns"] - rows[-1]["start_ns"] <= WINDOW_NS

    def test_percentiles_none_only_when_window_empty(self):
        sampler = TimelineSampler(window_ns=WINDOW_NS)
        _single_run(sampler)
        for row in sampler._rows:
            if row["completed"] == 0:
                assert row["latency_p50_ns"] is None
            else:
                assert row["latency_p50_ns"] is not None
                assert (
                    row["latency_p50_ns"]
                    <= row["latency_p95_ns"]
                    <= row["latency_p99_ns"]
                )

    def test_cache_hit_rate_null_without_accesses(self):
        sampler = TimelineSampler(window_ns=WINDOW_NS)
        _single_run(sampler)
        for row in sampler._rows:
            accesses = row["cache_hits"] + row["cache_misses"]
            if accesses == 0:
                assert row["cache_hit_rate"] is None
            else:
                assert row["cache_hit_rate"] == pytest.approx(
                    row["cache_hits"] / accesses
                )

    def test_throughput_matches_completed_over_elapsed(self):
        sampler = TimelineSampler(window_ns=WINDOW_NS)
        _single_run(sampler)
        for row in sampler._rows:
            elapsed = row["end_ns"] - row["start_ns"]
            expected = row["completed"] / elapsed * 1e3 if elapsed else 0.0
            assert row["throughput_mops"] == pytest.approx(expected)


class TestDeterminism:
    def test_single_shard_byte_identical(self):
        first = TimelineSampler(window_ns=WINDOW_NS)
        second = TimelineSampler(window_ns=WINDOW_NS)
        _single_run(first)
        _single_run(second)
        assert first.dumps() == second.dumps()
        assert first.digest() == second.digest()
        assert first.windows > 0

    def test_four_shards_byte_identical_with_aggregate(self):
        first = TimelineSampler(window_ns=WINDOW_NS)
        second = TimelineSampler(window_ns=WINDOW_NS)
        _sharded_run(first)
        _sharded_run(second)
        assert first.dumps() == second.dumps()
        shards = {row["shard"] for row in first._rows}
        assert shards == {"nic0", "nic1", "nic2", "nic3", "all"}
        assert first.shard_names == ["nic0", "nic1", "nic2", "nic3"]

    def test_aggregate_row_sums_shards(self):
        sampler = TimelineSampler(window_ns=WINDOW_NS)
        _sharded_run(sampler)
        by_window = {}
        for row in sampler._rows:
            by_window.setdefault(row["window"], []).append(row)
        for rows in by_window.values():
            agg = [r for r in rows if r["shard"] == "all"]
            shards = [r for r in rows if r["shard"].startswith("nic")]
            assert len(agg) == 1
            assert agg[0]["completed"] == sum(
                r["completed"] for r in shards
            )

    def test_single_shard_has_no_aggregate_row(self):
        sampler = TimelineSampler(window_ns=WINDOW_NS)
        _single_run(sampler)
        assert all(r["shard"] == "nic0" for r in sampler._rows)

    def test_lines_are_canonical_json(self):
        sampler = TimelineSampler(window_ns=WINDOW_NS)
        _single_run(sampler)
        for line in sampler.lines():
            assert line == json.dumps(json.loads(line), sort_keys=True)


class TestDefaultOff:
    def test_stats_timeline_fields_none_without_sampler(self):
        processor, stats = _single_run(timeline=None, ops=300)
        assert stats["timeline_windows"] is None
        assert stats["timeline_digest"] is None
        assert processor.window_latencies is None

    def test_stats_timeline_fields_set_with_sampler(self):
        sampler = TimelineSampler(window_ns=WINDOW_NS)
        __, stats = _single_run(sampler, ops=300)
        assert stats["timeline_windows"] == float(sampler.windows)
        assert stats["timeline_digest"] == sampler.digest()
        assert len(stats["timeline_digest"]) == 64

    def test_sampler_is_observationally_transparent(self):
        __, plain = _single_run(timeline=None, ops=600)
        __, sampled = _single_run(
            TimelineSampler(window_ns=WINDOW_NS), ops=600
        )
        for key in plain:
            if key.startswith(("wall_clock", "sim_ops_per_wall",
                               "timeline_")):
                continue
            assert sampled[key] == plain[key], key


class TestFlightRecorder:
    def test_rings_hold_only_the_most_recent(self, monkeypatch):
        monkeypatch.setattr("repro.obs.timeline.RECORDER_SPANS", 4)
        monkeypatch.setattr("repro.obs.timeline.RECORDER_WINDOWS", 2)
        recorder = FlightRecorder()
        tracer = Tracer(sample_rate=1.0)
        recorder.attach(tracer)
        for i in range(10):
            tracer.emit(i, "ingress")
            recorder.record_window({"window": i})
        assert [span.seq for span in recorder.spans] == [6, 7, 8, 9]
        assert [w["window"] for w in recorder.windows] == [8, 9]

    def test_trigger_snapshots_both_rings(self):
        recorder = FlightRecorder()
        tracer = Tracer(sample_rate=1.0)
        recorder.attach(tracer)
        tracer.emit(0, "ingress")
        recorder.record_window({"window": 0, "completed": 5})
        dump = recorder.trigger("deadline_storm", 1234.0)
        assert dump["reason"] == "deadline_storm"
        assert dump["at_ns"] == 1234.0
        assert len(dump["spans"]) == 1
        assert dump["windows"] == [{"window": 0, "completed": 5}]
        data = json.loads(recorder.dump_json())
        assert [d["reason"] for d in data["dumps"]] == ["deadline_storm"]

    def test_node_kill_triggers_a_dump(self):
        recorder = FlightRecorder()
        sampler = TimelineSampler(window_ns=WINDOW_NS, recorder=recorder)
        _cluster_kill_run(sampler)
        reasons = [d["reason"] for d in recorder.dumps]
        assert "node_kill" in reasons
        kill = next(d for d in recorder.dumps if d["reason"] == "node_kill")
        assert kill["windows"], "dump carries the recent metric windows"

    def test_no_dump_without_anomaly(self):
        recorder = FlightRecorder()
        sampler = TimelineSampler(window_ns=WINDOW_NS, recorder=recorder)
        _single_run(sampler, ops=300)
        assert recorder.dumps == []
        assert len(recorder.windows) > 0


class TestClusterTimeline:
    def test_failover_window_visible_and_deterministic(self):
        first = TimelineSampler(window_ns=WINDOW_NS)
        second = TimelineSampler(window_ns=WINDOW_NS)
        cluster, stats = _cluster_kill_run(first)
        _cluster_kill_run(second)
        assert first.dumps() == second.dumps()
        assert cluster.counters.get("failovers") == 1
        rows = first._rows
        cluster_rows = [r for r in rows if r["shard"] == "cluster"]
        assert cluster_rows[0]["epoch"] == 0
        assert cluster_rows[-1]["epoch"] == 1
        assert min(r["alive_nodes"] for r in cluster_rows) == 2
        assert sum(r["failovers"] for r in cluster_rows) == 1
        assert sum(r["migrated_keys"] for r in cluster_rows) > 0
        # Zero lost acknowledged writes despite the kill.
        assert stats["failed"] == 0

    def test_node_rows_present_alongside_cluster_row(self):
        sampler = TimelineSampler(window_ns=WINDOW_NS)
        _cluster_kill_run(sampler)
        shards = {r["shard"] for r in sampler._rows}
        assert "cluster" in shards
        assert {"node0", "node1", "node2"} <= shards


class TestChromeExport:
    def _traced_single(self):
        tracer = Tracer(sample_rate=1.0, seed=3)
        sim = Simulator(tracer=tracer)
        store = KVDirectStore.create(memory_size=4 << 20, seed=3)
        keyspace = KeySpace(count=64, kv_size=13, seed=3)
        for key, value in keyspace.pairs():
            store.put(key, value)
        store.reset_measurements()
        processor = KVProcessor(sim, store)
        generator = YCSBGenerator(
            keyspace, WorkloadSpec(put_ratio=0.5, seed=3)
        )
        run_closed_loop(processor, generator.operations(200))
        return tracer

    def test_export_is_valid_trace_event_json(self):
        tracer = self._traced_single()
        tracer.annotate("cluster.failover_start", "node0")
        data = json.loads(tracer.export_chrome(shard_names=["nic0"]))
        events = data["traceEvents"]
        assert events
        metas = [e for e in events if e["ph"] == "M"]
        instants = [e for e in events if e["ph"] == "i"]
        assert metas and instants
        assert any(
            e["name"] == "process_name"
            and e["args"]["name"] == "nic0" for e in metas
        )
        assert any(e.get("cat") == "annotation" for e in instants)
        for event in instants:
            assert event["ts"] >= 0.0

    def test_export_is_deterministic(self):
        assert (
            self._traced_single().export_chrome()
            == self._traced_single().export_chrome()
        )


def _load_check_timeline():
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "check_timeline", root / "tools" / "check_timeline.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _timeline_file(tmp_path, sampler, name="t.jsonl"):
    path = tmp_path / name
    path.write_text(
        sampler.dumps()
        + f"# windows={sampler.windows} digest={sampler.digest()}\n"
    )
    return path


class TestCheckTimelineTool:
    def test_clean_file_lints_ok(self, tmp_path):
        check = _load_check_timeline()
        sampler = TimelineSampler(window_ns=WINDOW_NS)
        _single_run(sampler, ops=400)
        assert check.lint(_timeline_file(tmp_path, sampler)) == []

    def test_sharded_and_cluster_files_lint_ok(self, tmp_path):
        check = _load_check_timeline()
        sharded = TimelineSampler(window_ns=WINDOW_NS)
        _sharded_run(sharded, ops=400)
        clustered = TimelineSampler(window_ns=WINDOW_NS)
        _cluster_kill_run(clustered)
        assert check.lint(_timeline_file(tmp_path, sharded, "s.jsonl")) == []
        assert check.lint(
            _timeline_file(tmp_path, clustered, "c.jsonl")
        ) == []

    def test_non_canonical_line_flagged(self, tmp_path):
        check = _load_check_timeline()
        sampler = TimelineSampler(window_ns=WINDOW_NS)
        _single_run(sampler, ops=400)
        path = _timeline_file(tmp_path, sampler)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('":', '" :', 1)
        path.write_text("\n".join(lines) + "\n")
        problems = check.lint(path)
        assert any("canonical" in p for p in problems)

    def test_bad_digest_flagged(self, tmp_path):
        check = _load_check_timeline()
        sampler = TimelineSampler(window_ns=WINDOW_NS)
        _single_run(sampler, ops=400)
        path = tmp_path / "t.jsonl"
        path.write_text(
            sampler.dumps() + f"# windows={sampler.windows} digest={'0' * 64}\n"
        )
        problems = check.lint(path)
        assert any("digest" in p for p in problems)

    def test_trailer_is_optional_but_must_be_well_formed(self, tmp_path):
        check = _load_check_timeline()
        sampler = TimelineSampler(window_ns=WINDOW_NS)
        _single_run(sampler, ops=400)
        bare = tmp_path / "bare.jsonl"
        bare.write_text(sampler.dumps())
        assert check.lint(bare) == []
        malformed = tmp_path / "malformed.jsonl"
        malformed.write_text(sampler.dumps() + "# windows=zero digest=!\n")
        assert any("trailer" in p for p in check.lint(malformed))

    def test_chrome_validation(self, tmp_path):
        check = _load_check_timeline()
        tracer = Tracer(sample_rate=1.0, seed=3)
        sim = Simulator(tracer=tracer)
        store = KVDirectStore.create(memory_size=4 << 20, seed=3)
        store.fill_to_utilization(0.2, kv_size=13)
        store.reset_measurements()
        processor = KVProcessor(sim, store)
        keyspace = KeySpace(count=64, kv_size=13, seed=3)
        for key, value in keyspace.pairs():
            store.put(key, value)
        generator = YCSBGenerator(
            keyspace, WorkloadSpec(put_ratio=0.5, seed=3)
        )
        run_closed_loop(processor, generator.operations(120))
        good = tmp_path / "trace.json"
        good.write_text(tracer.export_chrome() + "\n")
        assert check.lint_chrome(good) == []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": []}))
        assert check.lint_chrome(bad)


class TestSparkline:
    def test_empty_and_flat_series(self):
        assert sparkline([]) == ""
        assert sparkline([3.0, 3.0, 3.0]) == "▁▁▁"

    def test_none_renders_as_lowest_bar(self):
        text = sparkline([None, 1.0, 2.0])
        assert text[0] == "▁"
        assert len(text) == 3

    def test_range_maps_to_glyph_extremes(self):
        text = sparkline([0.0, 1.0, 2.0, 3.0])
        assert text[0] == "▁"
        assert text[-1] == "█"
