"""Benchmark history: snapshot schema, validation, direction-aware diff."""

import dataclasses
import importlib.util
import json
import pathlib

import pytest

from repro.obs.bench_history import (
    DEFAULT_TOLERANCE,
    BenchSnapshot,
    config_digest,
    diff,
    git_rev,
    load_snapshot,
    snapshot_from_run,
    validate,
)


def _snapshot(**overrides):
    base = dict(
        name="small-ycsb",
        operations=2000,
        throughput_mops=120.0,
        latency_p50_ns=1100.0,
        latency_p95_ns=1700.0,
        latency_p99_ns=2300.0,
        dma_per_op=0.86,
        cache_hit_rate=0.7,
        git_rev="abc1234",
        config_digest="0123456789abcdef",
    )
    base.update(overrides)
    return BenchSnapshot(**base)


class TestSnapshot:
    def test_json_is_sorted_and_newline_terminated(self):
        text = _snapshot().to_json()
        assert text.endswith("\n")
        data = json.loads(text)
        assert list(data) == sorted(data)
        assert data["schema"] == 3

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_small-ycsb.json"
        snapshot = _snapshot(extra={"seed": 7})
        snapshot.save(str(path))
        loaded = load_snapshot(str(path))
        assert loaded == snapshot

    def test_load_rejects_invalid(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"schema": 99}))
        with pytest.raises(ValueError, match="schema must be 3"):
            load_snapshot(str(path))

    @pytest.mark.parametrize("old", [1, 2])
    def test_older_schemas_no_longer_load(self, tmp_path, old):
        path = tmp_path / "BENCH_old.json"
        data = json.loads(_snapshot().to_json())
        data["schema"] = old
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="schema must be 3"):
            load_snapshot(str(path))

    def test_git_rev_is_rev_or_unknown(self):
        rev = git_rev()
        assert isinstance(rev, str) and rev
        assert rev == "unknown" or all(
            c in "0123456789abcdef" for c in rev
        )


class TestValidate:
    def test_clean_snapshot_validates(self):
        assert validate(json.loads(_snapshot().to_json())) == []

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_numbers_are_refused(self, number):
        """Regression: only ``tools/check_bench.py`` refused them, so
        ``repro bench diff`` read a NaN snapshot as a PASS."""
        text = _snapshot().to_json().replace("120.0", number)
        assert validate(json.loads(text)) == [
            "field 'throughput_mops' is non-finite"
        ]

    def test_non_object_rejected(self):
        assert validate([]) == ["snapshot must be a JSON object"]

    def test_missing_and_mistyped_fields(self):
        data = json.loads(_snapshot().to_json())
        del data["latency_p95_ns"]
        data["operations"] = "many"
        data["throughput_mops"] = True  # bool is not a number here
        problems = validate(data)
        assert any("latency_p95_ns" in p for p in problems)
        assert any("operations" in p for p in problems)
        assert any("throughput_mops" in p for p in problems)

    def test_null_latency_allowed(self):
        data = json.loads(_snapshot(latency_p99_ns=None).to_json())
        assert validate(data) == []

    def test_wall_and_timeline_fields_are_required_but_nullable(self):
        data = json.loads(_snapshot().to_json())
        assert data["wall_clock_s"] is None
        assert data["timeline_digest"] is None
        for key in ("wall_clock_s", "sim_ops_per_wall_s",
                    "timeline_windows", "timeline_digest"):
            del data[key]
        problems = validate(data)
        for key in ("wall_clock_s", "sim_ops_per_wall_s",
                    "timeline_windows", "timeline_digest"):
            assert any(key in p for p in problems)

    def test_timeline_digest_must_be_string_or_null(self):
        data = json.loads(_snapshot().to_json())
        data["timeline_digest"] = 7
        problems = validate(data)
        assert any("timeline_digest" in p for p in problems)

    def test_null_timeline_fields_allowed(self):
        data = json.loads(_snapshot().to_json())
        assert data["timeline_windows"] is None
        assert data["timeline_digest"] is None
        assert validate(data) == []

    def test_null_wall_fields_allowed(self):
        data = json.loads(
            _snapshot(wall_clock_s=None, sim_ops_per_wall_s=None).to_json()
        )
        assert validate(data) == []

    def test_extra_must_be_object(self):
        data = json.loads(_snapshot().to_json())
        data["extra"] = [1, 2]
        assert validate(data) == ["field 'extra' must be an object"]


class TestConfigDigest:
    def test_stable_and_sensitive(self):
        @dataclasses.dataclass
        class Config:
            memory_size: int = 4 << 20
            seed: int = 7

        assert config_digest(Config()) == config_digest(Config())
        assert config_digest(Config()) != config_digest(Config(seed=8))
        assert len(config_digest(Config())) == 16


class TestDiff:
    def test_identical_snapshots_pass(self):
        report = diff(_snapshot(), _snapshot())
        assert report.passed and report.regressions == []
        assert report.notes == []

    def test_throughput_drop_regresses(self):
        report = diff(_snapshot(), _snapshot(throughput_mops=90.0))
        assert not report.passed
        assert [d.metric for d in report.regressions] == [
            "throughput_mops"
        ]

    def test_throughput_rise_is_fine(self):
        report = diff(_snapshot(), _snapshot(throughput_mops=200.0))
        assert report.passed

    def test_latency_rise_regresses(self):
        report = diff(_snapshot(), _snapshot(latency_p99_ns=3000.0))
        assert [d.metric for d in report.regressions] == [
            "latency_p99_ns"
        ]

    def test_within_tolerance_passes(self):
        worse = _snapshot(
            throughput_mops=120.0 * (1 - DEFAULT_TOLERANCE + 0.01),
            latency_p99_ns=2300.0 * (1 + DEFAULT_TOLERANCE - 0.01),
        )
        assert diff(_snapshot(), worse).passed

    def test_tolerance_is_configurable(self):
        worse = _snapshot(throughput_mops=110.0)
        assert diff(_snapshot(), worse, tolerance=0.15).passed
        assert not diff(_snapshot(), worse, tolerance=0.05).passed

    @pytest.mark.parametrize(
        "tolerance", [float("nan"), float("inf"), -1.0, -1e-9]
    )
    def test_a_tolerance_that_cannot_gate_is_refused(self, tolerance):
        """Regression: NaN or infinity passed a 10x throughput drop and a
        negative tolerance failed unchanged metrics."""
        with pytest.raises(ValueError, match="tolerance"):
            diff(_snapshot(), _snapshot(throughput_mops=12.0),
                 tolerance=tolerance)

    def test_zero_tolerance_gates_any_bad_move(self):
        assert diff(_snapshot(), _snapshot(), tolerance=0.0).passed
        worse = _snapshot(throughput_mops=119.9)
        assert not diff(_snapshot(), worse, tolerance=0.0).passed

    def test_none_metrics_never_gate(self):
        report = diff(
            _snapshot(latency_p50_ns=None),
            _snapshot(latency_p50_ns=9e9),
        )
        assert report.passed
        delta = [d for d in report.deltas if d.metric == "latency_p50_ns"]
        assert delta[0].change is None

    def test_untimed_baseline_never_gates_on_wall_speed(self):
        """A baseline with null wall fields -> reported, not gated."""
        report = diff(
            _snapshot(),
            _snapshot(wall_clock_s=3.0, sim_ops_per_wall_s=650.0),
        )
        assert report.passed
        delta = [
            d for d in report.deltas if d.metric == "sim_ops_per_wall_s"
        ]
        assert delta and delta[0].change is None

    def test_wall_speed_drop_regresses(self):
        base = _snapshot(wall_clock_s=1.0, sim_ops_per_wall_s=1000.0)
        slow = _snapshot(wall_clock_s=2.0, sim_ops_per_wall_s=500.0)
        report = diff(base, slow)
        assert [d.metric for d in report.regressions] == [
            "sim_ops_per_wall_s"
        ]

    def test_config_mismatch_noted(self):
        report = diff(_snapshot(), _snapshot(config_digest="feedbeef" * 2))
        assert any("config digests differ" in note for note in report.notes)

    def test_rows_render(self):
        rows = diff(_snapshot(), _snapshot(throughput_mops=90.0)).rows()
        flat = [cell for row in rows for cell in row]
        assert "REGRESSED" in flat and "ok" in flat


class TestSnapshotFromRun:
    def test_end_to_end(self):
        from repro.core.processor import KVProcessor
        from repro.core.store import KVDirectStore
        from repro.core.operations import KVOperation
        from repro.driver import run_closed_loop
        from repro.sim import Simulator

        sim = Simulator()
        store = KVDirectStore.create(memory_size=4 << 20, seed=7)
        for i in range(32):
            store.put(b"key%02d" % i, b"value%02d" % i)
        store.reset_measurements()
        processor = KVProcessor(sim, store)
        stats = run_closed_loop(
            processor,
            [KVOperation.get(b"key%02d" % (i % 32), seq=i)
             for i in range(200)],
            concurrency=32,
        )
        snapshot = snapshot_from_run("unit", processor, stats)
        assert validate(json.loads(snapshot.to_json())) == []
        assert snapshot.operations == 200
        assert snapshot.dma_per_op > 0.0
        assert snapshot.config_digest == config_digest(processor.config)
        assert snapshot.schema == 3
        assert snapshot.timeline_windows is None
        assert snapshot.timeline_digest is None
        assert snapshot.wall_clock_s is not None
        assert snapshot.wall_clock_s > 0.0
        assert snapshot.sim_ops_per_wall_s is not None
        assert snapshot.sim_ops_per_wall_s > 0.0


def _load_check_bench():
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "check_bench", root / "tools" / "check_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCheckBenchTool:
    def test_clean_file_lints_ok(self, tmp_path):
        check_bench = _load_check_bench()
        path = tmp_path / "BENCH_ok.json"
        _snapshot().save(str(path))
        assert check_bench.lint(str(path)) == []

    def test_bad_file_reports_problems(self, tmp_path):
        check_bench = _load_check_bench()
        path = tmp_path / "BENCH_bad.json"
        path.write_text('{"schema": 1}')
        assert check_bench.lint(str(path))

    def test_non_finite_rejected(self, tmp_path):
        check_bench = _load_check_bench()
        path = tmp_path / "BENCH_nan.json"
        text = _snapshot().to_json().replace("0.86", "NaN")
        path.write_text(text)
        problems = check_bench.lint(str(path))
        assert any("non-finite" in p for p in problems)

    def test_unparseable_json(self, tmp_path):
        check_bench = _load_check_bench()
        path = tmp_path / "BENCH_syntax.json"
        path.write_text("{nope")
        problems = check_bench.lint(str(path))
        assert any("invalid JSON" in p for p in problems)


class TestCommittedBaseline:
    def test_baseline_validates(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        baseline = root / "benchmarks" / "baselines"
        files = sorted(baseline.glob("BENCH_*.json"))
        assert files, "no committed baseline snapshots"
        for path in files:
            data = json.loads(path.read_text())
            assert validate(data) == [], path.name
            assert data["sim_ops_per_wall_s"] > 0, path.name
            assert data["timeline_digest"] is None, path.name
