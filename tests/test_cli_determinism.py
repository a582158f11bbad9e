"""Process-level determinism of every seeded CLI surface.

Each case runs ``python -m repro ...`` twice, in two fresh interpreters
with *different* ``PYTHONHASHSEED`` values, and requires stdout and every
file the command wrote to be byte-identical - the gate CI used to spell
as run-twice-``cmp`` shell steps.  The content checks that rode along in
CI as inline ``python -c`` snippets are the cases' ``check`` functions.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Simulated fields a pure observer (the timeline sampler) must not move.
SIMULATED = ("throughput_mops", "latency_p50_ns", "latency_p95_ns",
             "latency_p99_ns", "dma_per_op", "cache_hit_rate")


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(path):
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if not line.startswith("#")
    ]


def _run_twice(tmp_path, argv):
    """Run the CLI in ``a/`` and ``b/`` concurrently; returns the two
    (stdout, directory) pairs after asserting both exited 0."""
    runs = []
    for name, hashseed in (("a", "1"), ("b", "2")):
        cwd = tmp_path / name
        cwd.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   PYTHONHASHSEED=hashseed)
        runs.append((cwd, subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )))
    results = []
    for cwd, proc in runs:
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr.decode()
        results.append((stdout, cwd))
    return results


# -- content checks (stdout bytes, directory the command ran in) ---------------


def _timeline_lints(name):
    def check(stdout, cwd):
        path = cwd / name
        if not path.exists():
            path.write_bytes(stdout)
        assert _tool("check_timeline").lint(str(path)) == []

    return check


def _check_chrome(stdout, cwd):
    path = cwd / "chrome.json"
    path.write_bytes(stdout)
    assert _tool("check_timeline").lint_chrome(str(path)) == []


def _check_cluster_timeline(stdout, cwd):
    _timeline_lints("cluster.jsonl")(stdout, cwd)
    cluster = [r for r in _rows(cwd / "cluster.jsonl")
               if r["shard"] == "cluster"]
    assert cluster[0]["epoch"] == 0 and cluster[-1]["epoch"] == 1
    assert min(r["alive_nodes"] for r in cluster) == 2
    assert sum(r["failovers"] for r in cluster) == 1
    assert sum(r["migrated_keys"] for r in cluster) > 0


def _check_soak(stdout, cwd):
    assert json.loads(stdout)["ok"]


def _check_kill_node_soak(stdout, cwd):
    report = json.loads(stdout)
    assert report["ok"], report["divergences"]
    assert report["cluster"]["failovers"] == 1, report["cluster"]
    assert report["cluster"]["epoch"] == 1, report["cluster"]
    assert report["robustness"]["node_down_retries"] > 0


def _check_soak_timeline(stdout, cwd):
    _timeline_lints("soak.jsonl")(stdout, cwd)
    report = json.loads(stdout)
    assert report["timeline"]["windows"] > 0
    assert report["timeline"]["phases"], "phase annotations missing"


def _check_multinic(stdout, cwd):
    stats = json.loads(stdout)
    assert stats["shards"] == 4.0
    assert stats["operations"] == 4000.0
    assert len(stats["per_shard"]) == 4
    assert stats["latency_p50_ns"] <= stats["latency_p99_ns"]


def _check_profile(stdout, cwd):
    data = json.loads(stdout)
    assert data["audit"]["verdict"] == "PASS"
    assert data["latency_identity"]["exact"] == \
        data["latency_identity"]["ops"] > 0


def _check_trace(stdout, cwd):
    assert b"digest=" in stdout.splitlines()[-1]


CASES = {
    "trace": ("trace --seed 7 --ops 200", _check_trace),
    "timeline-1": ("timeline --seed 7 --ops 800 --format jsonl",
                   _timeline_lints("stdout.jsonl")),
    "timeline-4": ("timeline --seed 7 --ops 800 --shards 4 --format jsonl",
                   _timeline_lints("stdout.jsonl")),
    "timeline-chrome": ("timeline --seed 7 --ops 300 --format chrome",
                        _check_chrome),
    "profile-1": ("profile --seed 7 --ops 2000 --format json",
                  _check_profile),
    "profile-4": ("profile --seed 7 --ops 1200 --shards 4 --format json",
                  _check_profile),
    "soak": ("soak --seed 7 --json", _check_soak),
    "soak-sharded": ("soak --shards 4 --seed 7 --json", _check_soak),
    "soak-kill-node": ("soak --nodes 3 --kill-node --seed 7 --json",
                       _check_kill_node_soak),
    "soak-timeline": ("soak --seed 7 --json --timeline soak.jsonl",
                      _check_soak_timeline),
    "cluster-timeline": ("cluster --nodes 3 --kill-node --seed 0 --json "
                         "--timeline cluster.jsonl",
                         _check_cluster_timeline),
    "range-1": ("range --seed 7 --scans 64 --shards 1", None),
    "range-4": ("range --seed 7 --scans 64 --shards 4", None),
    "multinic": ("multinic --nics 4 --ops 4000 --json", _check_multinic),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_byte_identical_across_processes(tmp_path, case):
    argv, check = CASES[case]
    (first, dir_a), (second, dir_b) = _run_twice(tmp_path, argv.split())
    assert first == second
    written = sorted(p.name for p in dir_a.iterdir())
    assert written == sorted(p.name for p in dir_b.iterdir())
    for name in written:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    if check is not None:
        check(first, dir_a)


def test_bench_snapshot_fields_and_timeline_transparency(tmp_path):
    """``repro bench run`` writes schema 3 with positive wall-clock
    fields; with ``--timeline`` it records the sampler's windows and
    digest, and the sampler moves no simulated number."""
    bench = "bench run --name small-ycsb --seed 7 --ops 2000 --output "
    (__, plain_dir), __ = _run_twice(
        tmp_path / "plain", (bench + "BENCH.json").split()
    )
    (__, timed_dir), __ = _run_twice(
        tmp_path / "timed",
        (bench + "BENCH.json --timeline bench.jsonl").split(),
    )
    plain = json.loads((plain_dir / "BENCH.json").read_text())
    timed = json.loads((timed_dir / "BENCH.json").read_text())
    lint = _tool("check_bench").lint
    assert lint(str(plain_dir / "BENCH.json")) == []
    assert lint(str(timed_dir / "BENCH.json")) == []
    assert plain["schema"] == 3
    assert plain["wall_clock_s"] > 0 and plain["sim_ops_per_wall_s"] > 0
    assert plain["timeline_windows"] is None
    assert plain["timeline_digest"] is None
    assert timed["timeline_windows"] > 0
    assert len(timed["timeline_digest"]) == 64
    assert _tool("check_timeline").lint(str(timed_dir / "bench.jsonl")) == []
    for key in SIMULATED:
        assert timed[key] == plain[key], key
