"""Smoke test of the benchmark harness (not in tier-1 ``testpaths``).

Run it explicitly::

    python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

``run.py --scale 0.02`` must finish all four workloads quickly, emit every
metric BENCHMARK.json names for every workload, and agree with a second
invocation on every metric that is exact for a seed.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: Host-clock rows: everything else must repeat to the last digit.
NOISY = re.compile(
    r"sim_ops_per_wall_s|setup_s|peak_rss_mib|.*\.host_share"
    r"|trace\.overhead_ratio|host\.cpu_over_wall|host\.repeat_spread"
)


def _invoke(out: Path) -> float:
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "7",
         "--scale", "0.02", "--seconds", "0", "--out", str(out)],
        check=True,
        stdout=subprocess.DEVNULL,  # the per-workload tables
    )
    return time.perf_counter() - started


@pytest.fixture(scope="module")
def invocations(tmp_path_factory):
    directory = tmp_path_factory.mktemp("e2e")
    runs = []
    for index in (1, 2):
        out = directory / f"results{index}.json"
        elapsed = _invoke(out)
        runs.append((elapsed, json.loads(out.read_text())))
    return runs


def test_finishes_quickly_and_correctly(invocations):
    # ~28 s here: five repetitions per workload, and neither the corpus
    # load nor the failover's snapshot walk shrinks with ``--scale``.
    for elapsed, results in invocations:
        assert elapsed < 60.0
        assert results["scale"] == 0.02
        for record in results["workloads"].values():
            assert record["correct"], record["problems"]
            assert record["failed"] == 0


def test_emits_every_metric_of_the_contract(invocations):
    __, results = invocations[0]
    assert list(results["workloads"]) == [
        workload["name"] for workload in BENCHMARK["workloads"]
    ]
    for record in results["workloads"].values():
        for kind in ("end_to_end", "per_layer"):
            wanted = {metric["name"] for metric in BENCHMARK[kind]}
            assert set(record[kind]) == wanted
            assert all(NAME.fullmatch(name) for name in wanted)
        for name, value in record["end_to_end"].items():
            assert value, f"{name} must never be 0 or null"


def test_host_shares_sum_to_one(invocations):
    __, results = invocations[0]
    for record in results["workloads"].values():
        shares = [
            value or 0.0 for name, value in record["per_layer"].items()
            if name.endswith(".host_share")
        ]
        assert len(shares) == 18
        assert abs(sum(shares) - 1.0) <= 1e-6


def test_exact_metrics_repeat_exactly(invocations):
    (__, first), (__, second) = invocations
    for name, record in first["workloads"].items():
        other = second["workloads"][name]
        for kind in ("end_to_end", "per_layer"):
            for metric, value in record[kind].items():
                if not NOISY.fullmatch(metric):
                    assert value == other[kind][metric], (name, metric)
