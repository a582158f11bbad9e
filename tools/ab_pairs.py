#!/usr/bin/env python3
"""Alternating parent/change pairs of the repo benchmark, with a verdict.

Runs ``benchmarks/e2e/run.py`` the way the driver does (one workload, one
fresh process, ``--trace 0``, last stdout line is the result) in two
checkouts, alternating which side goes first and cycling seeds 7/11/23,
then prints, for each workload (every one in ``BENCHMARK.json`` unless
``--workload`` names one),

* whether the rows that repeat exactly for a seed (the five simulated ones)
  are equal on both sides, and ``host_calls_per_op`` per seed - a count
  that also repeats exactly, so one pair above the parent by more than
  its ``BENCHMARK.json`` bound is a regression, not noise;
* each side's median and quartiles of the three noisy host rows
  (``sim_ops_per_wall_s``, ``setup_s``, ``peak_rss_mib``) and every pair;
* for each of those rows, the verdict of section 8 of the choosing-metrics
  guide, in the direction and against the bound ``BENCHMARK.json`` gives
  it: a gain needs the change ahead in at least nine tenths of the pairs
  (ties count for neither side) *and* medians further apart than the
  parent's own inter-quartile distance.

Each checkout runs its own copy of the benchmark on its own ``src/``, so
the two must carry identical ``benchmarks/e2e/`` files.  Both run with
``PYTHONDONTWRITEBYTECODE=1``, and a checkout holding a ``__pycache__``
under ``src/`` or ``benchmarks/e2e/`` is refused (exit 2): cached bytecode
makes ``repro``'s import about 1 MiB smaller, so a cache on one side only
moves ``peak_rss_mib`` by as much as a change might.  Exits 1 when, on
any workload, an exact row differs, a run is incorrect, the call count
rose beyond its bound or any of the three host rows regressed - so a
change that claims no gain has one command for "no row worse on any
workload".

Usage::

    python tools/ab_pairs.py PARENT_DIR CHANGE_DIR --pairs 10
    python tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload scan-ordered
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence, Tuple

SEEDS = (7, 11, 23)
#: The end-to-end rows measured on the host, noisy run to run: judged by
#: medians over the pairs.  The first is printed for every pair.
NOISY = ("sim_ops_per_wall_s", "setup_s", "peak_rss_mib")
METRIC = NOISY[0]
#: The end-to-end row that is an exact count per seed (lower is better).
COUNT = "host_calls_per_op"
#: Pairs below which no gain is claimed.
MIN_PAIRS = 10
#: Rows that repeat to the last digit for a fixed seed; a host-only change
#: must not move them.
EXACT_ROWS = (
    "sim_throughput_mops",
    "sim_latency_p50_ns",
    "sim_latency_p99_ns",
    "dma_per_op",
    "completed_op_share",
)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    bound: float,
    better: str = "higher",
) -> Dict[str, object]:
    """Judge the values ``change[i]`` against ``parent[i]`` over all pairs,
    where ``better`` (``"higher"`` or ``"lower"``) says which way is ahead.

    ``GAIN``        at least ten pairs, change ahead in >= 9/10 of them and
                    the medians differ by more than the parent's
                    inter-quartile distance.
    ``REGRESSED``   the change's median is worse than the parent's by more
                    than ``bound`` (a share of the parent's median).
    ``UNRESOLVED``  neither, and either too few pairs to claim the gain they
                    show, or the parent's own runs spread wider than
                    ``bound`` so "no worse" cannot be told from noise.
    ``NO CHANGE``   neither, within a spread that could have shown it.
    """
    if not parent or len(parent) != len(change):
        raise ValueError("need the same, non-zero number of runs per side")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower': {better!r}")
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles(parent)
    __, c_median, __ = quartiles(change)
    spread = p_q3 - p_q1
    ahead_by = sign * (c_median - p_median)
    if 10 * wins >= 9 * len(parent) and ahead_by > spread:
        outcome = "GAIN" if len(parent) >= MIN_PAIRS else "UNRESOLVED"
    elif -ahead_by > bound * p_median:
        outcome = "REGRESSED"
    elif spread > bound * p_median and losses:
        outcome = "UNRESOLVED"
    else:
        outcome = "NO CHANGE"
    return {
        "verdict": outcome,
        "pairs": len(parent),
        "wins": wins,
        "losses": losses,
        "parent_median": p_median,
        "change_median": c_median,
        "ratio": c_median / p_median,
        "parent_iqr": spread,
    }


def count_worse(parent: float, change: float, bound: float) -> bool:
    """True when the exact count ``change`` is above ``parent`` (same
    seed) by more than ``bound``, a share of the parent's count."""
    return change > parent * (1.0 + bound)


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One contract-mode run in ``checkout``; the parsed last stdout line."""
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{checkout}: run.py exited {done.returncode}\n{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def bytecode_caches(checkout: str) -> List[str]:
    """The ``__pycache__`` directories under ``checkout``'s ``src/`` and
    ``benchmarks/e2e/``."""
    return sorted(
        str(path) for part in ("src", "benchmarks/e2e")
        for path in pathlib.Path(checkout, part).rglob("__pycache__")
    )


def judge_workload(
    sides: Dict[str, str],
    workload: str,
    pairs: int,
    seconds: float,
    rows_spec: Dict[str, dict],
) -> bool:
    """Run and print ``pairs`` alternating pairs of one workload; True
    when nothing is worse (see the module docstring)."""
    runs: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
    exact_ok = correct = count_ok = True
    for pair in range(pairs):
        seed = SEEDS[pair % len(SEEDS)]
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        results = {
            side: run_once(sides[side], workload, seed, seconds)
            for side in order
        }
        rows = {
            side: {name: row["value"] for name, row in result["metrics"].items()}
            for side, result in results.items()
        }
        moved = [name for name in EXACT_ROWS
                 if rows["parent"][name] != rows["change"][name]]
        exact_ok = exact_ok and not moved
        correct = correct and all(
            result["correct"] and not result["failed"]
            for result in results.values()
        )
        more_calls = count_worse(
            rows["parent"][COUNT], rows["change"][COUNT],
            rows_spec[COUNT]["bound"],
        )
        count_ok = count_ok and not more_calls
        for side in sides:
            runs[side].append(rows[side])
        print(
            f"{workload} pair {pair + 1:>2} seed {seed:>2} {order[0]} first: "
            f"{METRIC} {rows['parent'][METRIC]:.6g} -> "
            f"{rows['change'][METRIC]:.6g}; {COUNT} "
            f"{rows['parent'][COUNT]:.2f} -> {rows['change'][COUNT]:.2f}"
            + (" WORSE" if more_calls else "") + "; exact rows "
            + ("equal" if not moved else "MOVED: " + ", ".join(moved)),
            flush=True,
        )

    regressed = False
    for name in NOISY:
        values = {side: [row[name] for row in runs[side]] for side in sides}
        spec = rows_spec[name]
        judged = verdict(
            values["parent"], values["change"], spec["bound"], spec["better"]
        )
        regressed = regressed or judged["verdict"] == "REGRESSED"
        for side in sides:
            q1, median, q3 = quartiles(values[side])
            print(f"{side:<7} {name} median {median:.6g}  "
                  f"quartiles {q1:.6g} .. {q3:.6g}")
        print(
            f"{workload} {name}: {judged['verdict']} - change ahead "
            f"in {judged['wins']}/{judged['pairs']} pairs "
            f"({spec['better']} is better), median ratio "
            f"{judged['ratio']:.3f} (base {judged['parent_median']:.6g}), "
            f"parent inter-quartile distance {judged['parent_iqr']:.6g}",
            flush=True,
        )
    print(
        f"{workload} exact rows {'equal' if exact_ok else 'MOVED'}; {COUNT} "
        f"{'within' if count_ok else 'ABOVE'} its bound; "
        f"{'all runs correct' if correct else 'INCORRECT RUNS'}",
        flush=True,
    )
    return not regressed and exact_ok and count_ok and correct


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload",
                        help="one workload (default: every one in "
                             "BENCHMARK.json, one verdict line each)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per run (default: the contract's)")
    args = parser.parse_args(argv)
    if args.pairs <= 0:
        parser.error("--pairs must be positive")
    with open(f"{args.parent}/BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    rows_spec = {metric["name"]: metric for metric in contract["end_to_end"]}
    workloads = [args.workload] if args.workload else [
        workload["name"] for workload in contract["workloads"]
    ]
    sides = {"parent": args.parent, "change": args.change}
    caches = [cache for side in sides.values()
              for cache in bytecode_caches(side)]
    for cache in caches:
        print(f"refused: {cache} holds cached bytecode; delete it, since "
              "both sides must import repro from source", file=sys.stderr)
    if caches:
        return 2
    seconds = args.seconds or contract["run_seconds"]
    # Judge every workload even after one fails: each gets its verdict line.
    passed = [
        judge_workload(sides, workload, args.pairs, seconds, rows_spec)
        for workload in workloads
    ]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
