"""The repo benchmark: four workloads, two clocks, a per-layer ledger.

Contract mode, one workload in this process (what the driver runs)::

    python3 benchmarks/e2e/run.py --workload point-direct --seed 7 \\
        --seconds 8 --trace 0

All four workloads, each in its own fresh subprocess, sequentially::

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 7 --out results.json

The timed section of a workload is repeated on freshly built topologies
until ``--seconds`` of it have been measured (at least three times); the
host-clock numbers are the best repetition, the simulated ones must be
bit-identical across repetitions.  One more repetition then runs under a
profile hook for the exact call count and the per-layer host ledger, and
with ``--trace 1`` another with the repo's own observers attached for the
simulated per-stage rows.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List

import ledger
import spec

#: At least this many untraced repetitions, whatever ``--seconds`` says.
MIN_REPETITIONS = 3
#: Disturbance guard: extra repetitions allowed, and what counts as settled.
EXTRA_REPETITIONS = 2
MAX_REPEAT_SPREAD = 0.10
MIN_CPU_OVER_WALL = 0.90
#: Per-layer rows that need the observed run's stage profilers, so they
#: are null on the other repetitions and left out of the identity check.
PROFILER_ROWS = (
    "core.pipeline.decode_queue_ns_per_op",
    "core.pipeline.issue_queue_ns_per_op",
    "core.pipeline.memory_service_ns_per_op",
)


def repetition(
    workload_cls, seed: int, ops: int,
    profiled: bool = False, observed: bool = False,
) -> dict:
    """Build a fresh topology, time its run, measure and check it.

    ``profiled`` wraps the timed section in the ``cProfile`` hook;
    ``observed`` attaches the repo's stage profilers instead.  They are
    separate repetitions so that the host ledger shows the system with
    its observers off."""
    gc.collect()
    started = time.perf_counter()
    workload = workload_cls(seed, ops, observed)
    workload.build()
    setup_s = time.perf_counter() - started
    profile = cProfile.Profile() if profiled else None
    # The cyclic collector is paused as the repo's own driver does: the
    # run allocates only short-lived events that refcounting frees.
    gc.collect()
    gc.disable()
    try:
        cpu_started = time.process_time()
        wall_started = time.perf_counter()
        if profile is not None:
            profile.enable()
        workload.run()
        if profile is not None:
            profile.disable()
        wall_s = time.perf_counter() - wall_started
        cpu_s = time.process_time() - cpu_started
    finally:
        gc.enable()
    measured = workload.measure()
    measured.update(
        setup_s=setup_s,
        wall_s=wall_s,
        cpu_s=cpu_s,
        problems=workload.check(),
        profile=profile,
    )
    return measured


def _simulated(rep: dict) -> dict:
    """Everything a repetition measured on the simulated clock."""
    rows = dict(rep["end_to_end"])
    rows.update(
        (name, value) for name, value in rep["per_layer"].items()
        if name not in PROFILER_ROWS
    )
    rows["completed"] = rep["completed"]
    rows["failed"] = rep["failed"]
    return rows


def _settled(reps: List[dict]) -> bool:
    best = _fastest(reps)[0]
    return (
        _repeat_spread(reps) <= MAX_REPEAT_SPREAD
        and best["cpu_s"] / best["wall_s"] >= MIN_CPU_OVER_WALL
    )


def _fastest(reps: List[dict]) -> List[dict]:
    return sorted(reps, key=lambda rep: rep["wall_s"])


def _repeat_spread(reps: List[dict]) -> float:
    """(max - min) / max of the three fastest repetitions' rates."""
    walls = [rep["wall_s"] for rep in _fastest(reps)[:MIN_REPETITIONS]]
    return (max(walls) - min(walls)) / max(walls)


def run_workload(
    name: str, seed: int, seconds: float, scale: float, trace: int
) -> dict:
    """All repetitions of one workload; returns its full record."""
    import system  # the only importer of ``repro``

    workload_cls = system.WORKLOADS[name]
    ops = system.scaled_ops(name, scale)
    reps: List[dict] = []
    while (
        len(reps) < MIN_REPETITIONS
        or sum(rep["wall_s"] for rep in reps) < seconds
    ):
        reps.append(repetition(workload_cls, seed, ops))
    base = len(reps)
    while not _settled(reps) and len(reps) < base + EXTRA_REPETITIONS:
        reps.append(repetition(workload_cls, seed, ops))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced = [repetition(workload_cls, seed, ops, profiled=True)]
    if trace:
        traced.append(repetition(workload_cls, seed, ops, observed=True))
    # Without --trace 1 no repetition is observed and the stage-profiler
    # rows stay null; they are not part of the end-to-end line.
    profiled, observed = traced[0], traced[-1]

    first = reps[0]
    completed = first["completed"]
    best = _fastest(reps)[0]
    folded = ledger.fold(
        profiled["profile"].getstats(), system.PACKAGE_DIR, completed,
        system.KERNEL_FUNCTIONS,
    )

    problems = [p for rep in reps + traced for p in rep["problems"]]
    simulated = _simulated(first)
    for index, rep in enumerate(reps[1:] + traced, start=2):
        if _simulated(rep) != simulated:
            problems.append(
                f"repetition {index} of {len(reps)} untraced + "
                f"{len(traced)} traced differs on the simulated clock"
            )
    share_sum = ledger.share_sum(folded["layers"])
    if abs(share_sum - 1.0) > 1e-6:
        problems.append(f"host shares sum to {share_sum!r}, not 1")

    end_to_end = dict(first["end_to_end"])
    end_to_end.update({
        "sim_ops_per_wall_s": completed / best["wall_s"],
        "host_calls_per_op": folded["calls_per_op"],
        "setup_s": min(rep["setup_s"] for rep in reps),
        "peak_rss_mib": peak_rss_mib,
    })
    per_layer = dict(observed["per_layer"])
    for layer, row in folded["layers"].items():
        per_layer[f"{layer}.host_share"] = row["host_share"]
        per_layer[f"{layer}.calls_per_op"] = row["calls_per_op"]
    per_layer.update(folded["kernel"])
    per_layer.update({
        "trace.overhead_ratio": profiled["wall_s"] / best["wall_s"],
        "host.cpu_over_wall": best["cpu_s"] / best["wall_s"],
        "host.repeat_spread": _repeat_spread(reps),
    })
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "cap_scale": system.CAP_SCALE,
        "ops": ops,
        "seconds": seconds,
        "repetitions": len(reps),
        "disturbed": not _settled(reps),
        "correct": not problems,
        "problems": problems[:20],
        "attempted": first["attempted"],
        "failed": max(rep["failed"] for rep in reps + traced),
        "latency_samples": first["latency_samples"],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "rates_ops_per_wall_s": [completed / rep["wall_s"] for rep in reps],
        "setup_samples_s": [rep["setup_s"] for rep in reps],
        "ledger": {
            "total_self_s": folded["total_self_s"],
            "layers": folded["layers"],
        },
    }


def print_record(record: dict, benchmark: dict) -> None:
    """Every metric of one workload by name, with its unit."""
    print(
        f"== {record['workload']}  seed={record['seed']} ops={record['ops']} "
        f"(scale {record['scale']} x cap {record['cap_scale']}) "
        f"repetitions={record['repetitions']} "
        f"latency_samples={record['latency_samples']}"
        f"{'  DISTURBED' if record['disturbed'] else ''}"
    )
    for kind in ("end_to_end", "per_layer"):
        for name, unit in spec.metric_units(benchmark, kind).items():
            value = record[kind][name]
            shown = "null" if value is None else format(value, ".6g")
            print(f"  {name:<44}{shown:>14} {unit}")
    print(ledger.format_table(
        record["ledger"]["layers"], record["ledger"]["total_self_s"]
    ))
    for problem in record["problems"]:
        print(f"  MISMATCH {problem}")


def contract_line(record: dict, benchmark: dict, trace: int) -> str:
    """The last line the driver reads.  It wants a number for every
    metric, so a row that is null here (layer off this workload's path)
    is written as 0; the ``--out`` file keeps the null."""
    kind = "per_layer" if trace else "end_to_end"
    metrics = {}
    for name, unit in spec.metric_units(benchmark, kind).items():
        value = record[kind][name]
        metrics[name] = {"value": 0 if value is None else value, "unit": unit}
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def run_all(args, benchmark: dict) -> int:
    """Each workload in its own fresh subprocess, one after the other."""
    records = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in spec.workload_names(benchmark):
            part = Path(scratch) / f"{name}.json"
            subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--scale", str(args.scale), "--trace", "1",
                 "--out", str(part)],
            )
            if not part.exists():
                print(f"{name}: no result", file=sys.stderr)
                return 1
            records[name] = json.loads(part.read_text(encoding="utf-8"))
    results = {
        "schema": 1,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "workloads": records,
    }
    if args.out:
        out = Path(args.out)
        ledgers = {name: rec.pop("ledger") for name, rec in records.items()}
        out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
        out.with_suffix(".layers.json").write_text(
            json.dumps(ledgers, indent=1) + "\n", encoding="utf-8"
        )
    incorrect = [n for n, rec in records.items() if not rec["correct"]]
    disturbed = [n for n, rec in records.items() if rec["disturbed"]]
    print(
        f"{len(records)} workloads, incorrect: {incorrect or 'none'}, "
        f"disturbed: {disturbed or 'none'}"
    )
    return 1 if incorrect else 0


def main() -> int:
    benchmark = spec.load_benchmark()
    names = spec.workload_names(benchmark)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=float(benchmark["run_seconds"]),
                        help="timed seconds to measure per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="last line: 0 end-to-end, 1 per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply all op counts (only 1.0 counts)")
    parser.add_argument("--out", help="write the full results as JSON")
    args = parser.parse_args()
    if args.scale <= 0 or args.seconds < 0:
        parser.error("--scale must be positive and --seconds non-negative")
    if args.workload is None:
        return run_all(args, benchmark)
    record = run_workload(
        args.workload, args.seed, args.seconds, args.scale, args.trace
    )
    print_record(record, benchmark)
    if args.out:
        Path(args.out).write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(contract_line(record, benchmark, args.trace))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
