"""Compare two result files of ``run.py --out``: ``compare.py A.json B.json``.

A is the base, B the candidate.  One row per (workload, end-to-end
metric): both values, B/A with its base, and a verdict from the metric's
direction and bound in BENCHMARK.json.

- ``PASS``        B is no worse than A by more than the bound.  Rows that
                  repeat exactly for a seed are compared for equality first.
- ``REGRESSED``   B is worse than A by more than the bound.
- ``UNRESOLVED``  B looks worse, but one of the runs was disturbed or its
                  own repetitions spread wider than the bound, so the
                  difference is not a finding.

Exit status 1 on any ``REGRESSED`` row, 2 when the files do not describe
the same configuration.
"""

from __future__ import annotations

import json
import sys

import spec


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _own_spread(record: dict, metric: str) -> float:
    """How far one run's own repetitions spread on a host-clock metric."""
    if metric == "sim_ops_per_wall_s":
        return record["per_layer"]["host.repeat_spread"]
    if metric == "setup_s":
        samples = sorted(record["setup_samples_s"])[:3]
        return (samples[-1] - samples[0]) / samples[-1]
    return 0.0


def verdict(metric: dict, base: dict, candidate: dict) -> str:
    name = metric["name"]
    a, b = base["end_to_end"][name], candidate["end_to_end"][name]
    if name in spec.EXACT_END_TO_END and a == b:
        return "PASS"
    worse = (a - b) / a if metric["better"] == "higher" else (b - a) / a
    if worse <= metric["bound"]:
        return "PASS"
    if name not in spec.EXACT_END_TO_END and (
        base["disturbed"]
        or candidate["disturbed"]
        or max(_own_spread(base, name), _own_spread(candidate, name))
        > metric["bound"]
    ):
        return "UNRESOLVED"
    return "REGRESSED"


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, candidate = _load(argv[1]), _load(argv[2])
    for key in ("seed", "scale"):
        if base[key] != candidate[key]:
            print(f"{key} differs: {base[key]} vs {candidate[key]}",
                  file=sys.stderr)
            return 2
    benchmark = spec.load_benchmark()
    regressed = 0
    print(f"{'workload':<18}{'metric':<22}{'A':>14}{'B':>14}"
          f"{'B/A':>9}  base A      verdict")
    for workload in spec.workload_names(benchmark):
        a, b = base["workloads"][workload], candidate["workloads"][workload]
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            va, vb = a["end_to_end"][name], b["end_to_end"][name]
            result = verdict(metric, a, b)
            regressed += result == "REGRESSED"
            print(
                f"{workload:<18}{name:<22}{va:>14.6g}{vb:>14.6g}"
                f"{vb / va:>9.4f}  {va:<10.5g}  {result}"
                f" ({metric['better']} is better, bound {metric['bound']:.1%})"
            )
    print(f"{regressed} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
