#!/usr/bin/env python3
"""Reachability audit of ``src/repro``: the functions no entry point runs.

Runs every way of running the repository under a profile hook and lists
each ``src/repro`` function that none of them entered:

* every seeded CLI surface of ``tools/surfaces.py`` (its ``EXTRA`` and the
  ``CASES`` of ``tests/test_cli_determinism.py``);
* the CLI and lint commands CI runs (:data:`CI`);
* ``pytest benchmarks/ --benchmark-disable``, on a copy, so
  ``benchmarks/results/`` is left as it is;
* each ``benchmarks/e2e`` workload of ``BENCHMARK.json`` at ``--scale
  0.2 --trace 1``;
* each ``examples/*.py``.

Every Python process these start, their own children included, imports
the hook as ``usercustomize`` from a scratch ``PYTHONUSERBASE``: it
survives a child that sets its own ``PYTHONPATH``, as the surfaces do.
The hook is ``sys.setprofile``; a ``cProfile`` run replaces it, so the
hook also wraps ``cProfile.Profile.disable`` to merge the profile's own
stats and re-install itself.

The tier-1 suite runs under the same hook, only to split what the entry
points miss into *never called* and *test-only*.  A function missed by
every entry point must be listed in ``tools/reach_allowlist.txt`` as
``path::qualname  reason``; the audit exits 1 on a missed function the
allowlist does not list, and on an allowlist entry that has no reason,
names no function, or names a function an entry point now reaches.  A
stub whose body is only a docstring, ``pass`` or ``...`` is not counted.

Usage::

    python tools/reach.py
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOWLIST = ROOT / "tools" / "reach_allowlist.txt"

#: Commands CI runs outside pytest, step by step in one directory: each
#: step is ``(argv after python, file its stdout goes to or None)``.
CI = {
    "bench-small-ycsb": [
        ("-m repro bench run --name small-ycsb --seed 7 --ops 2000 "
         "--output BENCH_current.json", None),
        ("tools/check_bench.py BENCH_current.json "
         "benchmarks/baselines/BENCH_small-ycsb.json", None),
        ("-m repro bench diff benchmarks/baselines/BENCH_small-ycsb.json "
         "BENCH_current.json --tolerance 0.15", None),
    ],
    "bench-ycsb-e": [
        ("-m repro bench run --name ycsb-e --workload ycsb-e --seed 7 "
         "--ops 2000 --output BENCH_ycsb_e_current.json", None),
        ("tools/check_bench.py BENCH_ycsb_e_current.json "
         "benchmarks/baselines/BENCH_ycsb-e.json", None),
        ("-m repro bench diff benchmarks/baselines/BENCH_ycsb-e.json "
         "BENCH_ycsb_e_current.json --tolerance 0.15", None),
    ],
    "cluster-snapshot": [
        ("-m repro cluster --nodes 3 --ops 2000 --corpus 512 --seed 0 "
         "--snapshot BENCH_cluster_current.json", None),
        ("tools/check_bench.py BENCH_cluster_current.json "
         "benchmarks/baselines/BENCH_cluster.json", None),
        ("-m repro bench diff benchmarks/baselines/BENCH_cluster.json "
         "BENCH_cluster_current.json --tolerance 0.15", None),
    ],
    "metrics-prom": [
        ("-m repro metrics --format prom", "metrics.prom"),
        ("tools/check_prom.py metrics.prom", None),
    ],
    "timelines": [
        ("-m repro timeline --seed 7 --ops 800 --shards 4 --format jsonl",
         "timeline.jsonl"),
        ("-m repro timeline --seed 7 --ops 300 --format chrome",
         "timeline-chrome.json"),
        ("tools/check_timeline.py timeline.jsonl", None),
        ("tools/check_timeline.py --chrome timeline-chrome.json", None),
    ],
}

#: The hook every child imports at startup.  ``REACH_OUT`` is the
#: directory each process writes the code it entered to, one
#: ``filename<TAB>first line`` per line, for files whose real path is
#: under ``REACH_SRC``.
HOOK = '''\
import atexit, cProfile, os, sys

_seen = {}


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code


class _Profile(cProfile.Profile):
    def disable(self):
        super().disable()
        for entry in self.getstats():
            if not isinstance(entry.code, str):
                _seen.setdefault(id(entry.code), entry.code)
        sys.setprofile(_hook)


def _dump(out=os.environ["REACH_OUT"], src=os.environ["REACH_SRC"]):
    sys.setprofile(None)
    real, lines = {}, set()
    for code in _seen.values():
        name = code.co_filename
        if name not in real:
            real[name] = os.path.realpath(name)
        if real[name].startswith(src):
            lines.add(f"{real[name]}\\t{code.co_firstlineno}\\n")
    with open(os.path.join(out, f"{os.getpid()}-{id(_seen)}"), "w") as f:
        f.writelines(sorted(lines))


cProfile.Profile = _Profile
atexit.register(_dump)
sys.setprofile(_hook)
'''


class Function(NamedTuple):
    """One ``def`` in the audited tree."""

    path: str       # relative to the source root, ``/``-separated
    qualname: str
    line: int       # the code object's first line: its first decorator

    @property
    def name(self) -> str:
        return f"{self.path}::{self.qualname}"


def _is_stub(node: ast.AST) -> bool:
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ) and isinstance(body[0].value.value, str):
        body = body[1:]
    return all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis)
        for stmt in body
    )


def functions(src: pathlib.Path, package: str) -> List[Function]:
    """Every non-stub ``def`` under ``src/package``, with its qualname."""
    found = []

    def visit(node: ast.AST, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                if not _is_stub(child):
                    line = min([child.lineno] + [
                        d.lineno for d in child.decorator_list
                    ])
                    found.append(Function(path, qualname, line))
                visit(child, f"{qualname}.<locals>.", path)
            else:
                visit(child, prefix, path)

    for file in sorted((src / package).rglob("*.py")):
        path = file.relative_to(src).as_posix()
        visit(ast.parse(file.read_text(encoding="utf-8")), "", path)
    return found


def hook_env(scratch: pathlib.Path, src: pathlib.Path) -> Dict[str, str]:
    """The environment that makes every Python process under it record
    the code it enters under ``src`` into ``scratch/out``."""
    userbase = scratch / "userbase"
    site = pathlib.Path(sysconfig.get_path(
        "purelib", f"{os.name}_user", vars={"userbase": str(userbase)}
    ))
    site.mkdir(parents=True, exist_ok=True)
    (site / "usercustomize.py").write_text(HOOK, encoding="utf-8")
    out = scratch / "out"
    out.mkdir(exist_ok=True)
    return dict(
        os.environ,
        PYTHONUSERBASE=str(userbase),
        PYTHONPATH=str(src),
        REACH_OUT=str(out),
        REACH_SRC=str(src) + os.sep,
    )


class Step(NamedTuple):
    """One command: ``python ARGV`` in ``cwd``, stdout to ``stdout``,
    ``env`` over the hook's environment."""

    argv: Sequence[str]
    cwd: pathlib.Path
    stdout: Optional[str] = None
    env: Dict[str, str] = {}


def run_steps(steps: Sequence[Step], env: Dict[str, str]) -> List[str]:
    """Run the steps in order; a note for each that exited non-zero.

    An exit status is not the audit's verdict: under the hook a run is
    slower, so a wall-clock gate such as ``bench diff`` may fail, and the
    code a failing step ran still counts as reached."""
    notes = []
    for step in steps:
        step.cwd.mkdir(parents=True, exist_ok=True)
        done = subprocess.run(
            [sys.executable, *step.argv], cwd=step.cwd,
            env={**env, **step.env}, capture_output=True, check=False,
        )
        if step.stdout is not None:
            (step.cwd / step.stdout).write_bytes(done.stdout)
        if done.returncode != 0:
            notes.append(f"note: python {' '.join(step.argv)} exited "
                         f"{done.returncode}")
    return notes


def reached(
    out: pathlib.Path, src: pathlib.Path
) -> Set[Tuple[str, int]]:
    """``(path, first line)`` of every code object a process recorded."""
    found = set()
    for dump in out.iterdir():
        for line in dump.read_text(encoding="utf-8").splitlines():
            filename, first = line.split("\t")
            path = pathlib.Path(filename).relative_to(src).as_posix()
            found.add((path, int(first)))
    return found


def read_allowlist(path: pathlib.Path) -> Tuple[Dict[str, str], List[str]]:
    """``name -> reason`` of each entry, and the problems of the file."""
    entries, problems = {}, []
    if not path.exists():
        return entries, problems
    for number, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        if not reason.strip():
            problems.append(f"{path.name}:{number}: {name} has no reason")
        if name in entries:
            problems.append(f"{path.name}:{number}: {name} listed twice")
        entries[name] = reason.strip()
    return entries, problems


@dataclass
class Report:
    """What an audit found."""

    total: int
    never: List[Function] = field(default_factory=list)
    test_only: List[Function] = field(default_factory=list)
    allowed: List[Function] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"{self.total} functions; missed by every entry point: "
                 f"{len(self.never)} never called, {len(self.test_only)} "
                 f"test-only, {len(self.allowed)} allowlisted"]
        for title, group in (("never called", self.never),
                             ("test-only", self.test_only)):
            if group:
                lines.append(f"{title}:")
                lines.extend(f"  {f.path}:{f.line} {f.qualname}"
                             for f in group)
        lines.extend(self.problems)
        return "\n".join(lines)

    @property
    def ok(self) -> bool:
        return not (self.never or self.test_only or self.problems)


def judge(
    every: Iterable[Function], app: Set[Tuple[str, int]],
    tests: Set[Tuple[str, int]], allowlist: Dict[str, str],
    problems: List[str],
) -> Report:
    """Sort each function by who reached it; check the allowlist."""
    every = list(every)
    report = Report(total=len(every), problems=list(problems))
    missed = [f for f in every if (f.path, f.line) not in app]
    missed_names = {f.name for f in missed}
    for function in missed:
        if function.name in allowlist:
            report.allowed.append(function)
        elif (function.path, function.line) in tests:
            report.test_only.append(function)
        else:
            report.never.append(function)
    names = {f.name for f in every}
    for name in allowlist:
        if name not in names:
            report.problems.append(f"allowlisted {name} does not exist")
        elif name not in missed_names:
            report.problems.append(
                f"allowlisted {name} is reached; remove its entry"
            )
    return report


def entry_points(scratch: pathlib.Path) -> Dict[str, List[Step]]:
    """Every app entry point, as groups of steps, each in its own
    directory under ``scratch``."""
    sys.path.insert(0, str(ROOT / "tools"))
    import surfaces

    groups: Dict[str, List[Step]] = {}
    for name, command in surfaces.surfaces().items():
        cwd = scratch / "surface" / name
        groups[f"surface {name}"] = [
            Step(["-m", "repro", *step.split()], cwd)
            for step in command.split(" ; ")
        ]
    for name, steps in CI.items():
        cwd = scratch / "ci" / name
        for baseline in (ROOT / "benchmarks" / "baselines").glob("*.json"):
            (cwd / "benchmarks" / "baselines").mkdir(parents=True,
                                                     exist_ok=True)
            shutil.copy(baseline, cwd / "benchmarks" / "baselines")
        groups[f"ci {name}"] = [
            Step([str(ROOT / a) if a.startswith("tools/") else a
                  for a in argv.split()], cwd, stdout)
            for argv, stdout in steps
        ]
    copy = scratch / "bench-tree"
    shutil.copytree(ROOT / "benchmarks", copy / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    for name in ("pyproject.toml", "BENCHMARK.json"):
        shutil.copy(ROOT / name, copy)
    # The e2e harness refuses a repro imported from outside its checkout.
    (copy / "src").symlink_to(SRC)
    # --benchmark-disable: pytest-benchmark pauses any profile hook
    # around the code it times.
    bench = ["-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--benchmark-disable"]
    groups["pytest benchmarks"] = [
        Step([*bench, "benchmarks"], copy,
             env={"PYTHONPATH": str(copy / "src")}),
        # CI's metrics export, the one run that writes profiles.
        Step([*bench, "benchmarks/bench_fig16_ycsb.py", "--export-metrics",
              "exported-metrics"], copy),
    ]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in benchmark["workloads"]:
        groups[f"e2e {workload['name']}"] = [Step(
            [str(ROOT / "benchmarks" / "e2e" / "run.py"), "--workload",
             workload["name"], "--seconds", "0", "--scale", "0.2",
             "--trace", "1"], scratch / "e2e" / workload["name"],
        )]
    for example in sorted((ROOT / "examples").glob("*.py")):
        groups[f"example {example.stem}"] = [
            Step([str(example)], scratch / "example" / example.stem)
        ]
    return groups


def main() -> int:
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="reach-"))
    try:
        app_env = hook_env(scratch / "app", SRC)
        test_env = hook_env(scratch / "tests", SRC)
        tier1 = [Step(["-m", "pytest", "-q", "-p", "no:cacheprovider",
                       "tests"], ROOT)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            tested = pool.submit(run_steps, tier1, test_env)
            notes = [
                note for steps in entry_points(scratch / "run").values()
                for note in run_steps(steps, app_env)
            ]
            notes += tested.result()
        if not any((scratch / "app" / "out").iterdir()):
            print("no process loaded the hook: is the user site disabled "
                  "(python -s, or a virtualenv)?")
            return 2
        allowlist, problems = read_allowlist(ALLOWLIST)
        report = judge(
            functions(SRC, "repro"),
            reached(scratch / "app" / "out", SRC),
            reached(scratch / "tests" / "out", SRC),
            allowlist, problems,
        )
        print("\n".join(notes + [report.render()]))
        return 0 if report.ok else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
