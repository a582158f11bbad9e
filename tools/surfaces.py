#!/usr/bin/env python3
"""Byte-identity of every seeded CLI surface between two checkouts.

Runs each surface - every ``CASES`` command of
``tests/test_cli_determinism.py`` plus the few seeded commands listed in
:data:`EXTRA`, where ``;`` separates the steps of a surface that runs
several commands in one directory - as ``python -m repro ...`` once on
each checkout's ``src/``, both sides from directories of the same name
(so the paths the commands write and print match), two processes at a
time.  Then it
compares stdout and every file each side wrote, byte for byte, prints one
line per surface and exits 1 if any surface differs; the outputs are kept
for inspection in that case and removed otherwise.

Usage::

    python tools/surfaces.py PARENT_DIR CHANGE_DIR
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Seeded surfaces beyond the determinism cases, by name.
EXTRA = {
    "metrics": "metrics --seed 7 --format both",
    "info": "info",
    # Contended atomics, forwarded in the reservation station and not.
    "atomics": "atomics --keys 2 --ops 400",
    "atomics-no-ooo": "atomics --keys 1 --ops 400 --no-ooo",
    "profile-folded": "profile --seed 7 --ops 1200 --format folded",
    "profile-table": "profile --seed 7 --ops 1200 --format table",
    "timeline-table": "timeline --seed 7 --ops 800 --format table",
    # Half the spans, drawn per op by the tracer's seeded hash.
    "timeline-sampled": "timeline --seed 7 --ops 300 --format chrome "
                        "--sample 0.5",
    # A cluster soak whose faults fail ops: each is reconciled at its owner.
    "soak-cluster-chaos": "soak --nodes 3 --chaos 0.2 --seed 7 --json",
    # A primary killed mid-soak: the flight recorder dumps its windows.
    "soak-kill-timeline": "soak --nodes 3 --kill-node --seed 7 --json "
                          "--timeline soak.jsonl",
    "overload-export": "overload --seed 0 --ops 1500 --deadline-us 10 "
                       "--export overload.json",
    # A deadline short enough that ops expire at every point.
    "overload-expire": "overload --seed 0 --ops 1500 --deadline-us 0.05 "
                       "--export overload.json",
    "pcie-read": "pcie --payload 64 --ops 3000",
    "pcie-write": "pcie --payload 64 --ops 3000 --write",
    "ycsb": "ycsb --ops 3000 --put-ratio 0.5",
    # Slab records: a table filled through them, and through the pipeline.
    "tune": "tune --kv-size 30 --utilization 0.2",
    "ycsb-slab": "ycsb --ops 3000 --put-ratio 0.5 --kv-size 254",
    # Every record one whole 512 B slab, the largest KV a slab stores.
    "ycsb-slab-max": "ycsb --ops 2000 --put-ratio 0.5 --kv-size 510",
    # A 1 GiB store: the memory a run does not write is never touched.
    "ycsb-1gib": "ycsb --ops 2000 --corpus 2000 --memory-mib 1024",
    # A shuffled Zipf stream, drawn one op at a time as the run pulls it.
    "ycsb-zipf": "ycsb --ops 3000 --put-ratio 0.5 --distribution zipf",
    # A seeded trace with its load phase, replayed from the file untimed
    # and through the timed pipeline.
    "replay": "record trace.kvdt --load-phase --ops 3000 --corpus 1000 ; "
              "replay trace.kvdt ; replay trace.kvdt --timed",
}

SIDES = ("parent", "change")


def surfaces() -> Dict[str, str]:
    """Every surface: name -> ``repro`` arguments."""
    spec = importlib.util.spec_from_file_location(
        "test_cli_determinism", ROOT / "tests" / "test_cli_determinism.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    found = {name: argv for name, (argv, __) in module.CASES.items()}
    found.update(EXTRA)
    return found


def run_cli(checkout: str, argv: List[str], cwd: pathlib.Path) -> bytes:
    """``python -m repro ARGV`` on ``checkout``'s sources, run in ``cwd``,
    one step per ``;``-separated part of ``argv``; returns the steps'
    stdout, concatenated."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(checkout) / "src"),
               PYTHONHASHSEED="0")
    stdout = b""
    for step in " ".join(argv).split(" ; "):
        step_argv = step.split()
        done = subprocess.run(
            [sys.executable, "-m", "repro", *step_argv],
            cwd=cwd, env=env, capture_output=True, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"{checkout}: repro {step} exited {done.returncode}\n"
                f"{done.stderr.decode()}"
            )
        stdout += done.stdout
    return stdout


def outputs(stdout: bytes, cwd: pathlib.Path) -> Dict[str, bytes]:
    """What one run produced: ``<stdout>`` and each file it wrote."""
    found = {"<stdout>": stdout}
    for path in sorted(cwd.iterdir()):
        found[path.name] = path.read_bytes()
    return found


def differences(parent: Dict[str, bytes], change: Dict[str, bytes]) -> List[str]:
    """Names of the outputs that differ or exist on one side only."""
    return sorted(
        name for name in set(parent) | set(change)
        if parent.get(name) != change.get(name)
    )


def compare(
    name: str, argv: str, checkouts: Dict[str, str], workdir: pathlib.Path
) -> List[str]:
    """Run one surface on both sides; the outputs that differ."""
    dirs = {side: workdir / side / name for side in SIDES}
    for cwd in dirs.values():
        cwd.mkdir(parents=True)
    with ThreadPoolExecutor(max_workers=len(SIDES)) as pool:
        futures = {
            side: pool.submit(run_cli, checkouts[side], argv.split(), dirs[side])
            for side in SIDES
        }
        produced = {
            side: outputs(future.result(), dirs[side])
            for side, future in futures.items()
        }
    return differences(produced["parent"], produced["change"])


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="surfaces-"))
    differing = 0
    for name, command in surfaces().items():
        moved = compare(name, command, checkouts, workdir)
        differing += bool(moved)
        print(f"{name:<18} " + (
            "identical" if not moved else "DIFFERS: " + ", ".join(moved)
        ), flush=True)
    if differing:
        print(f"{differing} surface(s) differ; outputs kept in {workdir}")
        return 1
    shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
