#!/usr/bin/env python3
"""Lint ``BENCH_*.json`` benchmark snapshots.

Used by CI to validate the output of ``repro bench run`` and the
``--export-metrics`` benchmark option before a snapshot is diffed or
committed as a baseline.  Each file must:

* parse as JSON;
* validate against the :mod:`repro.obs.bench_history` schema
  (``schema`` 3 - the only version; required typed fields; latency,
  wall-clock and timeline fields required but nullable; ``extra`` an
  object; finite numbers - NaN/Infinity are rejected even though
  Python's ``json`` accepts them).

Exits 0 when clean; prints every violation and exits 1 otherwise.

Usage::

    PYTHONPATH=src python tools/check_bench.py BENCH_small-ycsb.json [...]
"""

from __future__ import annotations

import json
import sys
from typing import List

from repro.obs.bench_history import validate


def lint(path: str) -> List[str]:
    """All violations in one snapshot file (empty list = clean)."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        return [f"{path}: unreadable: {exc}"]
    except json.JSONDecodeError as exc:
        return [f"{path}: invalid JSON: {exc}"]
    return [f"{path}: {problem}" for problem in validate(data)]


def main(argv: List[str]) -> int:
    if not argv:
        print("usage: check_bench.py FILE [FILE ...]", file=sys.stderr)
        return 2
    failures = 0
    for path in argv:
        errors = lint(path)
        if errors:
            failures += 1
            for error in errors:
                print(error, file=sys.stderr)
        else:
            print(f"{path}: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
