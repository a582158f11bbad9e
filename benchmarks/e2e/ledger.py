"""Host ledger: fold a ``cProfile`` of the timed section into layers.

The profile hook times every call into every function from outside, so
per-layer self times sum to the total by construction and the call
counts are exact.  A function belongs to the layer its source file maps
to (:data:`spec.LAYER_OF_PATH`); everything outside the ``repro``
package is ``other``.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable

from spec import LAYER_OF_PATH, LAYERS

#: Functions kept per layer in the written table.
TOP_FUNCTIONS = 30


def layer_of(filename: str, package_dir: str) -> str:
    """The layer a source file belongs to."""
    if not filename.startswith(package_dir + os.sep):
        return "other"
    relative = filename[len(package_dir) + 1:].replace(os.sep, "/")
    for path, layer in LAYER_OF_PATH:
        whole_package = path.endswith("/") and relative.startswith(path)
        if relative == path or whole_package:
            return layer
    return "other"


def fold(
    entries: Iterable,
    package_dir: str,
    ops: int,
    kernel_codes: Dict[str, object],
) -> dict:
    """Fold ``cProfile.Profile.getstats()`` entries into the layer map.

    ``kernel_codes`` maps a kernel counter name to the code object whose
    call count it is (see :data:`system.KERNEL_FUNCTIONS`).  Returns the
    per-layer self time, call count, shares and top functions, the exact
    total call count, and the kernel counters per op.
    """
    layers = {
        layer: {"self_s": 0.0, "calls": 0, "functions": []}
        for layer in LAYERS
    }
    calls_of_code = {}
    for entry in entries:
        code = entry.code
        if isinstance(code, str):  # a builtin: no source file
            layer, label = "other", code
        else:
            layer = layer_of(code.co_filename, package_dir)
            name = getattr(code, "co_qualname", code.co_name)
            label = (
                f"{os.path.basename(code.co_filename)}:"
                f"{code.co_firstlineno}:{name}"
            )
            calls_of_code[code] = entry.callcount
        row = layers[layer]
        row["self_s"] += entry.inlinetime
        row["calls"] += entry.callcount
        row["functions"].append((entry.inlinetime, entry.callcount, label))
    total_self = sum(row["self_s"] for row in layers.values())
    total_calls = sum(row["calls"] for row in layers.values())
    table = {}
    for layer, row in layers.items():
        ran = row["calls"] > 0
        top = sorted(row["functions"], reverse=True)[:TOP_FUNCTIONS]
        table[layer] = {
            "self_s": row["self_s"],
            "calls": row["calls"],
            # A layer none of whose functions ran is off this workload's
            # path: null, which counts as 0 in the sum of shares.
            "host_share": row["self_s"] / total_self if ran else None,
            "calls_per_op": row["calls"] / ops if ran else None,
            "top": [
                {"function": label, "calls": calls, "self_s": self_s}
                for self_s, calls, label in top
            ],
        }
    return {
        "total_self_s": total_self,
        "calls_per_op": total_calls / ops,
        "layers": table,
        "kernel": {
            name: calls_of_code.get(code, 0) / ops
            for name, code in kernel_codes.items()
        },
    }


def share_sum(table: Dict[str, dict]) -> float:
    """Sum of the layers' host shares (null counts as 0); 1 by construction."""
    return sum(row["host_share"] or 0.0 for row in table.values())


def format_table(table: Dict[str, dict], total_self_s: float) -> str:
    """The folded per-layer table as text, largest share first."""
    rows = sorted(
        table.items(), key=lambda item: item[1]["host_share"] or 0.0,
        reverse=True,
    )
    lines = [f"{'layer':<16}{'host_share':>12}{'calls/op':>14}{'self_s':>10}"]
    for layer, row in rows:
        if row["host_share"] is None:
            share = calls = "null"
        else:
            share = format(row["host_share"], ".4f")
            calls = format(row["calls_per_op"], ".2f")
        lines.append(f"{layer:<16}{share:>12}{calls:>14}{row['self_s']:>10.3f}")
    lines.append(
        f"{'total':<16}{share_sum(table):>12.4f}{'':>14}{total_self_s:>10.3f}"
    )
    return "\n".join(lines)
