"""What the benchmark measures: names, layers, and the contract file.

Nothing here imports ``repro``; :mod:`system` is the one module that does.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

#: The checkout: this file is ``<root>/benchmarks/e2e/spec.py``.
ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Layers of the host ledger, in report order.  ``other`` is builtins,
#: stdlib, numpy, the harness's own frames and the few ``repro`` files
#: that belong to no layer (errors, constants, config).
LAYERS = (
    "sim",
    "core.pipeline",
    "core.ooo",
    "core.index",
    "core.ordered",
    "core.slab",
    "memory",
    "dram",
    "pcie",
    "network",
    "client",
    "client.router",
    "multi",
    "workloads",
    "obs",
    "faults",
    "driver",
    "other",
)

#: Source path (relative to the ``repro`` package) -> layer.  A trailing
#: slash matches a whole subpackage; first match wins.
LAYER_OF_PATH = (
    ("sim/", "sim"),
    ("core/processor.py", "core.pipeline"),
    ("core/pipeline.py", "core.pipeline"),
    ("core/admission.py", "core.pipeline"),
    ("core/operations.py", "core.pipeline"),
    ("core/vector.py", "core.pipeline"),
    ("core/ooo.py", "core.ooo"),
    ("core/store.py", "core.index"),
    ("core/index.py", "core.index"),
    ("core/hashtable.py", "core.index"),
    ("core/hashindex.py", "core.index"),
    ("core/hashing.py", "core.index"),
    ("core/ordered.py", "core.ordered"),
    ("core/slab.py", "core.slab"),
    ("core/slab_host.py", "core.slab"),
    ("memory/", "memory"),
    ("dram/", "dram"),
    ("pcie/", "pcie"),
    ("network/", "network"),
    ("client/client.py", "client"),
    ("client/robust.py", "client"),
    ("client/router.py", "client.router"),
    ("multi/", "multi"),
    ("workloads/", "workloads"),
    ("obs/", "obs"),
    ("faults/", "faults"),
    ("driver.py", "driver"),
)

#: End-to-end metrics that repeat to the last digit for a fixed seed:
#: compared for equality first, and a host-only change must not move the
#: simulated ones at all.
EXACT_END_TO_END = frozenset({
    "host_calls_per_op",
    "sim_throughput_mops",
    "sim_latency_p50_ns",
    "sim_latency_p99_ns",
    "dma_per_op",
    "completed_op_share",
})


def load_benchmark() -> dict:
    """The contract file at the root of the checkout."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def metric_units(spec: dict, kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def workload_names(spec: dict) -> List[str]:
    return [workload["name"] for workload in spec["workloads"]]
