"""Builders shared by the benchmark suite."""

from __future__ import annotations

import copy
import pathlib
import re
from typing import Dict, List, Optional, Tuple

from repro import scenario
from repro.core.operations import KVOperation
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.driver import run_closed_loop
from repro.obs import MetricsRegistry, StageProfiler
from repro.obs.bench_history import snapshot_from_run
from repro.sim import Simulator
from repro.workloads import KeySpace, WorkloadSpec, YCSBGenerator

#: Scaled-down default sizes: ratios (index ratio, NIC:host = 1:16,
#: utilization) match the paper; absolute sizes are laptop-scale.
DEFAULT_MEMORY = 8 << 20

#: Directory benchmark metric registries export to, set by conftest when
#: pytest runs with ``--export-metrics DIR``; None disables exporting.
EXPORT_METRICS_DIR: Optional[pathlib.Path] = None


#: Benchmark sweeps build the same pre-filled store for every (workload,
#: concurrency) cell.  Fill it once per (corpus, kv_size, memory) shape and
#: hand each cell an independent deep copy - the clone serves identical
#: reads and writes, so measured runs are unchanged, but setup drops from
#: a full refill to one copy.
_FILLED_STORE_CACHE: Dict[Tuple[int, int, int], Tuple[KeySpace, KVDirectStore]] = {}


def ycsb_setup(
    spec: WorkloadSpec,
    kv_size: int,
    corpus: int = 4000,
    memory_size: int = DEFAULT_MEMORY,
    ops: int = 5000,
) -> Tuple[Simulator, KVProcessor, List[KVOperation]]:
    """A processor pre-loaded with a YCSB corpus plus its op stream."""
    shape = (corpus, kv_size, memory_size)
    cached = _FILLED_STORE_CACHE.get(shape)
    if cached is None:
        built = scenario.build(
            memory_size=memory_size, corpus=corpus, kv_size=kv_size
        )
        cached = _FILLED_STORE_CACHE[shape] = (built.keyspace, built.store)
    keyspace, template = cached
    sim = Simulator()
    processor = KVProcessor(
        sim, copy.deepcopy(template), profiler=StageProfiler()
    )
    return sim, processor, YCSBGenerator(keyspace, spec).operations(ops)


def measure_throughput(
    processor: KVProcessor,
    ops: List[KVOperation],
    concurrency: int = 250,
    export_name: Optional[str] = None,
) -> dict:
    """Run the closed loop; optionally export the run's metrics registry.

    With ``export_name`` set and exporting enabled (pytest ran with
    ``--export-metrics DIR``), the processor's full registry is written to
    ``DIR/<export_name>.prom`` in Prometheus text format after the run,
    alongside the per-stage profile (``<export_name>.profile.json``) and a
    benchmark snapshot (``BENCH_<export_name>.json``).
    """
    stats = run_closed_loop(processor, ops, concurrency=concurrency)
    if export_name is not None:
        export_metrics(processor, export_name)
        export_profile(processor, export_name, stats)
    return stats


def export_metrics(
    processor: KVProcessor, name: str
) -> Optional[pathlib.Path]:
    """Write ``name.prom`` into the export directory, if one is set.

    Returns the written path, or None when exporting is disabled.
    """
    return export_registry(build_registry(processor), name)


def export_registry(
    registry: MetricsRegistry, name: str
) -> Optional[pathlib.Path]:
    """Write an already-built registry as ``name.prom``, if exporting.

    For benchmarks whose runners build the processor internally (e.g. the
    overload sweep) and hand back a pre-registered registry instead.
    """
    if EXPORT_METRICS_DIR is None:
        return None
    EXPORT_METRICS_DIR.mkdir(parents=True, exist_ok=True)
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", name)
    path = EXPORT_METRICS_DIR / f"{slug}.prom"
    path.write_text(registry.to_prometheus())
    return path


def export_profile(
    processor: KVProcessor, name: str, stats: dict
) -> Optional[pathlib.Path]:
    """Write ``name.profile.json`` + ``BENCH_name.json``, if exporting.

    The profile JSON is the attached :class:`StageProfiler`'s per-class
    stage/memory breakdown; the BENCH snapshot follows the
    :mod:`repro.obs.bench_history` schema so ``repro bench diff`` (and
    ``tools/check_bench.py``) accept it directly.  No-ops when exporting
    is disabled or the processor was built without a profiler.
    """
    if EXPORT_METRICS_DIR is None or processor.profiler is None:
        return None
    EXPORT_METRICS_DIR.mkdir(parents=True, exist_ok=True)
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", name)
    path = EXPORT_METRICS_DIR / f"{slug}.profile.json"
    path.write_text(processor.profiler.to_json())
    snapshot = snapshot_from_run(slug, processor, stats)
    snapshot.save(str(EXPORT_METRICS_DIR / f"BENCH_{slug}.json"))
    return path


def build_registry(processor: KVProcessor) -> MetricsRegistry:
    """The benchmark-standard registry: every processor layer registered."""
    return processor.register_metrics(MetricsRegistry())
