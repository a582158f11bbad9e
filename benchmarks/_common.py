"""Metric exports shared by the benchmark suite."""

from __future__ import annotations

import pathlib
import re
from typing import Dict, Optional

from repro.core.processor import KVProcessor
from repro.obs import MetricsRegistry
from repro.obs.bench_history import snapshot_from_run

#: Directory benchmark metric registries export to, set by conftest when
#: pytest runs with ``--export-metrics DIR``; None disables exporting.
EXPORT_METRICS_DIR: Optional[pathlib.Path] = None


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)


def export_registry(
    registry: MetricsRegistry, name: str
) -> Optional[pathlib.Path]:
    """Write a registry as ``name.prom`` into the export directory, if one
    is set.  Returns the written path, or None when exporting is disabled.
    """
    if EXPORT_METRICS_DIR is None:
        return None
    EXPORT_METRICS_DIR.mkdir(parents=True, exist_ok=True)
    path = EXPORT_METRICS_DIR / f"{_slug(name)}.prom"
    path.write_text(registry.to_prometheus())
    return path


def export_profile(
    processor: KVProcessor, name: str, stats: Dict[str, float]
) -> Optional[pathlib.Path]:
    """Write ``name.profile.json`` + ``BENCH_name.json``, if exporting.

    The profile JSON is the attached :class:`StageProfiler`'s per-class
    stage/memory breakdown; the BENCH snapshot follows the
    :mod:`repro.obs.bench_history` schema so ``repro bench diff`` (and
    ``tools/check_bench.py``) accept it directly.  ``stats`` is the run's
    result dict (``RouterStats.as_dict()``: no wall-clock fields, so the
    snapshot's are null).  No-ops when exporting is disabled or the
    processor was built without a profiler.
    """
    if EXPORT_METRICS_DIR is None or processor.profiler is None:
        return None
    EXPORT_METRICS_DIR.mkdir(parents=True, exist_ok=True)
    slug = _slug(name)
    path = EXPORT_METRICS_DIR / f"{slug}.profile.json"
    path.write_text(processor.profiler.to_json())
    snapshot = snapshot_from_run(slug, processor, stats)
    snapshot.save(str(EXPORT_METRICS_DIR / f"BENCH_{slug}.json"))
    return path
