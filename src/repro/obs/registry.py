"""The metrics registry: one namespace over every component's counters.

Components keep their existing measurement objects
(:class:`~repro.sim.stats.Counter`, :class:`~repro.sim.stats.Histogram`,
:class:`~repro.dram.cache.CacheStats`, or a zero-argument gauge callable)
and register them under hierarchical dotted names.  The registry flattens
them on demand into a sorted ``{metric_name: value}`` mapping and renders
that as JSON or Prometheus text exposition format.

Naming scheme (see ``docs/OBSERVABILITY.md``): lower-case dotted paths,
``<layer>.<component>.<quantity>``, e.g. ``processor.main_pipeline_ops``,
``pcie.pcie0.dma_reads``, ``dram.cache.hit_rate``.  A :class:`Counter`
registered as ``station`` contributes one metric per key
(``station.issued``, ``station.forwarded``, ...); a :class:`Histogram`
registered as ``processor.latency_ns`` contributes ``.count``, ``.mean``,
``.min``, ``.max`` and the paper's percentiles.
"""

from __future__ import annotations

import json
import re
from typing import Callable, Dict, List, Tuple, Union

from repro.dram.cache import CacheStats
from repro.errors import ConfigurationError
from repro.sim.stats import Counter, Histogram

MetricSource = Union[Counter, Histogram, CacheStats, Callable[[], float]]

#: Dotted hierarchical metric names: ``processor.main_pipeline_ops``.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")

#: Prefix of every Prometheus metric name.
NAMESPACE = "kvdirect"

#: Histogram percentiles exported, matching the paper's quoted quantiles.
_HIST_PERCENTILES = (50, 95, 99)


def _prom_sanitize(name: str) -> str:
    """Dotted registry name -> legal Prometheus metric name component."""
    return name.replace(".", "_")


def _prom_value(value: float) -> str:
    """Render a sample value; integers stay integral for readability."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return str(int(value))
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class MetricsRegistry:
    """Hierarchical registry over heterogeneous metric sources.

    Registration keeps a *reference* to the source object, so the registry
    always exports live values - register once at construction time, export
    whenever.
    """

    def __init__(self) -> None:
        #: name -> (kind, source); insertion-ordered for stable export.
        self._sources: Dict[str, Tuple[str, MetricSource]] = {}

    # -- registration -------------------------------------------------------

    def register(self, name: str, source: MetricSource) -> MetricSource:
        """Register a metric source under a dotted hierarchical name.

        The kind is inferred: :class:`Counter`, :class:`Histogram`,
        :class:`CacheStats`, or any zero-argument callable (a gauge).
        Returns the source so registration can be chained at construction.
        """
        if isinstance(source, Counter):
            kind = "counter"
        elif isinstance(source, Histogram):
            kind = "histogram"
        elif isinstance(source, CacheStats):
            kind = "cache"
        elif callable(source):
            kind = "gauge"
        else:
            raise ConfigurationError(
                f"cannot register {type(source).__name__} as metric "
                f"{name!r}: expected Counter, Histogram, CacheStats or "
                f"a callable gauge"
            )
        self._register(name, kind, source)
        return source

    def register_gauge(
        self, name: str, fn: Callable[[], float]
    ) -> Callable[[], float]:
        """Register a zero-argument callable sampled at export time."""
        if not callable(fn):
            raise ConfigurationError(f"gauge {name!r} must be callable")
        self._register(name, "gauge", fn)
        return fn

    def _register(self, name: str, kind: str, source: MetricSource) -> None:
        if not _NAME_RE.match(name):
            raise ConfigurationError(
                f"bad metric name {name!r}: want lower-case dotted path "
                f"like 'processor.main_pipeline_ops'"
            )
        if name in self._sources:
            raise ConfigurationError(f"metric {name!r} already registered")
        self._sources[name] = (kind, source)

    def __contains__(self, name: str) -> bool:
        return name in self._sources

    # -- collection ---------------------------------------------------------

    def collect(self) -> Dict[str, float]:
        """Flatten every source into a name-sorted ``{metric: value}``."""
        flat: Dict[str, float] = {}
        for name, (kind, source) in self._sources.items():
            if kind == "counter":
                for key, value in source.snapshot().items():
                    flat[f"{name}.{key}"] = value
            elif kind == "histogram":
                flat[f"{name}.count"] = source.count
                if source.count:
                    flat[f"{name}.mean"] = source.mean()
                    flat[f"{name}.min"] = source.min()
                    flat[f"{name}.max"] = source.max()
                    for pct in _HIST_PERCENTILES:
                        flat[f"{name}.p{pct}"] = source.percentile(pct)
            elif kind == "cache":
                flat[f"{name}.hits"] = source.hits
                flat[f"{name}.misses"] = source.misses
                flat[f"{name}.evictions"] = source.evictions
                flat[f"{name}.writebacks"] = source.writebacks
                flat[f"{name}.hit_rate"] = source.hit_rate()
            else:  # gauge
                flat[name] = float(source())
        return dict(sorted(flat.items()))

    # -- export -------------------------------------------------------------

    def to_json(self, indent: int = 2) -> str:
        """The flattened registry as a JSON object, keys sorted."""
        return json.dumps(self.collect(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4), one family per source.

        Counters and cache hit counts become ``counter`` families;
        histograms become ``summary`` families with quantile labels;
        gauges and derived rates become ``gauge`` families.

        Every family name - including derived ones like the cache
        ``*_hit_rate`` gauge - is routed through :func:`_prom_sanitize`,
        and a ``# TYPE`` line is emitted at most once per family: a
        :class:`CacheStats` registered as ``x`` derives the same
        ``<ns>_x_hit_rate`` family an independently registered
        ``x.hit_rate`` gauge maps to, and a re-declaration would be
        rejected by scrapers (and ``tools/check_prom.py``).
        """
        lines: List[str] = []
        declared: set = set()

        def declare(family: str, kind: str) -> None:
            if family not in declared:
                declared.add(family)
                lines.append(f"# TYPE {family} {kind}")

        for name, (kind, source) in sorted(self._sources.items()):
            base = f"{NAMESPACE}_{_prom_sanitize(name)}"
            if kind == "counter":
                snapshot = source.snapshot()
                if not snapshot:
                    continue
                declare(base, "counter")
                for key, value in sorted(snapshot.items()):
                    lines.append(
                        f"{base}_{_prom_sanitize(key)} {_prom_value(value)}"
                    )
            elif kind == "histogram":
                declare(base, "summary")
                if source.count:
                    for pct in _HIST_PERCENTILES:
                        lines.append(
                            f'{base}{{quantile="{pct / 100}"}} '
                            f"{_prom_value(source.percentile(pct))}"
                        )
                    total = source.mean() * source.count
                    lines.append(f"{base}_sum {_prom_value(total)}")
                lines.append(f"{base}_count {source.count}")
            elif kind == "cache":
                declare(base, "counter")
                for key in ("hits", "misses", "evictions", "writebacks"):
                    lines.append(
                        f"{base}_{_prom_sanitize(key)} "
                        f"{_prom_value(getattr(source, key))}"
                    )
                rate = (
                    f"{NAMESPACE}_{_prom_sanitize(f'{name}.hit_rate')}"
                )
                declare(rate, "gauge")
                lines.append(f"{rate} {_prom_value(source.hit_rate())}")
            else:  # gauge
                declare(base, "gauge")
                lines.append(f"{base} {_prom_value(float(source()))}")
        return "\n".join(lines) + "\n"
