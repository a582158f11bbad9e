"""DMA cost audit: measured memory-system cost vs. the paper's predictions.

KV-Direct's headline numbers are *cost-model* claims (docs/MODELING.md):

- **~1 memory access per GET** - with the hash index ratio tuned and
  values inlined, a lookup is one bucket read (section 3.3.1, the model
  behind Figure 10's "memory accesses per KV operation").
- **~2 memory accesses per PUT** - one bucket read plus one write for an
  inline update (same model; Table 1's "PUT (inline) 2" row).
- **< 0.1 DMA per allocation** - slab alloc/free amortizes entry
  synchronization over batches of 256 entries, measured at 0.07 DMA
  operations per alloc/free in section 3.3.2.

:func:`audit` compares those predictions against what a run actually
measured - the functional table accesses attributed per op class by
:class:`~repro.obs.profiler.StageProfiler` and the slab allocator's
amortized sync DMAs - and reports PASS / FAIL per check (``n/a`` when
the run exercised no ops of a class).  The denominator is ops that
*executed against memory* (completed minus forwarded): the predictions
model the hash table's access cost, and an op resolved by the
reservation station's data forwarding deliberately never touches it -
a high forwarding rate is the out-of-order engine working, not the hash
table beating the model.  Post-cache PCIe TLPs per op, the NIC-DRAM
cache hit rate and the forwarded share ride along as informational
rows: the paper predictions count *memory accesses* issued by the KV
processor; the NIC-DRAM cache absorbing some of them into non-PCIe
traffic is the load-dispatch design working as intended, not a
deviation.

Everything aggregates across shards: pass every shard's profiler (and
allocator) and the audit measures the whole server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.obs.profiler import StageProfiler

#: Predicted memory accesses per GET (section 3.3.1 / Figure 10 model).
PREDICTED_GET_ACCESSES = 1.0
#: Predicted memory accesses per inline PUT (Table 1, "PUT (inline)").
PREDICTED_PUT_ACCESSES = 2.0
#: Predicted memory accesses per inline PUT when the ordered index is
#: maintained alongside the hash table (docs/MODELING.md): the hash
#: table's 2 plus a leaf read + write-back, plus the amortized split
#: (2 extra accesses every LEAF_CAPACITY=16 inserts).
PREDICTED_ORDERED_PUT_ACCESSES = 4.125
#: Upper bound on amortized slab sync DMAs per alloc/free (section
#: 3.3.2; the paper measures 0.07).
SLAB_DMA_BOUND = 0.1

#: Default relative tolerance for the ~1 / ~2 predictions.
DEFAULT_TOLERANCE = 0.2


@dataclass
class AuditCheck:
    """One audited prediction: expected vs. measured, with a verdict."""

    name: str
    #: Where the prediction comes from in the paper.
    source: str
    #: ``approx`` - measured within ``tolerance`` (relative) of
    #: ``predicted``; ``upper`` - measured strictly below ``predicted``.
    kind: str
    predicted: float
    measured: Optional[float]
    tolerance: float = 0.0

    @property
    def status(self) -> str:
        """``PASS`` / ``FAIL``, or ``n/a`` when nothing was measured."""
        if self.measured is None:
            return "n/a"
        if self.kind == "upper":
            return "PASS" if self.measured < self.predicted else "FAIL"
        deviation = abs(self.measured - self.predicted) / self.predicted
        return "PASS" if deviation <= self.tolerance else "FAIL"

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "source": self.source,
            "kind": self.kind,
            "predicted": self.predicted,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "status": self.status,
        }


@dataclass
class AuditReport:
    """The full DMA cost audit: gated checks plus informational context."""

    checks: List[AuditCheck]
    #: Non-gating measurements (post-cache TLPs per op, cache hit rate).
    info: dict

    @property
    def passed(self) -> bool:
        """True when no check FAILed (``n/a`` checks don't gate)."""
        return all(check.status != "FAIL" for check in self.checks)

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "checks": [check.as_dict() for check in self.checks],
            "info": self.info,
        }

    def rows(self) -> List[List[str]]:
        """Terminal-table rows (``repro profile``)."""
        rows = []
        for check in self.checks:
            bound = (
                f"< {check.predicted:g}"
                if check.kind == "upper"
                else f"~{check.predicted:g} ±{check.tolerance:.0%}"
            )
            measured = (
                "n/a" if check.measured is None else f"{check.measured:.3f}"
            )
            rows.append(
                [check.name, bound, measured, check.status, check.source]
            )
        return rows


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def _class_ratio(
    profilers: Sequence[StageProfiler],
    name: str,
    attribute: str,
    executed_only: bool = True,
) -> Optional[float]:
    """Aggregate ``memory.<attribute>`` per op of one class across shards.

    With ``executed_only`` (the default) the denominator is ops that ran
    the memory stage (completed minus forwarded) - the population the
    paper's access-cost predictions are about.
    """
    total = denominator = 0
    for profiler in profilers:
        profile = profiler.classes.get(name)
        if profile is None:
            continue
        denominator += profile.completed
        if executed_only:
            denominator -= profile.forwarded
        total += getattr(profile.memory, attribute)
    return _ratio(total, denominator)


def audit(
    profilers: Sequence[StageProfiler],
    allocators: Iterable = (),
    tolerance: float = DEFAULT_TOLERANCE,
    ordered: bool = False,
) -> AuditReport:
    """Audit measured DMA-per-op against the paper's predictions.

    ``profilers`` are the per-shard stage profilers of a finished run;
    ``allocators`` the matching slab allocators (for the amortized
    alloc/free DMA bound).  A class nobody exercised audits as ``n/a``
    and does not gate the verdict.

    ``ordered`` means the run maintained the ordered index beside the
    hash table: every PUT then also pays the leaf read/write-back
    (docs/MODELING.md), so the PUT check audits against
    :data:`PREDICTED_ORDERED_PUT_ACCESSES` instead of the paper's
    hash-only ~2.  When the run completed RANGE/SCAN ops their measured
    accesses-per-op ride along as informational rows, for comparison
    against the ~1/GET baseline.
    """
    get_accesses = _class_ratio(profilers, "get", "table_accesses")
    put_accesses = _class_ratio(profilers, "put", "table_accesses")
    allocs = frees = sync_dmas = 0
    have_slab_ops = False
    for allocator in allocators:
        allocs += allocator.counters["allocs"]
        frees += allocator.counters["frees"]
        sync_dmas += allocator.sync_dmas
    have_slab_ops = (allocs + frees) > 0
    checks = [
        AuditCheck(
            name="accesses per GET",
            source="section 3.3.1 (Figure 10 model)",
            kind="approx",
            predicted=PREDICTED_GET_ACCESSES,
            measured=get_accesses,
            tolerance=tolerance,
        ),
        AuditCheck(
            name="accesses per PUT",
            source=(
                "Table 1 (inline PUT) + ordered leaf (docs/MODELING.md)"
                if ordered
                else "Table 1 (inline PUT)"
            ),
            kind="approx",
            predicted=(
                PREDICTED_ORDERED_PUT_ACCESSES
                if ordered
                else PREDICTED_PUT_ACCESSES
            ),
            measured=put_accesses,
            tolerance=tolerance,
        ),
        AuditCheck(
            name="slab DMAs per alloc/free",
            source="section 3.3.2 (0.07 measured)",
            kind="upper",
            predicted=SLAB_DMA_BOUND,
            measured=(
                _ratio(sync_dmas, allocs + frees) if have_slab_ops else None
            ),
        ),
    ]
    hits = misses = completed = forwarded = 0
    for profiler in profilers:
        for profile in profiler.classes.values():
            hits += profile.memory.cache_hits
            misses += profile.memory.cache_misses
            completed += profile.completed
            forwarded += profile.forwarded
    info = {
        "pcie_tlps_per_get": _class_ratio(profilers, "get", "dma_tlps"),
        "pcie_tlps_per_put": _class_ratio(profilers, "put", "dma_tlps"),
        "cache_hit_rate": _ratio(hits, hits + misses),
        "forwarded_share": _ratio(forwarded, completed),
    }
    # Ordered-op rows only when the run exercised them, so hash-only
    # profile exports stay byte-identical to pre-ordered-index runs.
    for scan_class in ("range", "scan"):
        accesses = _class_ratio(profilers, scan_class, "table_accesses")
        if accesses is not None:
            info[f"accesses_per_{scan_class}"] = accesses
            info[f"pcie_tlps_per_{scan_class}"] = _class_ratio(
                profilers, scan_class, "dma_tlps"
            )
    return AuditReport(checks=checks, info=info)
