"""Deterministic fault scheduling.

A :class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan` into
a reproducible schedule.  Every fault *site* (a named place in a hardware
model that can misbehave - ``"pcie0.drop"``, ``"dram.ecc"``,
``"eth.rx.loss"``, ``"slab.exhaust"``) draws from its own seeded RNG
stream, so:

- two runs with the same config produce **byte-identical** fault schedules
  (asserted via :meth:`FaultInjector.schedule_digest`), and
- adding traffic at one site never perturbs the schedule of another.

The injector also keeps the authoritative log of every fault that fired
(:class:`FaultEvent` records) and per-site counters, which chaos tests use
to assert both that faults actually happened and that the system absorbed
them.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.faults.plan import FaultPlan
from repro.sim.stats import Counter


@dataclass(frozen=True)
class FaultEvent:
    """One fault that fired."""

    #: Site-local ordinal (how many faults this site fired before this one).
    index: int
    #: Fault site, e.g. ``"pcie0.drop"``.
    site: str
    #: Fault kind, e.g. ``"dma_drop"``.
    kind: str
    #: Simulated time the fault fired, or -1.0 for untimed (functional)
    #: sites.
    at_ns: float = -1.0
    detail: str = ""


class FaultInjector:
    """Seed-reproducible fault scheduler shared by one store/processor stack."""

    def __init__(self, plan: Optional[FaultPlan] = None, seed: int = 0) -> None:
        self.plan = plan or FaultPlan()
        self.seed = seed
        self._rngs: Dict[str, random.Random] = {}
        self._site_counts: Dict[str, int] = {}
        self.log: List[FaultEvent] = []
        self.counters = Counter()

    # -- RNG streams -------------------------------------------------------

    def rng(self, site: str) -> random.Random:
        """The dedicated RNG stream of one fault site.

        Seeded from ``(injector seed, plan salt, site name)`` via string
        seeding (hashed with SHA-512 by :class:`random.Random`), which is
        stable across processes and Python versions.
        """
        stream = self._rngs.get(site)
        if stream is None:
            stream = random.Random(
                f"{self.seed}:{self.plan.seed_salt}:{site}"
            )
            self._rngs[site] = stream
        return stream

    # -- firing ------------------------------------------------------------

    def fire(
        self,
        site: str,
        kind: str,
        prob: float,
        now: Optional[float] = None,
        detail: str = "",
    ) -> bool:
        """Draw one fault decision for ``site``; True if the fault fires.

        The draw is taken whenever ``prob > 0`` - even outside the active
        window - so the site's schedule depends only on how many
        opportunities it saw, not on when they happened.  A draw that
        lands inside the probability but outside the window is counted as
        suppressed and does not fire.
        """
        if prob <= 0.0:
            return False
        hit = self.rng(site).random() < prob
        if not hit:
            return False
        if now is not None and not self.plan.window.contains(now):
            self.counters.add(f"{site}.suppressed")
            return False
        index = self._site_counts.get(site, 0)
        self._site_counts[site] = index + 1
        self.log.append(
            FaultEvent(
                index=index,
                site=site,
                kind=kind,
                at_ns=-1.0 if now is None else now,
                detail=detail,
            )
        )
        self.counters.add(f"{site}.{kind}")
        return True

    # -- the DMA and slab draws ---------------------------------------------

    def dma_delay(self, site: str, now: float) -> bool:
        return self.fire(
            f"{site}.delay", "dma_delay", self.plan.dma_delay_prob, now
        )

    def dma_drop(self, site: str, now: float, prob: Optional[float] = None) -> bool:
        if prob is None:
            prob = self.plan.dma_drop_prob
        return self.fire(f"{site}.drop", "dma_drop", prob, now)

    def slab_exhausted(self, detail: str = "") -> bool:
        return self.fire(
            "slab.exhaust",
            "slab_exhausted",
            self.plan.slab_exhaust_prob,
            detail=detail,
        )

    # -- reproducibility ---------------------------------------------------

    @property
    def fired(self) -> int:
        """Total faults fired across all sites."""
        return len(self.log)

    def schedule_digest(self) -> str:
        """SHA-256 over the canonical rendering of the fault log.

        Two runs of the same configuration must produce identical digests;
        this is the byte-identical-schedule guarantee chaos tests assert.
        """
        digest = hashlib.sha256()
        for event in self.log:
            digest.update(
                f"{event.index}|{event.site}|{event.kind}|"
                f"{event.at_ns!r}|{event.detail}\n".encode()
            )
        return digest.hexdigest()
