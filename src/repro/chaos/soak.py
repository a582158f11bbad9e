"""Chaos soak: faults + overload bursts + differential checking, seeded.

One soak run drives the full timed stack (decoder, admission, station,
memory engine) with per-key driver chains whose arrival schedule
alternates calm phases with seeded **overload bursts** at 2-4x the probed
capacity, while a :class:`~repro.faults.plan.FaultPlan` injects hardware
misbehaviour underneath.  Throughout the run every response is checked
against an independent dict-based reference model, and failed operations
are reconciled against the store's actual state (a fault after functional
execution means the op *was* applied; one before means it was not - both
are legal, anything else is a divergence).

Invariants (:meth:`SoakReport.check`):

- **accounting** - every submitted op is completed, shed, expired, or
  failed; nothing is lost or double-counted,
- **zero divergence** - the store never disagrees with the model,
- **goodput floor** - completed / submitted stays above the configured
  floor even with bursts and faults active,
- **per-key ordering** - each driver submits its next op only after the
  previous one settled, and the model applies them in that order; the
  final store == model comparison would catch any reordering,
- **determinism** - :meth:`SoakReport.digest` (schedule + outcomes +
  fault log) is byte-identical across runs of the same config.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterator, List, Optional, Tuple

from repro import scenario
from repro.chaos.overload import probe_capacity
from repro.client.robust import CircuitBreaker, RetryBudget
from repro.client.router import ClusterRouter
from repro.core.admission import OverloadPolicy
from repro.core.operations import KVOperation, OpType
from repro.core.vector import FETCH_ADD
from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    KVDirectError,
    ServerBusy,
)
from repro.faults.plan import FaultPlan
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer

#: Fraction of the kill target's expected arrivals after which a
#: ``kill_node`` soak takes it down (mid-run, deterministically).
_KILL_FRACTION = 0.4

#: Host memory of every soak stack and of its capacity probe.
MEMORY_SIZE = 4 << 20
#: Arrival-schedule shape, read when a schedule is built: ``PHASE_OPS``
#: per phase, calm phases at ``CALM_MULTIPLIER`` x capacity, burst phases
#: drawn uniformly from ``[BURST_LOW, BURST_HIGH]`` x capacity.
PHASE_OPS = 10
CALM_MULTIPLIER = 0.8
BURST_LOW = 2.0
BURST_HIGH = 4.0

#: The robustness counters every soak report carries (zeros outside
#: cluster mode), so retry-behaviour regressions show up next to goodput.
_ROBUSTNESS_KEYS = (
    "node_down_retries",
    "wrong_epoch_retries",
    "retry_give_ups",
    "breaker_fast_fails",
    "breaker_opens",
    "budget_spent",
    "budget_refused",
)

_MASK64 = (1 << 64) - 1
_Q = struct.Struct("<q")


def _wrap64(value: int) -> int:
    value &= _MASK64
    return value - (1 << 64) if value >= 1 << 63 else value


class _RefModel:
    """Reference semantics over a plain dict, re-derived with struct.

    Independent of the store's value machinery on purpose (the test
    suite's differential model follows the same discipline): a bug shared
    between the store and its helpers cannot hide behind itself.
    """

    def __init__(self) -> None:
        self.state: Dict[bytes, bytes] = {}

    def apply(self, op: KVOperation) -> Tuple[bool, Optional[bytes]]:
        if op.op is OpType.GET:
            value = self.state.get(op.key)
            return value is not None, value
        if op.op is OpType.PUT:
            self.state[op.key] = op.value
            return True, None
        if op.op is OpType.DELETE:
            return self.state.pop(op.key, None) is not None, None
        # UPDATE_SCALAR / fetch-add on the first 8-byte element.
        current = self.state.get(op.key)
        if current is None:
            return False, None
        (delta,) = _Q.unpack(op.param)
        (old,) = _Q.unpack(current[:8])
        self.state[op.key] = _Q.pack(_wrap64(old + delta)) + current[8:]
        return True, current[:8]


@dataclass(frozen=True)
class SoakConfig:
    """Everything one chaos-soak run depends on; fully seed-determined."""

    seed: int = 0
    #: Server stacks to shard the soak across (key-hash routed).  The
    #: default single shard keeps the original soak byte-identical.
    num_shards: int = 1
    #: Independent per-key driver chains (also the key-space size).
    num_keys: int = 16
    #: Operations each driver submits, strictly in order.
    ops_per_key: int = 40
    #: Station capacity during the soak.  Deliberately small relative to
    #: ``num_keys`` so the 2-4x bursts genuinely overflow admission - the
    #: paper-scale 256-token station would absorb a 16-driver burst
    #: without ever shedding.
    max_inflight: int = 8
    #: Overload policy under test; ``None`` soaks the blocking ingress.
    overload: Optional[OverloadPolicy] = OverloadPolicy(queue_depth=4)
    #: Hardware faults active underneath the overload.
    fault_plan: Optional[FaultPlan] = None
    #: Per-op deadline budget stamped at submission (``None`` = none).
    deadline_budget_ns: Optional[float] = None
    #: Invariant: completed / submitted must stay at or above this.
    goodput_floor: float = 0.5
    #: Replicated cluster nodes to soak instead of plain shards (0 = the
    #: classic sharded soak; >= 1 routes through a
    #: :class:`~repro.client.router.ClusterRouter` over a
    #: :class:`~repro.multi.cluster.Cluster`).
    cluster_nodes: int = 0
    #: Placement-directory slots in cluster mode.
    cluster_slots: int = 8
    #: Kill one primary mid-soak (cluster mode only; needs a backup to
    #: promote, so at least two nodes).
    kill_node: bool = False

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ConfigurationError("soak needs at least one shard")
        if self.cluster_nodes < 0:
            raise ConfigurationError("cluster_nodes must be non-negative")
        if self.cluster_nodes and self.num_shards != 1:
            raise ConfigurationError(
                "cluster mode replaces sharding: leave num_shards at 1"
            )
        if self.cluster_slots <= 0:
            raise ConfigurationError("cluster needs at least one slot")
        if self.kill_node and self.cluster_nodes < 2:
            raise ConfigurationError(
                "kill_node needs a cluster of at least two nodes "
                "(a backup must exist to promote)"
            )
        if self.num_keys <= 0 or self.ops_per_key <= 0:
            raise ConfigurationError("soak needs keys and ops")
        if not 0.0 <= self.goodput_floor <= 1.0:
            raise ConfigurationError("goodput floor must be in [0, 1]")



@dataclass
class SoakReport:
    """Outcome + invariant evidence of one soak run."""

    seed: int
    submitted: int = 0
    completed: int = 0
    shed: int = 0
    expired: int = 0
    failed: int = 0
    #: Failed ops whose effect *had* been applied before the fault.
    reconciled_applied: int = 0
    elapsed_ns: float = 0.0
    capacity_mops: float = 0.0
    faults_fired: int = 0
    final_state_matches: bool = False
    divergences: List[str] = field(default_factory=list)
    digest: str = ""
    goodput_floor: float = 0.0
    #: Client retry/fast-fail counters (zeros outside cluster mode).
    robustness: Dict[str, int] = field(
        default_factory=lambda: {key: 0 for key in _ROBUSTNESS_KEYS}
    )
    #: Cluster evidence (epoch, failover/replication counters) or None.
    cluster: Optional[dict] = None
    #: Timeline evidence (window count, digest, phase annotations) when a
    #: sampler was attached; None - and absent from nothing - otherwise,
    #: so reports without a timeline stay byte-identical run to run.
    timeline: Optional[dict] = None

    @property
    def goodput(self) -> float:
        return self.completed / self.submitted if self.submitted else 0.0

    def check(self) -> List[str]:
        """Violated invariants (empty list = the soak passed)."""
        problems = list(self.divergences)
        accounted = self.completed + self.shed + self.expired + self.failed
        if accounted != self.submitted:
            problems.append(
                f"accounting hole: {self.submitted} submitted but "
                f"{accounted} accounted for"
            )
        if not self.final_state_matches:
            problems.append("final store state diverged from the model")
        if self.goodput < self.goodput_floor:
            problems.append(
                f"goodput {self.goodput:.3f} below the "
                f"{self.goodput_floor:.3f} floor"
            )
        return problems

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "submitted": self.submitted,
            "completed": self.completed,
            "shed": self.shed,
            "expired": self.expired,
            "failed": self.failed,
            "reconciled_applied": self.reconciled_applied,
            "goodput": round(self.goodput, 6),
            "goodput_floor": self.goodput_floor,
            "elapsed_ns": round(self.elapsed_ns, 3),
            "capacity_mops": round(self.capacity_mops, 6),
            "faults_fired": self.faults_fired,
            "final_state_matches": self.final_state_matches,
            "divergences": list(self.divergences),
            "digest": self.digest,
            "robustness": dict(self.robustness),
            "cluster": dict(self.cluster) if self.cluster else None,
            "timeline": dict(self.timeline) if self.timeline else None,
            "ok": not self.check(),
        }


class _Soak:
    """One run's mutable state; :func:`run_soak` is the public entry."""

    def __init__(self, cfg: SoakConfig, tracer: Optional[Tracer]) -> None:
        self.cfg = cfg
        built = scenario.build(
            seed=cfg.seed,
            memory_size=MEMORY_SIZE,
            shards=cfg.num_shards,
            nodes=cfg.cluster_nodes,
            slots=cfg.cluster_slots,
            tracer=tracer,
            max_inflight=cfg.max_inflight,
            overload=cfg.overload,
            fault_plan=cfg.fault_plan,
        )
        self.sim = built.sim
        self.cluster = built.cluster
        #: What the soak observes and reconciles against: the cluster
        #: when there is one, else the shard server.  Both answer
        #: ``owner(key)``, ``primary_state()``, ``faults_fired``,
        #: ``fault_digest_lines()`` and the observability attach points.
        self.topology = built.topology
        self.router: Optional[ClusterRouter] = None
        #: ``perform(op, deadline_ns, then)`` -> ``then(result, error)``:
        #: direct submit to the owning shard, or the cluster router's
        #: retry loop.
        self.perform = self._submit_direct
        if self.cluster is not None:
            self.router = ClusterRouter(
                self.sim,
                self.cluster,
                seed=cfg.seed,
                retry_budget=RetryBudget(
                    capacity=256.0, refill_per_success=0.5
                ),
                breaker=CircuitBreaker(
                    clock=lambda: self.sim.now,
                    window_ns=1_000_000.0,
                    failure_threshold=0.9,
                    min_samples=20,
                    open_ns=50_000.0,
                ),
            )
            self.perform = self.router.perform
        self.model = _RefModel()
        self.report = SoakReport(
            seed=cfg.seed, goodput_floor=cfg.goodput_floor
        )
        import hashlib

        self._hash = hashlib.sha256()
        self.schedule = self._build_schedule()
        if cfg.kill_node and self.cluster is not None:
            # Deterministic mid-run kill: the primary of the first soak
            # key's slot dies once it has accepted ~40% of its expected
            # share of arrivals - a pure function of the configuration.
            target = self.cluster.map.primary(
                self.cluster.map.slot_of(b"soak0000")
            )
            total_ops = cfg.num_keys * cfg.ops_per_key
            accepts = max(1, int(
                _KILL_FRACTION * total_ops / cfg.cluster_nodes
            ))
            self.cluster.kill_after_accepts(target, accepts)
            self._hash.update(
                f"kill|{target}|{accepts}\n".encode()
            )

    # -- deterministic schedule -------------------------------------------

    def _capacity(self) -> float:
        """Ops per ns, probed on a clean copy of the same geometry."""
        ops_per_ns = probe_capacity(
            memory_size=MEMORY_SIZE, seed=self.cfg.seed, num_ops=500
        )
        self.report.capacity_mops = ops_per_ns * 1e3
        return ops_per_ns

    def _op_for(self, rng: random.Random, key: bytes, seq: int) -> KVOperation:
        kind = rng.randrange(10)
        if kind < 4:
            return KVOperation.get(key, seq=seq)
        if kind < 7:
            nelems = rng.choice((1, 2, 4))
            value = b"".join(
                _Q.pack(_wrap64(rng.randrange(-1 << 40, 1 << 40)))
                for __ in range(nelems)
            )
            return KVOperation.put(key, value, seq=seq)
        if kind < 8:
            return KVOperation.delete(key, seq=seq)
        return KVOperation.update(
            key, FETCH_ADD, _Q.pack(rng.randrange(-1000, 1000)), seq=seq
        )

    def _build_schedule(self) -> List[List[Tuple[KVOperation, float]]]:
        """Per-driver (op, arrival gap ns) lists; pure function of config."""
        cfg = self.cfg
        capacity = self._capacity()
        phases = (cfg.ops_per_key + PHASE_OPS - 1) // PHASE_OPS
        phase_rng = random.Random(f"soak:{cfg.seed}:phases")
        multipliers = [
            CALM_MULTIPLIER
            if phase % 2 == 0
            else phase_rng.uniform(BURST_LOW, BURST_HIGH)
            for phase in range(phases)
        ]
        #: Kept for timeline phase annotation (report.timeline["phases"]).
        self.phase_multipliers = multipliers
        schedule: List[List[Tuple[KVOperation, float]]] = []
        for key_idx in range(cfg.num_keys):
            key = b"soak%04d" % key_idx
            rng = random.Random(f"soak:{cfg.seed}:key:{key_idx}")
            driver: List[Tuple[KVOperation, float]] = []
            for i in range(cfg.ops_per_key):
                seq = key_idx * cfg.ops_per_key + i
                op = self._op_for(rng, key, seq)
                mult = multipliers[i // PHASE_OPS]
                # Aggregate offered load = num_keys / gap = mult * capacity.
                gap = cfg.num_keys / (mult * capacity)
                driver.append((op, gap))
                self._hash.update(
                    f"sched|{key_idx}|{i}|{op.op.name}|{gap!r}\n".encode()
                )
            schedule.append(driver)
        return schedule

    # -- drivers -----------------------------------------------------------

    def _submit_direct(
        self, op: KVOperation, deadline_ns: Optional[float], then
    ) -> None:
        self.topology.submit(op, deadline_ns=deadline_ns).add_callback(
            lambda event: then(event._value, event._exception)
        )

    def _next_op(self, key_idx: int, ops: Iterator, _kick=None) -> None:
        """One driver: each op arrives its gap after the previous one
        settled; the last driver to run dry ends the run."""
        item = next(ops, None)
        if item is None:
            self._drivers -= 1
            if not self._drivers:
                # The last driver's completion, then the every-driver-done
                # entry the simulator stops at.
                self.sim.call_soon(lambda _kick: self.sim.finish(self._done))
            return
        i, (op, gap) = item
        self.sim.call_after(
            gap, partial(self._submit, key_idx, ops, i, op)
        )

    def _submit(self, key_idx: int, ops: Iterator, i: int, op, _kick) -> None:
        cfg = self.cfg
        deadline = (
            self.sim.now + cfg.deadline_budget_ns
            if cfg.deadline_budget_ns is not None
            else None
        )
        self.report.submitted += 1
        self.perform(op, deadline, partial(self._settled, key_idx, ops, i, op))

    def _settled(
        self, key_idx: int, ops: Iterator, i: int, op, result, error
    ) -> None:
        outcome = "ok"
        if error is None:
            self.report.completed += 1
            self._check_response(op, result)
        elif isinstance(error, ServerBusy):
            self.report.shed += 1
            outcome = "shed"
            self._reconcile_failure(op)
        elif isinstance(error, DeadlineExceeded):
            self.report.expired += 1
            outcome = f"expired:{error.stage}"
            self._reconcile_failure(op)
        elif isinstance(error, KVDirectError):
            self.report.failed += 1
            outcome = f"failed:{type(error).__name__}"
            self._reconcile_failure(op)
        else:
            raise error
        self._hash.update(
            f"out|{key_idx}|{i}|{op.seq}|{outcome}\n".encode()
        )
        self._next_op(key_idx, ops)

    def _check_response(self, op: KVOperation, result) -> None:
        ok, value = self.model.apply(op)
        if result.ok != ok or result.value != value:
            self.report.divergences.append(
                f"seq {op.seq}: response mismatch on {op.op.name} "
                f"{op.key!r}: got (ok={result.ok}, {result.value!r}), "
                f"model says (ok={ok}, {value!r})"
            )

    def _reconcile_failure(self, op: KVOperation) -> None:
        """A failed op must have been atomic: applied fully or not at all.

        Shed and deadline failures happen before execution, so the store
        must match the model's *before* state.  A hardware fault during
        timing replay fires after functional execution, so the *after*
        state is equally legal - apply it to the model too.  Anything in
        between is a divergence.
        """
        before = self.model.state.get(op.key)
        actual = self.topology.owner(op.key).store.peek(op.key)
        if actual == before:
            return
        self.model.apply(op)
        if self.model.state.get(op.key) == actual:
            self.report.reconciled_applied += 1
            return
        # Revert the speculative apply and record the divergence.
        if before is None:
            self.model.state.pop(op.key, None)
        else:
            self.model.state[op.key] = before
        self.report.divergences.append(
            f"seq {op.seq}: failed {op.op.name} on {op.key!r} left the "
            f"store at {actual!r}, neither before ({before!r}) nor after"
        )

    # -- run ---------------------------------------------------------------

    def run(self) -> SoakReport:
        sim = self.sim
        self._drivers = self.cfg.num_keys
        self._done = sim.event()
        for key_idx in range(self.cfg.num_keys):
            sim.call_soon(partial(
                self._next_op, key_idx, enumerate(self.schedule[key_idx])
            ))
        sim.run(self._done)
        report = self.report
        if self.cluster is not None:
            # Let replication channels drain and any in-flight failover
            # finish before the replicas are compared differentially.
            quiesced = sim.event()
            self.cluster.quiesce(partial(sim.finish, quiesced))
            sim.run(quiesced)
        report.elapsed_ns = self.sim.now
        report.final_state_matches = (
            self.topology.primary_state() == self.model.state
        )
        report.faults_fired = self.topology.faults_fired
        for line in self.topology.fault_digest_lines():
            self._hash.update(f"faults|{line}\n".encode())
        if self.cluster is not None:
            cluster = self.cluster
            report.divergences.extend(cluster.replication_divergences())
            # Both comparisons above read the stores through the cluster's
            # key directory; hold the directory itself to a bucket walk.
            report.divergences.extend(cluster.directory_divergences())
            self._hash.update(f"epoch|{cluster.map.epoch}\n".encode())
            report.robustness = self.router.robustness_snapshot()
            report.cluster = {
                "nodes": len(cluster.nodes),
                "alive_nodes": cluster.alive_nodes,
                "slots": cluster.map.num_slots,
                "epoch": cluster.map.epoch,
                "epoch_bumps": cluster.counters.get("epoch_bumps"),
                "failovers": cluster.counters.get("failovers"),
                "promotions": cluster.counters.get("promotions"),
                "migrated_keys": cluster.counters.get("migrated_keys"),
                "replication_records": cluster.counters.get(
                    "replication_records"
                ),
                "replication_applies": cluster.counters.get(
                    "replication_applies"
                ),
                "replication_skipped": cluster.counters.get(
                    "replication_skipped"
                ),
                "replication_lag_p99_ns": (
                    round(cluster.replication_lag_ns.percentile(99), 3)
                    if cluster.replication_lag_ns.count
                    else None
                ),
                "failover_time_ns": [
                    round(sample, 3)
                    for sample in cluster.failover_time_ns.samples()
                ],
            }
        report.digest = self._hash.hexdigest()
        return report


def run_soak(
    config: Optional[SoakConfig] = None,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
    timeline=None,
    recorder=None,
) -> SoakReport:
    """Run one chaos soak; see the module docstring for the invariants.

    When ``registry`` is given every layer's metrics (including the
    ingress/shed counters) are registered on it before the run, so the
    caller can export them afterwards.  When ``timeline`` (a
    :class:`~repro.obs.timeline.TimelineSampler`) is given it is bound
    to the soak's simulator, attached per shard (``nic<i>``) or per
    cluster node plus cluster-wide gauges, and run for the soak's
    duration; the report then carries a ``timeline`` section with the
    window count, digest, and the arrival schedule's phase annotations.
    When ``recorder`` (a :class:`~repro.obs.timeline.FlightRecorder`) is
    given, a failing soak triggers a ``soak_fail`` dump on it.
    """
    soak = _Soak(config or SoakConfig(), tracer)
    if registry is not None:
        soak.topology.register_metrics(registry)
        if soak.router is not None:
            soak.router.register_metrics(registry)
    if timeline is not None:
        soak.topology.attach_timeline(timeline)
        timeline.start()
    report = soak.run()
    if timeline is not None:
        timeline.finish()
        report.timeline = {
            "window_ns": timeline.window_ns,
            "windows": timeline.windows,
            "digest": timeline.digest(),
            "phases": [
                {
                    "phase": index,
                    "kind": "calm" if index % 2 == 0 else "burst",
                    "multiplier": round(multiplier, 6),
                }
                for index, multiplier in enumerate(soak.phase_multipliers)
            ],
        }
    if recorder is not None and report.check():
        recorder.trigger("soak_fail", soak.sim.now)
    return report
