"""Offered-load sweeps: the graceful-degradation curves.

An open-loop arrival process (ops at a fixed rate, *not* waiting for
responses - that is what creates overload) drives one processor at a
multiple of its measured capacity.  With an
:class:`~repro.core.admission.OverloadPolicy` configured the server sheds
the excess and goodput holds near peak with bounded latency; without one
the unbounded ingress queue holds every arrival and latency grows with
the backlog.  ``repro overload`` exports both curves side by side.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro import scenario
from repro.core.admission import OverloadPolicy
from repro.core.operations import KVOperation
from repro.core.processor import KVProcessor
from repro.driver import run_closed_loop
from repro.errors import DeadlineExceeded, ServerBusy
from repro.obs.registry import MetricsRegistry
from repro.sim.stats import mops

#: Key-space breadth of the sweep workload.  Wide on purpose: a hot set
#: would let the reservation station resolve most ops by data forwarding
#: (one per clock), silently absorbing several times the memory-bound
#: capacity and hiding the overload the sweep exists to measure.
_NUM_KEYS = 1024
_VALUE = b"\x11" * 32


def _workload(seed: int, num_ops: int) -> List[KVOperation]:
    """A seeded GET-heavy mix (reads 70 %, writes 30 %), uniform keys."""
    rng = random.Random(f"overload:{seed}")
    ops: List[KVOperation] = []
    for seq in range(num_ops):
        key = b"ov%04d" % rng.randrange(_NUM_KEYS)
        if rng.random() < 0.7:
            ops.append(KVOperation.get(key, seq=seq))
        else:
            ops.append(KVOperation.put(key, _VALUE, seq=seq))
    return ops


def _processor(
    memory_size: int, seed: int, overload: Optional[OverloadPolicy]
) -> KVProcessor:
    """One NIC over the sweep corpus, with or without a shed policy."""
    built = scenario.build(
        seed=seed, memory_size=memory_size, overload=overload
    )
    for idx in range(_NUM_KEYS):
        built.store.put(b"ov%04d" % idx, _VALUE)
    return built.processor


def probe_capacity(
    memory_size: int = 4 << 20, seed: int = 0, num_ops: int = 2000
) -> float:
    """Peak sustainable throughput in ops per simulated ns.

    Measured with a closed loop (fixed concurrency, zero faults, no
    overload policy) - the denominator every offered-load multiplier in
    the sweep and the soak harness is relative to.
    """
    processor = _processor(memory_size, seed, overload=None)
    stats = run_closed_loop(processor, _workload(seed, num_ops))
    return num_ops / stats["elapsed_ns"]


def run_point(
    multiplier: float,
    shed: bool,
    capacity_ops_per_ns: float,
    seed: int = 0,
    num_ops: int = 2000,
    memory_size: int = 4 << 20,
    queue_depth: int = 64,
    shed_policy: str = "reject-new",
    deadline_budget_ns: Optional[float] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, float]:
    """One sweep point: open-loop arrivals at ``multiplier`` x capacity.

    When ``registry`` is given, every processor layer (including the
    ingress/shed counters) is registered on it before the run, so the
    caller can export this point's metrics afterwards.
    """
    overload = (
        OverloadPolicy(queue_depth=queue_depth, shed_policy=shed_policy)
        if shed
        else None
    )
    processor = _processor(memory_size, seed, overload)
    sim = processor.sim
    if registry is not None:
        processor.register_metrics(registry)
    ops = _workload(seed, num_ops)
    gap_ns = 1.0 / (multiplier * capacity_ops_per_ns)
    outcome = {"completed": 0, "shed": 0, "expired": 0, "failed": 0}
    done = sim.event()
    state = {"settled": 0}

    def on_settle(event) -> None:
        if event.ok:
            outcome["completed"] += 1
        elif isinstance(event.exception, ServerBusy):
            outcome["shed"] += 1
        elif isinstance(event.exception, DeadlineExceeded):
            outcome["expired"] += 1
        else:
            outcome["failed"] += 1
        state["settled"] += 1
        if state["settled"] == num_ops and not done.triggered:
            done.succeed()

    def submitter():
        for op in ops:
            deadline = (
                sim.now + deadline_budget_ns
                if deadline_budget_ns is not None
                else None
            )
            processor.submit(op, deadline_ns=deadline).add_callback(on_settle)
            yield sim.timeout(gap_ns)

    sim.process(submitter())
    sim.run(done)
    elapsed = sim.now
    latencies = processor.latencies
    point = {
        "multiplier": multiplier,
        "shed_enabled": float(shed),
        "offered_mops": multiplier * capacity_ops_per_ns * 1e3,
        "submitted": float(num_ops),
        "completed": float(outcome["completed"]),
        "shed": float(outcome["shed"]),
        "expired": float(outcome["expired"]),
        "failed": float(outcome["failed"]),
        "shed_rate": outcome["shed"] / num_ops,
        "goodput_mops": mops(outcome["completed"], elapsed),
        "elapsed_ns": elapsed,
    }
    if latencies.count:
        point["latency_p50_ns"] = latencies.percentile(50)
        point["latency_p99_ns"] = latencies.percentile(99)
    return point


def sweep_offered_load(
    multipliers: Sequence[float] = (0.5, 1.0, 2.0, 3.0, 4.0),
    seed: int = 0,
    num_ops: int = 3000,
    memory_size: int = 4 << 20,
    queue_depth: int = 64,
    shed_policy: str = "reject-new",
    deadline_budget_ns: Optional[float] = None,
) -> Dict[str, object]:
    """Goodput / latency / shed-rate curves, with and without shedding.

    The returned dict has a ``with_shedding`` and a ``without_shedding``
    curve (one point per multiplier) plus the probed capacity - the data
    behind the graceful-degradation acceptance criterion: at 3x offered
    load the shedding goodput stays >= 80 % of peak while the no-shedding
    run's p99 latency blows up.
    """
    capacity = probe_capacity(
        memory_size=memory_size, seed=seed, num_ops=num_ops
    )
    curves: Dict[str, object] = {
        "capacity_mops": capacity * 1e3,
        "seed": seed,
        "num_ops": num_ops,
        "shed_policy": shed_policy,
        "queue_depth": queue_depth,
        "multipliers": list(multipliers),
        "with_shedding": [],
        "without_shedding": [],
    }
    for shed, name in ((True, "with_shedding"), (False, "without_shedding")):
        for multiplier in multipliers:
            curves[name].append(
                run_point(
                    multiplier,
                    shed,
                    capacity,
                    seed=seed,
                    num_ops=num_ops,
                    memory_size=memory_size,
                    queue_depth=queue_depth,
                    shed_policy=shed_policy,
                    deadline_budget_ns=deadline_budget_ns,
                )
            )
    return curves
