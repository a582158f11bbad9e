"""The timed KV processor pipeline (Figure 4).

Couples the functional store to the hardware models.  The pipeline is
fixed, so each op crosses the stages named in
:data:`repro.core.pipeline.STAGE_ORDER` as one callback chain, not a
process: every step is a bound method in a ``partial`` with the op's
:class:`~repro.core.pipeline.OpContext`, every hop between steps is a
queue entry whose position is observable (``docs/MODELING.md``, "Rule
for writing a chain"), and a step that raises propagates out of
``sim.run``.

- :meth:`KVProcessor._ingress` - operations enter through a fully
  pipelined **decode** stage (one per clock at 180 MHz); **admission**
  grants one of ``max_inflight`` slots in FIFO order through the ingress
  queue that counts them (:mod:`repro.core.admission`: unbounded, or
  bounded and shedding under an overload policy); **issue** runs the
  reservation station (:mod:`repro.core.ooo`): independent operations
  execute out of order, dependents are parked for data forwarding,
- :meth:`KVProcessor._main_pipeline` - the **memory** stage runs an
  operation through :meth:`~repro.core.store.KVDirectStore.apply` (the
  store's one interpreter), then replays every memory access it made
  through the **memory access engine** (NIC DRAM cache + PCIe DMA, with
  the load dispatcher routing); **complete** forwards data to dependents
  (one per clock in the dedicated execution engine), emits at most one
  write-back, and responds through the network model.

Each stage stamps its entry time on the context, and a deadline is
checked after decode, after admission and at memory-stage entry, every
expiry unwinding through :meth:`KVProcessor._expire`.

Throughput = completed operations / simulated time; latency per operation
is measured from submission to response.  Both count successful responses
only: an op that fails or expires is neither completed nor timed.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional

from repro.core.admission import IngressQueue
from repro.core.config import KVDirectConfig
from repro.core.hashing import fnv1a64
from repro.core.ooo import Admission, Completion, ReservationStation
from repro.core.operations import KVOperation, KVResult
from repro.core.pipeline import OpContext
from repro.core.store import KVDirectStore
from repro.core.vector import apply_operation
from repro.dram.cache import DramCache, ECCFaultPath
from repro.dram.nic import NICDram
from repro.errors import (
    DeadlineExceeded,
    KVDirectError,
    SimulationError,
)
from repro.memory.dispatcher import LoadDispatcher
from repro.memory.engine import MemoryAccessEngine
from repro.network.ethernet import EthernetLink
from repro.obs.profiler import StageProfiler
from repro.obs.registry import MetricsRegistry
from repro.pcie.dma import MultiLinkDMA
from repro.pcie.link import PCIeLinkConfig
from repro.sim.engine import Event, Simulator
from repro.sim.resources import FIFOServer
from repro.sim.stats import Counter, Histogram, mops

#: Pipeline depth of the decode stage, in clock cycles (latency only; the
#: initiation interval is what bounds throughput).
_DECODE_DEPTH = 8


class KVProcessor:
    """One programmable NIC running the KV processor."""

    def __init__(
        self,
        sim: Simulator,
        store: Optional[KVDirectStore] = None,
        config: Optional[KVDirectConfig] = None,
        hls=None,
        profiler: Optional[StageProfiler] = None,
    ) -> None:
        if store is None:
            store = KVDirectStore(config)
        elif config is not None and config is not store.config:
            raise SimulationError("config must match the store's config")
        self.sim = sim
        self.store = store
        self.config = store.config
        #: The simulator's per-op tracer (None when untraced); every
        #: hardware model reads the same one, so one span log covers the
        #: whole pipeline an operation crosses.
        self.tracer = sim.tracer
        #: Optional stage profiler (see :mod:`repro.obs.profiler`): purely
        #: observational latency/DMA attribution per op class - attaching
        #: one never changes simulated behaviour.
        self.profiler = profiler
        if profiler is not None:
            profiler.decode_service_ns = (
                (_DECODE_DEPTH + 1) * store.config.cycle_ns
            )
        #: Optional :class:`~repro.core.hls.HLSToolchain`: when provided,
        #: vector λs are charged their compiled pipeline cycles
        #: (duplicated lanes keep computation at PCIe rate by design, so
        #: omitting it models the paper's matched-throughput case).
        self.hls = hls
        cfg = self.config
        #: The store's fault injector (None on clean runs); shared so the
        #: functional slab path and the timed hardware models draw from one
        #: deterministic schedule.
        self.injector = store.injector

        # -- hardware models ----------------------------------------------
        self.dma = MultiLinkDMA(
            sim,
            link_count=cfg.pcie_links,
            config_factory=lambda seed: PCIeLinkConfig.gen3_x8(
                seed=seed + cfg.seed
            ),
            injector=self.injector,
            profiler=profiler,
        )
        self.nic_dram = NICDram(sim, size=cfg.effective_nic_dram)
        dispatch_ratio = cfg.load_dispatch_ratio if cfg.use_nic_dram else 0.0
        self.dispatcher = LoadDispatcher(dispatch_ratio)
        cache = None
        if cfg.use_nic_dram and dispatch_ratio > 0.0:
            cache = DramCache(
                nic_lines=max(1, cfg.effective_nic_dram // 64),
                host_lines=max(1, cfg.memory_size // 64),
            )
        self.cache = cache
        ecc = None
        if (
            self.injector is not None
            and cache is not None
            and (
                self.injector.plan.bit_flip_prob > 0.0
                or self.injector.plan.double_bit_flip_prob > 0.0
            )
        ):
            ecc = ECCFaultPath(self.injector)
        self.engine = MemoryAccessEngine(
            sim, self.dma, self.nic_dram, self.dispatcher, cache, ecc=ecc,
            profiler=profiler,
        )
        self.network = EthernetLink(
            sim,
            bandwidth=cfg.network_bandwidth,
            rtt_ns=cfg.network_rtt_ns,
            injector=self.injector,
        )

        # -- pipeline resources ---------------------------------------------
        cycle = cfg.cycle_ns
        self.decoder = FIFOServer(
            sim, cycle, latency_ns=_DECODE_DEPTH * cycle, name="decode"
        )
        #: Dedicated execution engine for forwarded ops (1 op/cycle).
        self.forward_engine = FIFOServer(sim, cycle, name="forward")
        self.station = ReservationStation(
            partial(apply_operation, registry=store.registry),
            num_slots=cfg.reservation_slots,
            capacity=cfg.max_inflight,
            forwarding=cfg.out_of_order,
        )
        #: The one way into the station: a FIFO queue that counts its
        #: ``max_inflight`` slots, bounded and shedding only under
        #: ``cfg.overload``.
        self.admission = IngressQueue(sim, cfg.max_inflight, cfg.overload)

        # -- bookkeeping -----------------------------------------------------
        #: Live OpContext per in-flight client op, keyed by id(op).
        self._contexts: Dict[int, OpContext] = {}
        self.counters = Counter()
        self.latencies = Histogram()
        #: Time each main-pipeline op spent in memory accesses (ns).
        self.memory_time = Histogram()
        #: Time ops spent stalled at ingress waiting for a station slot.
        self.stall_times = Histogram()
        #: Deadline expiries per pipeline stage boundary.
        self.deadline_counters = Counter()
        self.completed = 0
        #: Resettable per-window latency histogram, owned and swapped by
        #: an attached :class:`~repro.obs.timeline.TimelineSampler`;
        #: ``None`` (the default) keeps the completion path unchanged.
        self.window_latencies: Optional[Histogram] = None

    # -- public API -----------------------------------------------------------

    def submit(
        self,
        op: KVOperation,
        deadline_ns: Optional[float] = None,
        key_hash: Optional[int] = None,
    ) -> Event:
        """Submit one operation; the event fires with its
        :class:`~repro.core.operations.KVResult` at response time.

        ``deadline_ns`` is an absolute simulated-time deadline: the
        pipeline checks it lazily at stage boundaries (decode, station
        admission, main-pipeline start) and fails the op with
        :class:`~repro.errors.DeadlineExceeded` once expired - always
        *before* it touches store state.  A NaN deadline, which would
        never expire, is refused.  Under a configured
        :class:`~repro.core.admission.OverloadPolicy` the event may also
        fail with :class:`~repro.errors.ServerBusy` when the op is shed.

        ``key_hash`` is ``fnv1a64(op.key)`` when the caller already
        hashed the op (to route it); otherwise issue computes it.  It
        lives in the op's context, not on the op.
        """
        if deadline_ns != deadline_ns:  # NaN, tested without a call
            raise SimulationError(f"op seq {op.seq}: deadline is NaN")
        # The context table is keyed by the op object: a second submit of
        # one still in flight would overwrite the first one's context.
        op_id = id(op)
        if op_id in self._contexts:
            raise SimulationError(
                f"operation seq {op.seq} is already in flight; submit a "
                "copy of it to run it twice"
            )
        # Positional: keyword arguments cost a dataclass init about as
        # much as the rest of it does.
        ctx = OpContext(
            op, Event(self.sim), deadline_ns, self.sim.now, key_hash
        )
        self._contexts[op_id] = ctx
        if self.profiler is not None:
            self.profiler.observe_submit(ctx)
        self.sim.call_soon(partial(self._ingress, ctx))
        return ctx.response

    # -- contexts, unwinds and completion (shared by the two drivers) ----------

    def emit(self, ctx: OpContext, stage: str, detail: str = "") -> None:
        """Record one trace span on a rare path (shed, failed, expired).

        The per-op spans are emitted in place by the drivers, which read
        the tracer once and format span details only when it is set.
        """
        if self.tracer is not None:
            self.tracer.emit(ctx.op.seq, stage, detail)

    def context_for(
        self, op: KVOperation, key_hash: Optional[int] = None
    ) -> OpContext:
        """The live context of ``op``, or a fresh internal one.

        Station write-backs (seq < 0) are synthesized inside the
        reservation station and never crossed ingress, so they get an
        ephemeral context with no response event and no deadline, and
        with the ``key_hash`` the station handed down with them.
        """
        ctx = self._contexts.get(id(op))
        if ctx is None:
            ctx = OpContext(
                op, submitted_ns=self.sim.now, key_hash=key_hash,
                station_admitted=True,
            )
        return ctx

    def fail_before_admission(
        self, ctx: OpContext, exc: KVDirectError
    ) -> None:
        """Fail an op that never reached the reservation station.

        Nothing to unwind: no station slot, no store
        state - just surface the error on the response event.
        """
        self._contexts.pop(id(ctx.op), None)
        if self.profiler is not None and ctx.op.seq >= 0:
            self.profiler.observe_failure(ctx, exc)
        if ctx.response is not None:
            ctx.response.fail(exc)

    def compute_time(self, op: KVOperation, value_after) -> float:
        """Pipeline occupancy of the λ lanes for a vector operation."""
        if self.hls is None or not op.carries_func:
            return 0.0
        if op.func_id not in self.hls:
            return 0.0
        compiled = self.hls.lookup(op.func_id)
        vector = value_after if value_after is not None else b""
        nelements = len(vector) // compiled.func.element_size
        cycles = compiled.cycles_for(nelements)
        if cycles:
            self.counters["lambda_cycles"] += cycles
        return cycles * self.config.cycle_ns

    def fail_op(self, ctx: OpContext, exc: KVDirectError) -> None:
        """Surface a server-side error (e.g. out of memory) to the client
        and unblock any dependents parked behind the failed op.

        Dependents must be forwarded the key's *true* current value: if the
        op failed during timing replay its functional effect has already
        been applied, and if it failed before execution the old value still
        stands - either way the table is the ground truth, and handing
        dependents ``None`` would forward stale data.  It is read through
        the uncounted ``table.peek``: the read is bookkeeping of the
        functional model, not an access the timed pipeline replays, so no
        access counter may see it.
        """
        op = ctx.op
        self.counters["failed_ops"] += 1
        self.emit(ctx, "failed", type(exc).__name__)
        value_after = self.store.table.peek(op.key, ctx.key_hash)
        completion = self.station.complete(op, value_after, ctx.key_hash)
        if op.seq >= 0:
            self._contexts.pop(id(op), None)
            self.admission.release()
            if self.profiler is not None:
                self.profiler.observe_failure(ctx, exc)
            if ctx.response is not None:
                ctx.response.fail(exc)
        if completion is not None:
            self._fan_out(op.seq, completion)

    def respond(self, ctx: OpContext, result: KVResult) -> None:
        if self._contexts.pop(id(ctx.op), None) is None:
            raise SimulationError("response for unknown operation")
        self.admission.release()
        if self.tracer is not None:
            self.tracer.emit(ctx.op.seq, "complete", f"ok={result.ok}")
        if self.profiler is not None:
            self.profiler.observe_complete(ctx, self.sim.now)
        ctx.response.succeed(result)

    def _fan_out(self, seq: int, completion: Completion) -> None:
        """Route what the station released when op ``seq`` left it, whether
        it completed or failed (a station that released nothing returns no
        completion, and there is nothing to route): forwarded dependents
        execute one per clock in the dedicated execution engine; a dirtied
        cached value is written back and a newly unblocked op issued, both
        through the main pipeline."""
        sim = self.sim
        for forwarded in completion.responses:  # (op, result) pairs
            sim.call_soon(partial(self._deliver_forwarded, *forwarded))
        if completion.writeback is not None:
            self.counters["writebacks"] += 1
            if self.tracer is not None:
                self.tracer.emit(seq, "station.writeback")
            sim.call_soon(partial(
                self._main_pipeline,
                self.context_for(
                    completion.writeback, completion.writeback_hash
                ),
            ))
        if completion.next_issue is not None:
            sim.call_soon(partial(
                self._main_pipeline, self.context_for(completion.next_issue)
            ))

    # -- pipeline drivers ------------------------------------------------------

    def _ingress(self, ctx: OpContext, _entry) -> None:
        """Enter the decoder; :meth:`_decoded` asks for a station slot and
        :meth:`_admitted` issues."""
        sim = self.sim
        op = ctx.op
        ctx.submitted_ns = sim.now
        if self.tracer is not None:
            self.tracer.emit(op.seq, "ingress", f"op={op.op.name}")
        # decode: the fully pipelined batch/op decoder (one op per clock).
        ctx.timestamps["decode"] = sim.now
        self.decoder.reserve(partial(self._decoded, ctx))

    def _decoded(self, ctx: OpContext, _entry) -> None:
        sim = self.sim
        op = ctx.op
        if self.tracer is not None:
            self.tracer.emit(op.seq, "decode")
        if ctx.deadline_ns is not None and sim.now > ctx.deadline_ns:
            self._expire(ctx, "decode")
            return
        # admission: one reservation-station slot from the ingress queue
        # (which, under an overload policy, may shed the op instead), whose
        # grant queues _admitted; an op left waiting stalled on a full
        # station, and _admitted records for how long.
        ctx.timestamps["admission"] = sim.now
        if not self.admission.submit(op, partial(self._admitted, ctx)):
            self.station.record_full_stall()
            ctx.stall_start = sim.now

    def _admitted(self, ctx: OpContext, grant) -> None:
        """The slot grant: the kick, or a failed event if the op was shed."""
        sim = self.sim
        tracer = self.tracer
        op = ctx.op
        exc = grant._exception
        if exc is not None:  # ServerBusy: the ingress queue shed the op
            self.counters["shed_ops"] += 1
            self.emit(ctx, "shed", f"policy={exc.policy}")
            self.fail_before_admission(ctx, exc)
            return
        if ctx.stall_start is not None:
            self.stall_times.record(sim.now - ctx.stall_start)
        ctx.slot_held = True
        if ctx.deadline_ns is not None and sim.now > ctx.deadline_ns:
            self._expire(ctx, "admission")
            return

        # issue: independent ops execute out of order; (conservatively)
        # dependent ones sleep in the station until forwarding or
        # next_issue resolves them - either path fires their response.
        ctx.timestamps["issue"] = sim.now
        self.counters["admitted"] += 1
        # The op's one hash, unless the layer that routed it handed it
        # down with it.
        key_hash = ctx.key_hash
        if key_hash is None:
            key_hash = ctx.key_hash = fnv1a64(op.key)
        admission = self.station.admit(op, key_hash)
        ctx.station_admitted = True
        if admission is Admission.EXECUTE:
            if tracer is not None:
                tracer.emit(
                    op.seq, "station.execute",
                    f"occupancy={self.station.occupancy}",
                )
            sim.call_soon(partial(self._main_pipeline, ctx))
        elif tracer is not None:
            tracer.emit(
                op.seq, "station.queued", f"occupancy={self.station.occupancy}"
            )
        ctx.response.callbacks.append(partial(self._responded, ctx))

    def _responded(self, ctx: OpContext, response: Event) -> None:
        """On delivery: count the op and record its latency if it succeeded."""
        if response._exception is None:
            latency = self.sim.now - ctx.submitted_ns
            self.latencies.record(latency)
            self.completed += 1
            if self.window_latencies is not None:
                self.window_latencies.record(latency)

    def _main_pipeline(self, ctx: OpContext, entry) -> None:
        """Execute one op against memory; :meth:`_replay` replays its
        accesses and completes it.  Entered from issue (independent ops)
        and from :meth:`_fan_out` (write-backs and newly unblocked ops)."""
        sim = self.sim
        op = ctx.op
        seq = op.seq
        deadline = ctx.deadline_ns
        if seq >= 0 and deadline is not None and sim.now > deadline:
            # The op may have expired while parked.  Already admitted, but
            # dead before touching memory: fail it through the station so
            # dependents are forwarded the key's true current value.  No
            # store state was modified.
            self._expire(ctx, "pipeline_start")
            return

        # memory: execute against the index, recording every access made.
        ctx.timestamps["memory"] = sim.now
        if self.tracer is not None:
            self.tracer.emit(seq, "pipeline.start")
        memory = self.store.memory
        memory.start_trace()
        try:
            ctx.outcome = self.store.apply(op, ctx.key_hash)
        except KVDirectError as exc:
            memory.stop_trace()
            self.fail_op(ctx, exc)
            return
        trace = memory.stop_trace()
        if self.profiler is not None:
            self.profiler.record_table_accesses(seq, trace)
        self._replay(ctx, iter(trace), entry)

    def _replay(self, ctx: OpContext, accesses, event) -> None:
        """Replay the op's next access, coming back here when it lands (a
        record read cannot start before its bucket read returned the
        pointer); after the last, wait out any compiled λ pipeline
        occupancy (``accesses`` is then ``None``), then complete."""
        sim = self.sim
        op = ctx.op
        seq = op.seq
        result, value_after = ctx.outcome
        error = event._exception
        if error is not None:
            # Graceful degradation: an unrecoverable hardware fault (DMA
            # retry exhaustion, uncorrectable ECC error) fails only this
            # operation - the pipeline, its dependents, and the rest of
            # the simulation keep running.
            self.memory_time.record(sim.now - ctx.timestamps["memory"])
            self.counters["fault_failed_replays"] += 1
            self.fail_op(ctx, error)
            return
        if accesses is not None:
            for kind, addr, size in accesses:  # the next one, if any
                self.engine.access(
                    addr, size, kind == "write", seq,
                    partial(self._replay, ctx, accesses),
                )
                return
            if self.hls is not None:
                compute_ns = self.compute_time(op, value_after)
                if compute_ns > 0:
                    sim.call_after(compute_ns, partial(self._replay, ctx, None))
                    return
        self.memory_time.record(sim.now - ctx.timestamps["memory"])
        self.counters["main_pipeline_ops"] += 1
        if self.tracer is not None:
            self.tracer.emit(seq, "pipeline.done")

        # complete/respond: synchronous, no simulated resource wait.
        ctx.timestamps["complete"] = sim.now
        completion = self.station.complete(op, value_after, ctx.key_hash)
        if seq >= 0:
            self.respond(ctx, result)
        if completion is not None:
            self._fan_out(seq, completion)

    def _expire(self, ctx: OpContext, boundary: str) -> None:
        """Uniform deadline-expiry handling at one stage boundary.

        The boundary counter and trace span are always recorded; the
        unwind depends on how far the context got - admitted into the
        station (fail through it so dependents are forwarded), holding a
        station slot (hand it back), or neither.
        """
        self.deadline_counters.add(boundary)
        self.emit(ctx, "deadline.expired", f"stage={boundary}")
        if ctx.station_admitted:
            self.fail_op(
                ctx,
                DeadlineExceeded(
                    f"op seq={ctx.op.seq} missed its deadline at the "
                    f"{boundary} boundary",
                    stage=boundary,
                ),
            )
            return
        if ctx.slot_held:
            # The slot was granted but the op is already dead: hand it
            # straight back before failing.
            self.admission.release()
        deadline = ctx.deadline_ns if ctx.deadline_ns is not None else 0.0
        self.fail_before_admission(
            ctx,
            DeadlineExceeded(
                f"op seq={ctx.op.seq} missed its deadline at the {boundary} "
                f"boundary ({self.sim.now - deadline:.0f} ns late)",
                stage=boundary,
            ),
        )

    def _deliver_forwarded(self, op, result, _entry) -> None:
        """Forwarded ops respond one per clock via the dedicated engine."""
        self.forward_engine.reserve(partial(self._forwarded, op, result))

    def _forwarded(self, op, result, _entry) -> None:
        self.counters["forwarded"] += 1
        ctx = self.context_for(op)
        if self.tracer is not None:
            self.tracer.emit(op.seq, "station.forwarded")
        self.respond(ctx, result)

    # -- measurement ------------------------------------------------------------------

    def register_metrics(
        self,
        registry: Optional[MetricsRegistry] = None,
        prefix: str = "",
    ) -> MetricsRegistry:
        """Register every layer's live metric objects under one registry.

        Hierarchical names follow ``docs/OBSERVABILITY.md``: ``processor``,
        ``station``, ``mem``, ``pcie.<link>``, ``dram.nic`` / ``dram.cache``,
        ``eth``, ``slab``, plus ``faults`` / ``dram.ecc`` / ``trace`` when
        those subsystems are active.  ``prefix`` namespaces everything for
        shard-composed deployments (prefix ``nic0`` registers
        ``nic0.processor.deadline.*`` and so on); the default empty prefix
        keeps the single-NIC names byte-identical.  Returns the registry
        for chaining.
        """
        registry = registry if registry is not None else MetricsRegistry()

        def scoped(name: str) -> str:
            return f"{prefix}.{name}" if prefix else name

        registry.register(scoped("processor"), self.counters)
        registry.register(scoped("processor.latency_ns"), self.latencies)
        registry.register(scoped("processor.memory_time_ns"), self.memory_time)
        registry.register_gauge(
            scoped("processor.completed_ops"), lambda: self.completed
        )
        registry.register_gauge(
            scoped("processor.throughput_mops"), self.throughput_mops
        )
        registry.register(scoped("processor.deadline"), self.deadline_counters)
        registry.register(scoped("station"), self.station.counters)
        registry.register_gauge(
            scoped("station.occupancy"), lambda: self.station.occupancy
        )
        registry.register_gauge(
            scoped("station.busy_slots"), self.station.busy_slots
        )
        registry.register(scoped("station.stall_time_ns"), self.stall_times)
        if self.admission.policy is not None:
            registry.register(scoped("ingress"), self.admission.counters)
            registry.register(scoped("ingress.wait_ns"), self.admission.wait_ns)
            registry.register_gauge(
                scoped("ingress.depth"), lambda: self.admission.depth
            )
        for link in self.dma.links:
            registry.register(scoped(f"pcie.{link.name}"), link.counters)
            registry.register(
                scoped(f"pcie.{link.name}.read_latency_ns"),
                link.read_latency_hist,
            )
        registry.register(scoped("mem"), self.engine.counters)
        registry.register_gauge(
            scoped("mem.cache_hit_rate"), self.engine.hit_rate
        )
        registry.register(scoped("dram.nic"), self.nic_dram.counters)
        if self.cache is not None:
            registry.register(scoped("dram.cache"), self.cache.stats)
        if self.engine.ecc is not None:
            registry.register(scoped("dram.ecc"), self.engine.ecc.counters)
        registry.register(scoped("eth"), self.network.counters)
        registry.register(scoped("slab"), self.store.allocator.counters)
        if self.injector is not None:
            registry.register(scoped("faults"), self.injector.counters)
        if self.tracer is not None and scoped("trace") not in registry:
            registry.register(scoped("trace"), self.tracer.counters)
        return registry

    def throughput_mops(self) -> float:
        """Completed client operations per simulated microsecond."""
        return mops(self.completed, self.sim.now)
