"""The callback chains against the generator bodies they replaced.

``dram/nic.py``, ``pcie/dma.py`` and ``memory/engine.py`` used to run every
NIC-DRAM burst, DMA and cache line as a generator ``Process``, and the KV
processor ran every op through its ``_ingress`` / ``_main_pipeline`` /
``_deliver_forwarded`` processes, every packet through
``EthernetLink._transfer`` and every burst of replication records through
``ReplicationChannel._drain``; all of them are now callback chains that must
occupy the *same queue positions* (see "Same-instant ordering contract" in
``docs/MODELING.md``).  The deleted generator bodies live on here,
verbatim, as the ``Ref*`` subclasses - a test-only reference, whose waits
on the shared resources (pools, channels, stages, the ingress queue) go
through ``tests/waiting.py`` at a continuation's own queue position.  Both
implementations are driven through the same seeded runs and must produce
the same ordered log of every ``(sim.now, resource, call)``: token
acquires and releases, bandwidth reservations, cache decisions, latency
draws and samples, tracer spans and each access's outcome - and, for the
processor, the same stage stamps, profile, metrics and responses.
"""

import dataclasses
import random
import struct
from collections import deque

import pytest

from repro import scenario
from repro.client import client as client_module
from repro.client.client import KVClient
from repro.client.router import ClusterRouter
from repro.constants import (
    CACHE_LINE_SIZE,
    DEFAULT_LOAD_DISPATCH_RATIO,
    PCIE_FABRIC_RTT_NS,
)
from repro.core.admission import SHED_POLICIES, OverloadPolicy
from repro.core.config import KVDirectConfig
from repro.core.hashing import fnv1a64
from repro.core.hls import HLSToolchain
from repro.core.ooo import Admission
from repro.core.operations import KVOperation, OpType
from repro.core.pipeline import OpContext
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.core.vector import FETCH_ADD
from repro.dram.cache import DramCache, ECCFaultPath
from repro.dram.hamming import DecodeStatus
from repro.dram.nic import NICDram
from repro.errors import (
    CorruptionDetected,
    DeadlineExceeded,
    FaultInjected,
    KVDirectError,
    ServerBusy,
)
from repro.faults import FaultInjector, FaultPlan
from repro.memory.dispatcher import (
    LINE_HASH_MASK,
    LINE_HASH_MULTIPLIER,
    LoadDispatcher,
)
from repro.memory.engine import MemoryAccessEngine
from repro.multi import Cluster
from repro.multi.cluster import REPLICATION_DELAY_NS, ReplicationChannel
from repro.network.ethernet import EthernetLink
from repro.obs.profiler import StageProfiler
from repro.obs.tracer import Tracer
from repro.pcie.dma import DMAEngine, MultiLinkDMA
from repro.pcie.link import PCIeLinkConfig
from repro.pcie.tlp import (
    read_request_bytes,
    read_response_bytes,
    transfer_drop_probability,
    write_request_bytes,
)
from repro.driver import run_closed_loop
from repro.sim import FIFOServer, Simulator
from tests.ref_resident import address_hash, is_cacheable
from tests.waiting import Waiting, all_of, idle, wait

LINE = 64


# -- the reference: the generator bodies as they were before the chains ------


class RefNICDram(NICDram):
    def access(self, nbytes, write=False):
        kind = "writes" if write else "reads"
        self.counters.add(kind)
        self.counters.add(f"{kind[:-1]}_bytes", nbytes)
        return self.sim.process(self._access(nbytes))

    def _access(self, nbytes):
        yield wait(self.sim, self.channel.reserve, nbytes)
        yield self.sim.timeout(self.latency_ns)


class RefDMAEngine(DMAEngine):
    def read(self, nbytes, seq=-1):
        return self.sim.process(self._read(nbytes, seq))

    def write(self, nbytes, seq=-1):
        return self.sim.process(self._write(nbytes, seq))

    def _read(self, nbytes, seq=-1):
        sim = self.sim
        start = sim.now
        yield wait(sim, self.tags.acquire)
        yield wait(sim, self.nonposted_credits.acquire)
        try:
            attempts = 0
            while True:
                yield wait(sim, self.tx.reserve, read_request_bytes(nbytes))
                if self.injector is None:
                    break
                if not (yield from self._fault_check(nbytes, attempts, seq)):
                    break
                attempts += 1
            yield sim.timeout(self.config.read_latency.sample())
            yield wait(sim, self.rx.reserve, read_response_bytes(nbytes))
        finally:
            self.nonposted_credits.release()
            self.tags.release()
        self.counters.add("dma_reads")
        self.counters.add("dma_read_bytes", nbytes)
        self.read_latency_hist.record(self.sim.now - start)
        if self.profiler is not None:
            self.profiler.record_dma(seq, "read", nbytes)
        if self.tracer is not None:
            self.tracer.emit(seq, "pcie.read", f"{self.name} {nbytes}B")

    def _fault_check(self, nbytes, attempts, seq=-1):
        injector = self.injector
        if injector is None:
            return False
        if injector.dma_delay(self.name, self.sim.now):
            self.counters.add("fault_delays")
            self._trace(seq, "pcie.fault_delay", self.name)
            yield self.sim.timeout(injector.plan.dma_delay_ns)
        drop_prob = transfer_drop_probability(
            injector.plan.dma_drop_prob, nbytes
        )
        if not injector.dma_drop(self.name, self.sim.now, prob=drop_prob):
            return False
        self.counters.add("fault_drops")
        if attempts >= injector.plan.dma_max_retries:
            raise FaultInjected(
                f"{self.name}: DMA transfer dropped "
                f"{attempts + 1} times, retry budget exhausted"
            )
        self.counters.add("dma_retries")
        self._trace(seq, "pcie.retry", f"{self.name} attempt={attempts + 1}")
        yield self.sim.timeout(injector.plan.dma_retry_timeout_ns)
        return True

    def _write(self, nbytes, seq=-1):
        sim = self.sim
        yield wait(sim, self.posted_credits.acquire)
        try:
            attempts = 0
            while True:
                yield wait(sim, self.tx.reserve, write_request_bytes(nbytes))
                if self.injector is None:
                    break
                if not (yield from self._fault_check(nbytes, attempts, seq)):
                    break
                attempts += 1
        except FaultInjected:
            self.posted_credits.release()
            raise
        self.sim.process(self._return_posted_credit())
        self.counters.add("dma_writes")
        self.counters.add("dma_write_bytes", nbytes)
        if self.profiler is not None:
            self.profiler.record_dma(seq, "write", nbytes)
        if self.tracer is not None:
            self.tracer.emit(seq, "pcie.write", f"{self.name} {nbytes}B")

    def _return_posted_credit(self):
        yield self.sim.timeout(PCIE_FABRIC_RTT_NS)
        self.posted_credits.release()


class RefMultiLinkDMA(MultiLinkDMA):
    """The round robin as the generators saw it: the next link's
    :class:`RefDMAEngine` returns the process a ``RefEngine`` waits on."""

    def read(self, nbytes, seq=-1):
        link = self.links[self._next]
        self._next = (self._next + 1) % self._link_count
        return link.read(nbytes, seq)

    def write(self, nbytes, seq=-1):
        link = self.links[self._next]
        self._next = (self._next + 1) % self._link_count
        return link.write(nbytes, seq)


class RefEngine(MemoryAccessEngine):
    def access(self, addr, size, write=False, seq=-1):
        return self.sim.process(self._access(addr, size, write, seq))

    def _trace(self, seq, stage, detail=""):
        # The engine's helper these bodies called; the chains emit in place.
        if self.tracer is not None:
            self.tracer.emit(seq, stage, detail)

    def _access(self, addr, size, write, seq):
        if size <= 0:
            return
        self.counters.add("writes" if write else "reads")
        line_size = CACHE_LINE_SIZE
        first = addr // line_size
        last = (addr + size - 1) // line_size
        tracer = self.tracer
        cache = self.cache
        pending = []
        for line in range(first, last + 1):
            line_addr = line * line_size
            start = max(addr, line_addr)
            end = min(addr + size, line_addr + line_size)
            span = end - start
            full = span == line_size
            if cache is not None and is_cacheable(self.dispatcher, line_addr):
                if tracer is not None:
                    tracer.emit(seq, "mem.route", f"line={line} dram")
                pending.append(
                    self.sim.process(self._cached_line(line, write, full, seq))
                )
            else:
                self.counters.add("pcie_direct")
                if tracer is not None:
                    tracer.emit(seq, "mem.route", f"line={line} pcie")
                if write:
                    pending.append(self.dma.write(span, seq))
                else:
                    pending.append(self.dma.read(span, seq))
        if pending:
            yield all_of(self.sim, pending)

    def _cached_line(self, line, write, full, seq=-1):
        cache = self.cache
        tracer = self.tracer
        result = cache.access(line, write, full_line=full)
        if result.hit:
            self.counters.add("cache_hits")
            if self.profiler is not None:
                self.profiler.record_cache(seq, "hit")
            if tracer is not None:
                tracer.emit(seq, "dram.hit", f"line={line}")
            if not write and self.ecc is not None:
                status = self.ecc.read_word(self.sim.now)
                if status is DecodeStatus.CORRECTED:
                    self._trace(seq, "dram.ecc_corrected", f"line={line}")
            yield self.nic_dram.access(CACHE_LINE_SIZE, write=write)
            return
        self.counters.add("cache_misses")
        if self.profiler is not None:
            self.profiler.record_cache(seq, "miss")
        if tracer is not None:
            tracer.emit(seq, "dram.miss", f"line={line}")
        if result.writeback_line is not None:
            self.counters.add("writebacks")
            if self.profiler is not None:
                self.profiler.record_cache(seq, "writeback")
            self._trace(
                seq, "dram.writeback", f"line={result.writeback_line}"
            )
            yield self.nic_dram.access(CACHE_LINE_SIZE, write=False)
            yield self.dma.write(CACHE_LINE_SIZE, seq)
        if result.needs_fill:
            self.counters.add("fills")
            if self.profiler is not None:
                self.profiler.record_cache(seq, "fill")
            self._trace(seq, "dram.fill", f"line={line}")
            yield self.dma.read(CACHE_LINE_SIZE, seq)
        yield self.nic_dram.access(CACHE_LINE_SIZE, write=True)


class RefEthernetLink(EthernetLink):
    def receive(self, nbytes):
        self.counters["rx_packets"] += 1
        self.counters["rx_bytes"] += nbytes
        return self.sim.process(self._transfer(self.ingress, nbytes, "rx"))

    def send(self, nbytes, nacks=0):
        self.counters["tx_packets"] += 1
        self.counters["tx_bytes"] += nbytes
        if nacks:
            self.counters["tx_nacks"] += nacks
        return self.sim.process(self._transfer(self.egress, nbytes, "tx"))

    def _transfer(self, channel, nbytes, direction):
        yield wait(self.sim, channel.reserve, nbytes)
        injector = self.injector
        if injector is not None:
            site = f"eth.{direction}"
            if injector.fire(
                f"{site}.dup", "packet_duplicate",
                injector.plan.packet_duplicate_prob, self.sim.now,
            ):
                # The duplicate serializes too; the receiver drops it.
                self.counters.add(f"{direction}_duplicates")
                self._trace(f"eth.{direction}.dup", f"{nbytes}B")
                yield wait(self.sim, channel.reserve, nbytes)
            if injector.fire(
                f"{site}.reorder", "packet_reorder",
                injector.plan.packet_reorder_prob, self.sim.now,
            ):
                # Held in the fabric long enough for successors to pass it.
                self.counters.add(f"{direction}_reordered")
                self._trace(f"eth.{direction}.reorder", f"{nbytes}B")
                yield self.sim.timeout(injector.plan.packet_reorder_delay_ns)
            if injector.fire(
                f"{site}.loss", "packet_loss",
                injector.plan.packet_loss_prob, self.sim.now,
            ):
                self.counters.add(f"{direction}_lost")
                self._trace(f"eth.{direction}.lost", f"{nbytes}B")
                raise FaultInjected(
                    f"{direction} packet ({nbytes} B) lost in the fabric"
                )
        yield self.sim.timeout(self.rtt_ns / 2.0)
        self._trace(f"eth.{direction}", f"{nbytes}B")


class RefKVProcessor(KVProcessor):
    """The processor with its per-op drivers as generator processes: one
    per submitted op, one per main-pipeline pass, one per forwarded op."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.network.__class__ = RefEthernetLink

    def submit(self, op, deadline_ns=None):
        ctx = OpContext(
            op,
            response=self.sim.event(),
            deadline_ns=deadline_ns,
            submitted_ns=self.sim.now,
        )
        self._contexts[id(op)] = ctx
        if self.profiler is not None:
            self.profiler.observe_submit(ctx)
        self.sim.process(self._ingress(ctx))
        return ctx.response

    def _fan_out(self, seq, completion):
        sim = self.sim
        for forwarded_op, forwarded_result in completion.responses:
            sim.process(
                self._deliver_forwarded(forwarded_op, forwarded_result)
            )
        if completion.writeback is not None:
            self.counters["writebacks"] += 1
            if self.tracer is not None:
                self.tracer.emit(seq, "station.writeback")
            sim.process(
                self._main_pipeline(self.context_for(completion.writeback))
            )
        if completion.next_issue is not None:
            sim.process(
                self._main_pipeline(self.context_for(completion.next_issue))
            )

    def _ingress(self, ctx):
        sim = self.sim
        tracer = self.tracer
        op = ctx.op
        seq = op.seq
        deadline = ctx.deadline_ns
        stamps = ctx.timestamps
        ctx.submitted_ns = sim.now
        if tracer is not None:
            tracer.emit(seq, "ingress", f"op={op.op.name}")

        # decode: the fully pipelined batch/op decoder (one op per clock).
        stamps["decode"] = sim.now
        yield wait(sim, self.decoder.reserve)
        if tracer is not None:
            tracer.emit(seq, "decode")
        if deadline is not None and sim.now > deadline:
            self._expire(ctx, "decode")
            return

        # admission: one reservation-station slot from the ingress queue
        # (which, under an overload policy, may shed the op instead),
        # recording the time a queued op stalled on a full station.
        stamps["admission"] = sim.now
        grant = Waiting(sim)
        queued = not self.admission.submit(op, grant)
        if queued:
            self.station.record_full_stall()
            stall_start = sim.now
        try:
            yield grant
        except ServerBusy as exc:
            self.counters["shed_ops"] += 1
            self.emit(ctx, "shed", f"policy={exc.policy}")
            self.fail_before_admission(ctx, exc)
            return
        if queued:
            self.stall_times.record(sim.now - stall_start)
        ctx.slot_held = True
        if deadline is not None and sim.now > deadline:
            self._expire(ctx, "admission")
            return

        # issue: independent ops execute out of order; (conservatively)
        # dependent ones sleep in the station until forwarding or
        # next_issue resolves them - either path fires their response.
        stamps["issue"] = sim.now
        self.counters["admitted"] += 1
        admission = self.station.admit(op, fnv1a64(op.key))
        ctx.station_admitted = True
        if admission is Admission.EXECUTE:
            if tracer is not None:
                tracer.emit(
                    seq, "station.execute",
                    f"occupancy={self.station.occupancy}",
                )
            sim.process(self._main_pipeline(ctx))
        elif tracer is not None:
            tracer.emit(
                seq, "station.queued", f"occupancy={self.station.occupancy}"
            )
        self._stamp_on_response(ctx)

    def _main_pipeline(self, ctx):
        sim = self.sim
        tracer = self.tracer
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
        if tracer is not None:
            tracer.emit(seq, "pipeline.start")
        memory = self.store.memory
        memory.start_trace()
        try:
            result, value_after = self.store.apply(op, fnv1a64(op.key))
        except KVDirectError as exc:
            memory.stop_trace()
            self.fail_op(ctx, exc)
            return
        trace = memory.stop_trace()
        if self.profiler is not None:
            self.profiler.record_table_accesses(seq, trace)
        # Replay the accesses through the memory access engine (NIC DRAM
        # cache + PCIe DMA), then any compiled λ pipeline occupancy.
        # Dependent accesses replay serially: a record read cannot start
        # before its bucket read returned the pointer.
        replay_start = sim.now
        try:
            for kind, addr, size in trace:
                yield wait(
                    sim, self.engine.access, addr, size, kind == "write", seq
                )
            compute_ns = self.compute_time(op, value_after)
            if compute_ns > 0:
                yield sim.timeout(compute_ns)
        except KVDirectError as exc:
            # Graceful degradation: an unrecoverable hardware fault (DMA
            # retry exhaustion, uncorrectable ECC error) fails only this
            # operation - the pipeline, its dependents, and the rest of
            # the simulation keep running.
            self.memory_time.record(sim.now - replay_start)
            self.counters["fault_failed_replays"] += 1
            self.fail_op(ctx, exc)
            return
        self.memory_time.record(sim.now - replay_start)
        self.counters["main_pipeline_ops"] += 1
        if tracer is not None:
            tracer.emit(seq, "pipeline.done")

        # complete/respond: synchronous, no simulated resource wait.
        ctx.timestamps["complete"] = sim.now
        completion = self.station.complete(
            op, value_after, fnv1a64(op.key)
        )
        if seq >= 0:
            self.respond(ctx, result)
        if completion is not None:
            self._fan_out(seq, completion)

    def _stamp_on_response(self, ctx):
        def record(ev):
            if ev.exception is not None:
                return
            latency = self.sim.now - ctx.submitted_ns
            self.latencies.record(latency)
            self.completed += 1
            window = self.window_latencies
            if window is not None:
                window.record(latency)

        ctx.response.add_callback(record)

    def _deliver_forwarded(self, op, result):
        yield wait(self.sim, self.forward_engine.reserve)
        self.counters["forwarded"] += 1
        ctx = self.context_for(op)
        if self.tracer is not None:
            self.tracer.emit(op.seq, "station.forwarded")
        self.respond(ctx, result)


class HopFusedNICDram(NICDram):
    """What the contract forbids: the burst books the channel inside
    ``access()`` instead of one queue hop later."""

    def access(self, nbytes, write, then):
        kind = "writes" if write else "reads"
        self.counters.add(kind)
        self.counters.add(f"{kind[:-1]}_bytes", nbytes)
        sim = self.sim
        self.channel.reserve(
            nbytes,
            lambda _: sim.call_after(
                self.latency_ns, lambda _: sim.call_soon(then)
            ),
        )


# -- one instrumented stack per implementation --------------------------------

CHAINS = (NICDram, DMAEngine, MemoryAccessEngine)
REFERENCE = (RefNICDram, RefDMAEngine, RefEngine)


class Rig:
    """Engine + 2 PCIe links + NIC DRAM + cache, with every resource call
    appended to ``log`` as ``(sim.now, resource, call, ...)``."""

    def __init__(self, classes, plan=None, nic_lines=8, host_lines=256,
                 ratio=0.5, seed=3):
        nic_cls, dma_cls, engine_cls = classes
        self.reference = classes == REFERENCE
        self.tracer = Tracer()
        self.sim = sim = Simulator(tracer=self.tracer)
        self.log = []
        self.injector = FaultInjector(plan, seed=seed) if plan else None
        multi_cls = RefMultiLinkDMA if self.reference else MultiLinkDMA
        self.dma = multi_cls(sim, link_count=2)
        self.dma.links = [
            dma_cls(
                sim, PCIeLinkConfig.gen3_x8(seed=seed + i), name=f"pcie{i}",
                injector=self.injector,
            )
            for i in range(2)
        ]
        self.nic = nic_cls(sim)
        self.cache = DramCache(nic_lines=nic_lines, host_lines=host_lines)
        ecc = None
        if plan and (plan.bit_flip_prob or plan.double_bit_flip_prob):
            ecc = ECCFaultPath(self.injector)
        self.dispatcher = LoadDispatcher(ratio)
        self.engine = engine_cls(
            sim, self.dma, self.nic, self.dispatcher, self.cache, ecc=ecc,
        )
        self.pools = []
        self._spy_channel(self.nic.channel, "nic_dram")
        self._spy(self.cache, "access", "cache", result=lambda r: (
            r.hit, r.writeback_line, r.needs_fill
        ))
        self._spy(self.tracer, "emit", "tracer")
        for link in self.dma.links:
            self._spy_channel(link.tx, link.tx.name)
            self._spy_channel(link.rx, link.rx.name)
            self._spy(link.config.read_latency, "sample", f"{link.name}.rtt")
            # ``record`` is the histogram's own slot: patched on the instance.
            self._spy(link.read_latency_hist, "record", f"{link.name}.hist")
            for pool in (link.tags, link.posted_credits, link.nonposted_credits):
                self.pools.append(pool)
                # The chains pass their next step to ``acquire``; the
                # generators pass the event they yield.  Same call.
                self._spy(pool, "acquire", pool.name, result=lambda _: None,
                          logged_args=lambda args: ())
                self._spy(pool, "release", pool.name)

    def _spy(self, target, method, label, result=lambda value: value,
             logged_args=lambda args: args):
        inner = getattr(target, method)

        def spy(*args, **kwargs):
            value = inner(*args, **kwargs)
            self.log.append(
                (self.sim.now, label, method, logged_args(args),
                 tuple(kwargs.items()), result(value))
            )
            return value

        setattr(target, method, spy)

    def _spy_channel(self, channel, label):
        """Log a channel's or stage's bookings: the chains pass their next
        step to ``reserve``, the generators the event they yield.  Both are
        logged as the size booked and the drain time it set."""
        if isinstance(channel, FIFOServer):
            sized, drained = 0, lambda _: channel._next_issue
        else:
            sized, drained = 1, lambda _: channel._free_at
        self._spy(channel, "reserve", label, result=drained,
                  logged_args=lambda args: args[:sized])

    def issue(self, call, *args):
        """Start one access or DMA: a reference call returns the process
        that lands with it, a chain's is waited on as an event."""
        return call(*args) if self.reference else wait(self.sim, call, *args)

    def watch(self, label, event):
        """Log the outcome of one issued access when it lands."""
        def landed(event):
            error = event.exception
            self.log.append((
                self.sim.now, label, "done",
                None if error is None else (type(error), str(error)),
            ))
        event.add_callback(landed)

    def failures(self):
        return [entry[3][0] for entry in self.log
                if entry[2] == "done" and entry[3] is not None]

    def assert_drained(self):
        assert idle(self.sim)
        for pool in self.pools:
            assert pool.available == pool.capacity, pool.name
            assert not pool._waiters, pool.name


def engine_mix(rig, seed, count=120):
    """Seeded concurrent accesses: unaligned, 1-5 lines, half writes, over
    256 lines of memory (32 cacheable lines per NIC-DRAM slot pair, so
    dirty evictions are common), in same-instant bursts and short gaps."""
    rng = random.Random(seed)

    def driver():
        for seq in range(count):
            addr = rng.randrange(250 * LINE)
            size = rng.choice((1, 8, 13, 64, 64, 100, 254, 300))
            rig.watch(f"op{seq}", rig.issue(
                rig.engine.access, addr, size, rng.random() < 0.5, seq
            ))
            gap = rng.choice((0.0, 0.0, 0.0, 5.0, 5.555, 40.0, 900.0))
            if gap:
                yield rig.sim.timeout(gap)

    rig.sim.process(driver())
    rig.sim.run()


def engine_state(engine):
    """Every counter of a memory engine and of the models under it."""
    data = engine.counters.snapshot()
    data.update({f"dma_{k}": v for k, v in engine.dma.snapshot().items()})
    nic = engine.nic_dram
    data.update({f"nic_{k}": v for k, v in nic.counters.snapshot().items()})
    data["nic_bytes_on_channel"] = nic.channel.bytes_transferred
    if engine.ecc is not None:
        ecc = engine.ecc.counters.snapshot()
        data.update({f"ecc_{k}": v for k, v in ecc.items()})
    return data


def run_both(drive, **rig_options):
    rigs = [Rig(classes, **rig_options) for classes in (REFERENCE, CHAINS)]
    for rig in rigs:
        drive(rig)
    reference, chains = rigs
    assert chains.log == reference.log
    assert chains.tracer.render_lines() == reference.tracer.render_lines()
    assert engine_state(chains.engine) == engine_state(reference.engine)
    assert chains.sim.now == reference.sim.now
    chains.assert_drained()
    return chains


class TestChainsMatchTheGenerators:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_clean_concurrent_mix(self, seed):
        rig = run_both(lambda rig: engine_mix(rig, seed))
        snapshot = engine_state(rig.engine)
        # The mix reaches every branch of the cached-line chain.
        assert snapshot["cache_hits"] and snapshot["fills"]
        assert snapshot["writebacks"] and snapshot["pcie_direct"]
        assert not rig.failures()

    def test_tag_and_credit_queueing_on_one_link(self):
        """200 reads and 100 writes issued in one instant on one link: 64
        tags and the posted credits are exhausted and waiters queue."""
        def drive(rig):
            link = rig.dma.links[0]
            for i in range(300):
                issue = link.write if i % 3 == 2 else link.read
                rig.watch(f"dma{i}", rig.issue(issue, 64 + (i % 5) * 100, i))
            rig.sim.run()

        rig = run_both(drive)
        link = rig.dma.links[0]
        assert link.tags.peak_in_use == link.tags.capacity == 64
        assert link.posted_credits.peak_in_use == link.posted_credits.capacity
        assert link.reads == 200 and link.writes == 100

    @pytest.mark.parametrize("seed", [5, 6])
    def test_delay_spikes_and_dropped_tlps_retry(self, seed):
        plan = FaultPlan(dma_delay_prob=0.2, dma_drop_prob=0.15)
        rig = run_both(lambda rig: engine_mix(rig, seed), plan=plan)
        counters = rig.dma.snapshot()
        assert counters["fault_delays"] and counters["dma_retries"]
        assert not rig.failures()

    @pytest.mark.parametrize("seed", [7, 8])
    def test_retry_exhaustion_fails_the_access(self, seed):
        plan = FaultPlan(dma_drop_prob=0.3, dma_max_retries=1)
        rig = run_both(lambda rig: engine_mix(rig, seed), plan=plan)
        failures = rig.failures()
        assert failures and set(failures) == {FaultInjected}

    @pytest.mark.parametrize("seed", [9, 10])
    def test_ecc_corrected_and_detected(self, seed):
        plan = FaultPlan(bit_flip_prob=0.3, double_bit_flip_prob=0.3)
        rig = run_both(
            lambda rig: engine_mix(rig, seed, count=200), plan=plan,
            nic_lines=64,
        )
        ecc = rig.engine.ecc.counters.snapshot()
        assert ecc["corrected_bits"] and ecc["detected_double_errors"]
        assert set(rig.failures()) == {CorruptionDetected}

    def test_every_fault_class_at_once(self):
        plan = FaultPlan(
            dma_delay_prob=0.1, dma_drop_prob=0.2, dma_max_retries=2,
            bit_flip_prob=0.2, double_bit_flip_prob=0.2,
        )
        rig = run_both(
            lambda rig: engine_mix(rig, 11, count=200), plan=plan,
            nic_lines=32,
        )
        assert set(rig.failures()) == {FaultInjected, CorruptionDetected}


class TestTheGateBites:
    """A constructed same-instant tie: one access whose first line bypasses
    the cache (PCIe read) and whose second line hits it (NIC-DRAM burst).
    The burst's start hop is what puts the channel reservation *after* the
    read's tag grant; a NIC DRAM that books the channel inside ``access()``
    swaps the two, and the log comparison catches it."""

    @staticmethod
    def drive(rig):
        bypass_then_cached = next(
            line for line in range(1000)
            if address_hash(line) >= 0.5 > address_hash(line + 1)
        )
        warm = rig.issue(
            rig.engine.access, (bypass_then_cached + 1) * LINE, LINE, True, -1
        )
        rig.sim.run(warm)
        rig.sim.run()
        del rig.log[:]
        rig.watch("tie", rig.issue(
            rig.engine.access, bypass_then_cached * LINE, 2 * LINE, False, -1
        ))
        rig.sim.run()

    def test_chains_keep_the_order_and_a_fused_hop_does_not(self):
        reference, chains, fused = (
            Rig(classes) for classes in (
                REFERENCE, CHAINS, (HopFusedNICDram, DMAEngine, MemoryAccessEngine),
            )
        )
        for rig in (reference, chains, fused):
            self.drive(rig)
        assert chains.log == reference.log
        assert fused.log != reference.log

        def order(rig):
            return [entry[1:3] for entry in rig.log if entry[0] == rig.log[0][0]]

        booked = ("nic_dram", "reserve")
        credit = ("pcie0.nonposted", "acquire")
        assert order(chains).index(booked) > order(chains).index(credit)
        assert order(fused).index(booked) < order(fused).index(credit)


class _CountingDeque(deque):
    appends = 0

    def append(self, item):
        self.appends += 1
        super().append(item)


class TestQueueEntriesPerOp:
    """Every hop is one queue entry, so a fused or an added hop changes the
    number of entries a fixed run queues - caught here by count, whether or
    not it happens to move a golden: ``(deque appends, heap pushes)``.

    The per-op drivers used to be processes; each one's completion was an
    entry nobody waited on, and the chains queue everything else.  So each
    pin is the generator drivers' count less one deque append per process
    they created (:class:`TestDriverChainsMatchTheGenerators` asserts that
    identity run by run): 800 = two per op for 400 point ops, 240 for 120
    scans, and 417 for the shed run, whose shed ops never reach the main
    pipeline.  Heap pushes are unchanged."""

    @staticmethod
    def queue_entries(built, ops, concurrency, run=None):
        sim = built.sim
        assert not sim._dq and not sim._queue
        counting = sim._dq = _CountingDeque()
        sim.call_soon = counting.append
        pushes = sim._sequence
        if run is None:
            stats = run_closed_loop(
                built.processor, ops, concurrency=concurrency
            )
            assert stats["operations"] == len(ops)
        else:
            run(ops)
        return counting.appends, sim._sequence - pushes

    def test_direct_point_ops(self):
        built = scenario.build(
            seed=7, memory_size=1 << 20, corpus=2000, put_ratio=0.5
        )
        entries = self.queue_entries(built, built.operations(400), 32)
        assert entries == (6407, 2318)  # 21.8 per op

    def test_ordered_scans(self):
        built = scenario.build(
            seed=7, memory_size=1 << 20, corpus=1000, workload="E"
        )
        entries = self.queue_entries(built, built.operations(120), 16)
        assert entries == (23520, 11804)  # 294.4 per op

    # Four slots under 32 concurrent clients: almost every op queues for
    # its slot, so these two pin the queued grant and its hand-over.

    def saturated(self, **overrides):
        built = scenario.build(
            seed=7, memory_size=1 << 20, corpus=2000, put_ratio=0.5,
            max_inflight=4, **overrides
        )
        entries = self.queue_entries(built, built.operations(400), 32)
        processor = built.processor
        stalls = processor.station.counters["full_stalls"]
        return entries, stalls, processor.stall_times.count

    def test_saturated_ingress_without_policy(self):
        assert self.saturated() == ((6491, 2337), 396, 396)

    def test_saturated_ingress_under_a_shed_policy(self):
        policy = OverloadPolicy(queue_depth=8, shed_policy="drop-oldest")
        assert self.saturated(overload=policy) == ((1443, 489), 396, 13)

    # The two routers' runs, whose clients, workers and failover were
    # generator processes too (tests/test_cold_chains.py asserts the
    # identity against those generators run by run).

    def test_sharded_router_over_the_wire(self):
        """The ``net-sharded`` shape: 4 NICs behind batching clients.  The
        generator clients queued 17,664 deque appends; the 20 batches'
        completions, which nothing waited on, are gone (17,644, 10,062).
        A 2 B record header puts each 254 B KV in a 256 B slab, not a
        512 B one: a GET reads 5 lines (bucket and record), not 9, and the
        queue entries of the 4 lines it no longer reads are gone."""
        built = scenario.build(
            seed=7, memory_size=2 << 20, corpus=1000, kv_size=254,
            put_ratio=0.05, distribution="zipf", shards=4,
        )
        router = built.server.router(batch_size=32, seed=7)
        entries = self.queue_entries(
            built, built.operations(600), None, router.run
        )
        assert entries == (11632, 6064)  # 19.4 per op

    def test_cluster_router_with_a_kill(self):
        """The ``cluster-failover`` shape: 3 nodes, a primary killed after
        a ninth of the ops.  The generator workers queued 9,979 deque
        appends; the completions of the failover and of the 63 workers
        before the last one, which nothing waited on, are gone, and so is
        ``quiesce``'s kick-start."""
        built = scenario.build(
            seed=7, memory_size=2 << 20, corpus=600, put_ratio=0.5, nodes=3
        )
        cluster = built.cluster
        ops = built.operations(600)
        cluster.kill_after_accepts(cluster.map.primary(0), len(ops) // 9)
        router = ClusterRouter(built.sim, cluster, seed=7)
        entries = self.queue_entries(
            built, ops, None, lambda ops: router.run(ops, concurrency=64)
        )
        assert cluster.counters["failovers"] == 1
        assert entries == (9914, 5378)  # 16.5 per op


# -- the per-op drivers: the processor's chains against RefKVProcessor --------

#: The reference's fire-and-forget drivers: nobody waits on one of these
#: processes, so its completion entry runs no callback - the one entry per
#: process that a chain does not queue.
DRIVERS = {"_ingress", "_main_pipeline", "_deliver_forwarded"}


class ProcessorRig(Rig):
    """A processor - the chains or the generator reference - over a fresh
    store: its hardware models' resource calls logged as in :class:`Rig`,
    every submitted op's context and response kept, the queue entries and
    the reference's driver processes counted."""

    def __init__(self, processor_cls, preload=(), hls=None, **store_options):
        self.tracer = Tracer()
        self.sim = sim = Simulator(tracer=self.tracer)
        self.log, self.pools, self.contexts, self.responses = [], [], [], []
        self.entries = sim._dq = _CountingDeque()
        sim.call_soon = self.entries.append
        self.processes = 0
        spawn = sim.process

        def process(generator):
            self.processes += generator.gi_code.co_name in DRIVERS
            return spawn(generator)

        sim.process = process
        store = KVDirectStore.create(memory_size=2 << 20, **store_options)
        for key, value in preload:
            store.put(key, value)
        store.reset_measurements()
        self.profiler = StageProfiler()
        self.processor = processor = processor_cls(
            sim, store, hls=hls(store) if hls else None,
            profiler=self.profiler,
        )
        for target, label in (
            (processor.decoder, "decode"),
            (processor.forward_engine, "forward"),
            (processor.nic_dram.channel, "nic_dram"),
            (processor.network.ingress, "eth.rx"),
            (processor.network.egress, "eth.tx"),
        ):
            self._spy_channel(target, label)
        self._spy(processor.cache, "access", "cache", result=lambda r: (
            r.hit, r.writeback_line, r.needs_fill
        ))
        self._spy(self.tracer, "emit", "tracer")
        # Logged as the op and whether the grant (or the shed) was queued
        # on arrival: the continuation (the reference's event) is not.
        self._spy(processor.admission, "submit", "slots",
                  logged_args=lambda args: args[:1])
        self._spy(processor.admission, "release", "slots")
        for link in processor.dma.links:
            self._spy_channel(link.tx, link.tx.name)
            self._spy_channel(link.rx, link.rx.name)
            self._spy(link.config.read_latency, "sample", f"{link.name}.rtt")
            for pool in (link.tags, link.posted_credits, link.nonposted_credits):
                self.pools.append(pool)
                self._spy(pool, "acquire", pool.name, result=lambda _: None,
                          logged_args=lambda args: ())
                self._spy(pool, "release", pool.name)
        submit = processor.submit

        def submit_and_keep(op, deadline_ns=None):
            response = submit(op, deadline_ns)
            self.contexts.append(processor._contexts[id(op)])
            self.responses.append(response)
            return response

        processor.submit = submit_and_keep

    def assert_drained(self):
        super().assert_drained()
        admission = self.processor.admission
        assert admission.available == admission.capacity
        assert not admission.depth

    def observed(self):
        """Everything a run leaves behind, in comparable form."""
        assert all(response.triggered for response in self.responses)
        return {
            "log": self.log,
            "spans": [
                (span.at_ns, span.seq, span.stage, span.detail)
                for span in self.tracer.spans
            ],
            "timestamps": [ctx.timestamps for ctx in self.contexts],
            "responses": [
                response.value if response.ok else type(response.exception)
                for response in self.responses
            ],
            "profile": self.profiler.as_dict(),
            "metrics": self.processor.register_metrics().collect(),
            "now": self.sim.now,
            "heap_pushes": self.sim._sequence,
        }


def run_drivers(drive, **options):
    """Drive the generator reference and the chains through one seeded run
    each.  Everything observable must match, and the chains must queue
    exactly the reference's entries less one per driver process (its
    completion).  Returns the chains' rig."""
    reference, chains = (
        ProcessorRig(cls, **options) for cls in (RefKVProcessor, KVProcessor)
    )
    for rig in (reference, chains):
        drive(rig)
        rig.sim.run()  # the posted-credit returns after the last response
        rig.assert_drained()
    assert chains.observed() == reference.observed()
    assert chains.processes == 0 < reference.processes
    assert chains.entries.appends == (
        reference.entries.appends - reference.processes
    )
    return chains


def hot_key_mix(seed, count=240, keys=10, value_sizes=(8, 64)):
    """GETs and PUTs over a few hot keys: same-key ops park in the station
    and are forwarded, and forwarded PUTs dirty a slot's cached value."""
    rng = random.Random(seed)
    ops = []
    for seq in range(count):
        key = b"hot%02d" % rng.randrange(keys)
        if rng.random() < 0.5:
            value = bytes([seq % 251]) * rng.choice(value_sizes)
            ops.append(KVOperation.put(key, value, seq=seq))
        else:
            ops.append(KVOperation.get(key, seq=seq))
    return ops


HOT_KEYS = [(b"hot%02d" % i, b"v" * 64) for i in range(10)]


def closed_loop(ops, concurrency=32):
    return lambda rig: run_closed_loop(rig.processor, ops, concurrency)


def all_at_once(ops, deadlines=None):
    """Submit every op at t=0 (each with its deadline), then run."""
    def drive(rig):
        for i, op in enumerate(ops):
            rig.processor.submit(op, None if deadlines is None else deadlines[i])
        rig.sim.run()
    return drive


class TestDriverChainsMatchTheGenerators:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_forwarding_and_station_writebacks(self, seed):
        rig = run_drivers(
            closed_loop(hot_key_mix(seed)), preload=HOT_KEYS, seed=seed
        )
        counters = rig.processor.counters
        assert counters["forwarded"] and counters["writebacks"]

    def test_dma_retry_exhaustion_and_ecc_faults(self):
        plan = FaultPlan(
            dma_drop_prob=0.2, dma_max_retries=1,
            bit_flip_prob=0.3, double_bit_flip_prob=0.3,
        )
        rig = run_drivers(
            closed_loop(hot_key_mix(3, keys=40)),
            preload=HOT_KEYS, seed=3, fault_plan=plan,
        )
        failed = set(rig.observed()["responses"]) & {
            FaultInjected, CorruptionDetected
        }
        assert failed == {FaultInjected, CorruptionDetected}
        assert rig.processor.counters["fault_failed_replays"]

    @pytest.mark.parametrize("out_of_order", [True, False])
    def test_expiry_at_every_boundary(self, out_of_order):
        rng = random.Random(4)
        ops = hot_key_mix(4, count=160)
        deadlines = [
            rng.choice((None, 1.0, 300.0, 900.0, 2500.0, 6000.0))
            for __ in ops
        ]
        rig = run_drivers(
            all_at_once(ops, deadlines), preload=HOT_KEYS, seed=4,
            max_inflight=8, reservation_slots=4, out_of_order=out_of_order,
        )
        assert set(rig.processor.deadline_counters.snapshot()) == {
            "decode", "admission", "pipeline_start"
        }

    @pytest.mark.parametrize("policy", SHED_POLICIES)
    def test_shedding_under_each_policy(self, policy):
        rig = run_drivers(
            all_at_once(hot_key_mix(5, count=120, keys=40)),
            preload=HOT_KEYS, seed=5, max_inflight=4,
            overload=OverloadPolicy(queue_depth=6, shed_policy=policy),
        )
        assert rig.processor.counters["shed_ops"]
        assert ServerBusy in rig.observed()["responses"]

    def test_lambda_compute_time(self):
        def q(*values):
            return struct.pack("<%dq" % len(values), *values)

        def toolchain(store):
            hls = HLSToolchain()
            hls.compile(store.registry.lookup(FETCH_ADD))
            return hls

        rng = random.Random(6)
        ops = [
            KVOperation(
                OpType.UPDATE_SCALAR2VECTOR, b"vec%d" % rng.randrange(4),
                func_id=FETCH_ADD, param=q(seq), seq=seq,
            ) if rng.random() < 0.6 else
            KVOperation.get(b"vec%d" % rng.randrange(4), seq=seq)
            for seq in range(120)
        ]
        rig = run_drivers(
            closed_loop(ops, 16), hls=toolchain, seed=6,
            preload=[(b"vec%d" % i, q(*range(40))) for i in range(4)],
        )
        assert rig.processor.counters["lambda_cycles"]

    def test_ordered_range_scans(self):
        rng = random.Random(8)
        corpus = [(b"key%04d" % i, b"v" * 13) for i in range(300)]
        ops = [
            KVOperation.put(b"key%04d" % rng.randrange(400), b"w" * 13, seq=seq)
            if rng.random() < 0.2 else
            KVOperation.range(
                b"key%04d" % rng.randrange(300), rng.randint(1, 25), seq=seq
            )
            for seq in range(100)
        ]
        rig = run_drivers(
            closed_loop(ops, 16), preload=corpus, seed=8, ordered_index=True
        )
        assert rig.processor.store.index.scan_cost.count

    def test_client_under_packet_loss_duplication_and_reorder(
        self, monkeypatch
    ):
        plan = FaultPlan(
            packet_loss_prob=0.15, packet_duplicate_prob=0.2,
            packet_reorder_prob=0.2,
        )
        stats = []
        monkeypatch.setattr(client_module, "RETRY_LIMIT", 16)
        monkeypatch.setattr(client_module, "RETRY_BACKOFF_NS", 500.0)

        def drive(rig):
            client = KVClient(rig.sim, rig.processor, batch_size=8)
            stats.append(dataclasses.asdict(client.run(hot_key_mix(9))))
            stats.append(client.responses)

        rig = run_drivers(drive, preload=HOT_KEYS, seed=9, fault_plan=plan)
        assert stats[0:2] == stats[2:4]
        eth = rig.processor.network.counters
        for kind in ("lost", "duplicates", "reordered"):
            assert eth["rx_" + kind] and eth["tx_" + kind], kind


# -- the replication drain: the chain against RefReplicationChannel ----------


class RefReplicationChannel(ReplicationChannel):
    """The replication drain as the generator process it was: one per
    burst of records, sleeping :data:`REPLICATION_DELAY_NS` per record.
    Emptying the channel wakes the cluster's waits, as the chain does."""

    def enqueue(self, key, h, value, acked_at):
        self.queue.append((key, h, value, acked_at))
        self.cluster.counters["replication_records"] += 1
        if not self._draining:
            self._draining = True
            self.cluster.sim.process(self._drain())

    def _drain(self):
        cluster = self.cluster
        sim = cluster.sim
        while self.queue:
            yield sim.timeout(REPLICATION_DELAY_NS)
            key, h, value, acked_at = self.queue.popleft()
            backup = cluster.map.backup(self.slot)
            if backup is None or not cluster.nodes[backup].alive:
                cluster.counters["replication_skipped"] += 1
            elif cluster.apply_state(
                cluster.nodes[backup], self.slot, key, value, h
            ):
                cluster.counters["replication_applies"] += 1
                cluster.replication_lag_ns.record(sim.now - acked_at)
        self._draining = False
        if cluster._waiters:
            cluster._wake()


def run_cluster(channel_cls, nodes, seed):
    """One seeded ClusterRouter run with a primary killed mid-run, every
    channel a ``channel_cls``: what it leaves behind, its deque appends and
    the number of drain processes it created."""
    tracer = Tracer()
    sim = Simulator(tracer=tracer)
    entries = sim._dq = _CountingDeque()
    sim.call_soon = entries.append
    drains = []
    spawn = sim.process

    def process(generator):
        drains.append(generator.gi_code.co_name == "_drain")
        return spawn(generator)

    sim.process = process
    cluster = Cluster(
        sim, num_nodes=nodes, num_slots=8,
        config=KVDirectConfig(memory_size=2 << 20, seed=seed),
    )
    for channel in cluster.channels:
        channel.__class__ = channel_cls
    applies = []
    apply_state = cluster.apply_state

    def logged_apply(node, slot, key, value, h=None):
        landed = apply_state(node, slot, key, value, h)
        applies.append((sim.now, node.index, slot, key, value, landed))
        return landed

    cluster.apply_state = logged_apply
    for i in range(64):
        cluster.preload(b"key%04d" % i, b"v%d" % i)
    rng = random.Random(seed)
    ops = []
    for seq in range(360):
        key = b"key%04d" % rng.randrange(80)
        kind = rng.random()
        if kind < 0.45:
            ops.append(KVOperation.put(key, b"w%d" % seq, seq=seq))
        elif kind < 0.55:
            ops.append(KVOperation.delete(key, seq=seq))
        else:
            ops.append(KVOperation.get(key, seq=seq))
    cluster.kill_after_accepts(cluster.map.primary(0), 120)
    router = ClusterRouter(sim, cluster, seed=seed)
    stats = router.run(ops, concurrency=16)
    observed = {
        "stats": stats,
        "router": router.counters.snapshot(),
        "cluster": cluster.counters.snapshot(),
        "lag": cluster.replication_lag_ns.samples(),
        "failover": cluster.failover_time_ns.samples(),
        "applies": applies,
        "spans": [
            (span.at_ns, span.seq, span.stage, span.detail)
            for span in tracer.spans
        ],
        "state": sorted(cluster.primary_state().items()),
        "directory": cluster.directory,
        "now": sim.now,
        "heap_pushes": sim._sequence,
    }
    return observed, entries.appends, sum(drains)


class TestReplicationChainMatchesTheGenerator:
    """Everything a replicated run leaves behind is the generator drain's,
    and the chain queues exactly its entries less one per drain process:
    the completion nobody waited on."""

    @pytest.mark.parametrize("nodes,seed", [(3, 1), (3, 2), (2, 3)])
    def test_failover_run(self, nodes, seed):
        reference, ref_entries, ref_drains = run_cluster(
            RefReplicationChannel, nodes, seed
        )
        chains, entries, drains = run_cluster(ReplicationChannel, nodes, seed)
        assert chains == reference
        assert drains == 0 < ref_drains
        assert entries == ref_entries - ref_drains
        events = chains["cluster"]
        assert events["failovers"] == 1
        assert events["replication_applies"] and events["replication_skipped"]
        # Two nodes leave the survivor unreplicated: nothing to migrate.
        assert bool(events.get("migrated_keys")) == (nodes == 3)


class TestPureFunctionTrims:
    def test_line_indexed_predicate_matches_the_address_one(self):
        """The one per-line test - the 32-bit line hash against
        ``ratio * 2**32`` - compares exactly like ``address_hash < ratio``,
        on both sides of the threshold and on it (line 2**31 hashes to
        exactly 2**31, the 0.5 threshold)."""
        for ratio in (0.0, 0.3, 0.5, DEFAULT_LOAD_DISPATCH_RATIO, 1.0):
            dispatcher = LoadDispatcher(ratio)
            lines = list(range(2000)) + [
                2**31 - 1, 2**31, 2**31 + 1, 2**40 + 17,
            ]
            for line in lines:
                expected = address_hash(line) < ratio
                inline = (
                    (line * LINE_HASH_MULTIPLIER) & LINE_HASH_MASK
                ) < dispatcher.threshold
                assert inline is expected
                assert is_cacheable(dispatcher, line * LINE + 5) is expected
        assert address_hash(2**31) == 0.5

    def test_memoised_tlp_sizes_still_validate(self):
        assert read_request_bytes(64) == read_request_bytes(64) == 26
        assert read_response_bytes(300) == 300 + 2 * 26
        assert write_request_bytes(0) == 26
        for sizes in (read_request_bytes, read_response_bytes, write_request_bytes):
            with pytest.raises(ValueError):
                sizes(-1)
            with pytest.raises(ValueError):
                sizes(-1)  # an error is never the cached answer
