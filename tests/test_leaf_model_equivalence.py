"""The leaf callback chains against the generator bodies they replaced.

``dram/nic.py``, ``pcie/dma.py`` and ``memory/engine.py`` used to run every
NIC-DRAM burst, DMA and cache line as a generator ``Process``; they now run
them as callback chains that must occupy the *same queue positions* (see
"Same-instant ordering contract" in ``docs/MODELING.md``).  The deleted
generator bodies live on here, verbatim, as the ``Ref*`` subclasses - a
test-only reference.  Both implementations are driven through the same
seeded concurrent mixes and must produce the same ordered log of every
``(sim.now, resource, call)``: token acquires and releases, bandwidth
reservations, cache decisions, latency draws and samples, tracer spans and
each access's outcome.
"""

import random
from collections import deque

import pytest

from repro import scenario
from repro.core.admission import OverloadPolicy
from repro.dram.cache import DramCache, ECCFaultPath
from repro.dram.hamming import DecodeStatus
from repro.dram.nic import NICDram
from repro.errors import CorruptionDetected, FaultInjected
from repro.faults import FaultInjector, FaultPlan
from repro.memory.dispatcher import LoadDispatcher, address_hash
from repro.memory.engine import MemoryAccessEngine
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
from repro.sim import Simulator

LINE = 64


# -- the reference: the generator bodies as they were before the chains ------


class RefNICDram(NICDram):
    def access(self, nbytes, write=False):
        kind = "writes" if write else "reads"
        self.counters.add(kind)
        self.counters.add(f"{kind[:-1]}_bytes", nbytes)
        return self.sim.process(self._access(nbytes))

    def _access(self, nbytes):
        yield self.channel.transfer(nbytes)
        yield self.sim.timeout(self.latency_ns)


class RefDMAEngine(DMAEngine):
    # ``then`` is what ``MultiLinkDMA`` forwards; the generators never pass
    # one and wait on the returned process instead.
    def read(self, nbytes, seq=-1, then=None):
        assert then is None
        return self.sim.process(self._read(nbytes, seq))

    def write(self, nbytes, seq=-1, then=None):
        assert then is None
        return self.sim.process(self._write(nbytes, seq))

    def _read(self, nbytes, seq=-1):
        start = self.sim.now
        yield self.tags.acquire()
        yield self.nonposted_credits.acquire()
        try:
            attempts = 0
            while True:
                yield self.tx.transfer(read_request_bytes(nbytes))
                if self.injector is None:
                    break
                if not (yield from self._fault_check(nbytes, attempts, seq)):
                    break
                attempts += 1
            yield self.sim.timeout(self.config.read_latency.sample())
            yield self.rx.transfer(read_response_bytes(nbytes))
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
        yield self.posted_credits.acquire()
        try:
            attempts = 0
            while True:
                yield self.tx.transfer(write_request_bytes(nbytes))
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
        yield self.sim.timeout(self.config.fabric_rtt_ns)
        self.posted_credits.release()


class RefEngine(MemoryAccessEngine):
    def access(self, addr, size, write=False, seq=-1):
        return self.sim.process(self._access(addr, size, write, seq))

    def _access(self, addr, size, write, seq):
        if size <= 0:
            return
        self.counters.add("writes" if write else "reads")
        line_size = self.line_size
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
            if cache is not None and self.dispatcher.is_cacheable(line_addr):
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
            yield self.sim.all_of(pending)

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
            yield self.nic_dram.access(self.line_size, write=write)
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
            yield self.nic_dram.access(self.line_size, write=False)
            yield self.dma.write(self.line_size, seq)
        if result.needs_fill:
            self.counters.add("fills")
            if self.profiler is not None:
                self.profiler.record_cache(seq, "fill")
            self._trace(seq, "dram.fill", f"line={line}")
            yield self.dma.read(self.line_size, seq)
        yield self.nic_dram.access(self.line_size, write=True)


class HopFusedNICDram(NICDram):
    """What the contract forbids: the burst books the channel inside
    ``access()`` instead of one queue hop later."""

    def access(self, nbytes, write=False, then=None):
        kind = "writes" if write else "reads"
        self.counters.add(kind)
        self.counters.add(f"{kind[:-1]}_bytes", nbytes)
        sim = self.sim
        sim.call_when(
            self.channel.reserve(nbytes),
            lambda _: sim.call_after(
                self.latency_ns, lambda _: sim.call_soon(then)
            ),
        )


# -- one instrumented stack per implementation --------------------------------

CHAINS = (NICDram, DMAEngine, MemoryAccessEngine)
REFERENCE = (RefNICDram, RefDMAEngine, RefEngine)


class _LoggedHistogram:
    """Stands in for a ``__slots__`` Histogram, whose ``record`` cannot be
    patched on the instance."""

    def __init__(self, rig, inner, label):
        self.rig, self.inner, self.label = rig, inner, label

    def record(self, value):
        self.rig.log.append((self.rig.sim.now, self.label, "record", value))
        self.inner.record(value)


class Rig:
    """Engine + 2 PCIe links + NIC DRAM + cache, with every resource call
    appended to ``log`` as ``(sim.now, resource, call, ...)``."""

    def __init__(self, classes, plan=None, nic_lines=8, host_lines=256,
                 ratio=0.5, seed=3):
        nic_cls, dma_cls, engine_cls = classes
        self.sim = sim = Simulator()
        self.log = []
        self.injector = FaultInjector(plan, seed=seed) if plan else None
        self.tracer = Tracer(clock=lambda: sim.now)
        self.dma = MultiLinkDMA(sim, link_count=2)
        self.dma.links = [
            dma_cls(
                sim, PCIeLinkConfig.gen3_x8(seed=seed + i), name=f"pcie{i}",
                injector=self.injector, tracer=self.tracer,
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
            tracer=self.tracer,
        )
        self.pools = []
        self._spy(self.nic.channel, "reserve", "nic_dram")
        self._spy(self.cache, "access", "cache", result=lambda r: (
            r.hit, r.writeback_line, r.needs_fill
        ))
        self._spy(self.tracer, "emit", "tracer")
        for link in self.dma.links:
            self._spy(link.tx, "reserve", link.tx.name)
            self._spy(link.rx, "reserve", link.rx.name)
            self._spy(link.config.read_latency, "sample", f"{link.name}.rtt")
            link.read_latency_hist = _LoggedHistogram(
                self, link.read_latency_hist, f"{link.name}.hist"
            )
            for pool in (link.tags, link.posted_credits, link.nonposted_credits):
                self.pools.append(pool)
                # The chains pass their next step to ``acquire``; the
                # generators yield on the event it returns.  Same call.
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
        assert self.sim.peek() == float("inf")
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
            rig.watch(
                f"op{seq}",
                rig.engine.access(addr, size, write=rng.random() < 0.5, seq=seq),
            )
            gap = rng.choice((0.0, 0.0, 0.0, 5.0, 5.555, 40.0, 900.0))
            if gap:
                yield rig.sim.timeout(gap)

    rig.sim.process(driver())
    rig.sim.run()


def run_both(drive, **rig_options):
    rigs = [Rig(classes, **rig_options) for classes in (REFERENCE, CHAINS)]
    for rig in rigs:
        drive(rig)
    reference, chains = rigs
    assert chains.log == reference.log
    assert chains.tracer.render_lines() == reference.tracer.render_lines()
    assert chains.engine.snapshot() == reference.engine.snapshot()
    assert chains.sim.now == reference.sim.now
    chains.assert_drained()
    return chains


class TestChainsMatchTheGenerators:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_clean_concurrent_mix(self, seed):
        rig = run_both(lambda rig: engine_mix(rig, seed))
        snapshot = rig.engine.snapshot()
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
                rig.watch(f"dma{i}", issue(64 + (i % 5) * 100, seq=i))
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
        ecc = rig.engine.ecc.snapshot()
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
        warm = rig.engine.access((bypass_then_cached + 1) * LINE, LINE, write=True)
        rig.sim.run(warm)
        rig.sim.run()
        del rig.log[:]
        rig.watch("tie", rig.engine.access(bypass_then_cached * LINE, 2 * LINE))
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
    not it happens to move a golden.  The numbers were measured on the
    commit before the continuations (generator ``Process``es gone, one
    ``Event`` per hop still there): ``(deque appends, heap pushes)``."""

    @staticmethod
    def queue_entries(built, ops, concurrency):
        sim = built.sim
        assert not sim._dq and not sim._queue
        counting = sim._dq = _CountingDeque()
        sim.call_soon = counting.append
        pushes = sim._sequence
        stats = run_closed_loop(built.processor, ops, concurrency=concurrency)
        assert stats["operations"] == len(ops)
        return counting.appends, sim._sequence - pushes

    def test_direct_point_ops(self):
        built = scenario.build(
            seed=7, memory_size=1 << 20, corpus=2000, put_ratio=0.5
        )
        entries = self.queue_entries(built, built.operations(400), 32)
        assert entries == (7207, 2318)  # 23.8 per op

    def test_ordered_scans(self):
        built = scenario.build(
            seed=7, memory_size=1 << 20, corpus=1000, workload="E"
        )
        entries = self.queue_entries(built, built.operations(120), 16)
        assert entries == (23760, 11804)  # 296.4 per op

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
        assert self.saturated() == ((7291, 2337), 396, 396)

    def test_saturated_ingress_under_a_shed_policy(self):
        policy = OverloadPolicy(queue_depth=8, shed_policy="drop-oldest")
        assert self.saturated(overload=policy) == ((1860, 489), 396, 13)


class TestPureFunctionTrims:
    def test_line_indexed_predicate_matches_the_address_one(self):
        for ratio in (0.0, 0.3, 0.5, 1.0):
            dispatcher = LoadDispatcher(ratio)
            for line in list(range(2000)) + [2**31 - 1, 2**40 + 17]:
                expected = address_hash(line) < ratio
                assert dispatcher.caches_line(line) is expected
                assert dispatcher.is_cacheable(line * LINE + 5) is expected

    def test_memoised_tlp_sizes_still_validate(self):
        assert read_request_bytes(64) == read_request_bytes(64) == 26
        assert read_response_bytes(300) == 300 + 2 * 26
        assert write_request_bytes(0) == 26
        for sizes in (read_request_bytes, read_response_bytes, write_request_bytes):
            with pytest.raises(ValueError):
                sizes(-1)
            with pytest.raises(ValueError):
                sizes(-1)  # an error is never the cached answer
