"""Fault-injection subsystem tests.

Covers the determinism contract (byte-identical fault schedules and stats
for a fixed seed), each fault class end to end - PCIe delay/drop, ECC bit
flips, packet loss, slab exhaustion - and the client's retry/backoff
recovery from transient network faults.
"""

from dataclasses import replace

import pytest

from repro.client import KVClient
from repro.client import client as client_module
from repro.core.config import KVDirectConfig
from repro.core.operations import KVOperation
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.dram.cache import ECCFaultPath
from repro.dram.hamming import DecodeStatus, HammingSECDED
from repro.errors import (
    ConfigurationError,
    CorruptionDetected,
    FaultInjected,
    KVDirectError,
    MalformedValueError,
    RetryExhausted,
)
from repro.faults import FaultInjector, FaultPlan, FaultWindow
from repro.network.batching import (
    decode_batch,
    encode_batch,
    seal_batch,
    unseal_batch,
)
from repro.pcie.dma import DMAEngine
from repro.pcie.link import PCIeLinkConfig
from repro.pcie.tlp import transfer_drop_probability
from repro.sim import Simulator
from tests.waiting import wait




def _loss(injector, site, now):
    """One packet-loss draw at ``site``, as an Ethernet link makes it."""
    return injector.fire(
        f"{site}.loss", "packet_loss", injector.plan.packet_loss_prob, now
    )

class TestFaultPlan:
    def test_default_plan_is_inert(self):
        injector = FaultInjector(FaultPlan(), seed=0)
        for i in range(200):
            assert not injector.dma_delay("pcie0", float(i))
            assert not _loss(injector, "eth.rx", float(i))
            assert not injector.slab_exhausted()
        assert injector.fired == 0

    def test_any_probability_enables(self):
        lossy = FaultInjector(FaultPlan(packet_loss_prob=0.01), seed=0)
        assert any(_loss(lossy, "eth.rx", float(i)) for i in range(2000))
        exhausting = FaultInjector(FaultPlan(slab_exhaust_prob=1.0), seed=0)
        assert exhausting.slab_exhausted()

    @pytest.mark.parametrize("knob", [
        "dma_delay_prob", "dma_drop_prob", "bit_flip_prob",
        "double_bit_flip_prob", "packet_loss_prob", "packet_reorder_prob",
        "packet_duplicate_prob", "slab_exhaust_prob",
    ])
    def test_probabilities_validated(self, knob):
        with pytest.raises(ConfigurationError):
            FaultPlan(**{knob: 1.5})
        with pytest.raises(ConfigurationError):
            FaultPlan(**{knob: -0.1})

    @pytest.mark.parametrize("knob", [
        "dma_delay_ns", "dma_retry_timeout_ns", "packet_reorder_delay_ns",
        "node_stall_ns",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_times_validated(self, knob, value):
        """Every time is finite and non-negative: NaN passed the old
        ``< 0`` checks."""
        with pytest.raises(ConfigurationError, match=knob):
            FaultPlan(**{knob: value})

    @pytest.mark.parametrize("retries", [-1, 2.5, True, float("nan")])
    def test_retry_budget_is_a_count(self, retries):
        with pytest.raises(ConfigurationError, match="dma_max_retries"):
            FaultPlan(dma_max_retries=retries)

    def test_window_validated(self):
        nan = float("nan")
        with pytest.raises(ConfigurationError):
            FaultWindow(start_ns=-1.0)
        with pytest.raises(ConfigurationError):
            FaultWindow(start_ns=100.0, end_ns=50.0)
        for start, end in ((nan, 10.0), (0.0, nan), (float("inf"), 10.0)):
            with pytest.raises(ConfigurationError):
                FaultWindow(start_ns=start, end_ns=end)
        with pytest.raises(ConfigurationError):
            FaultPlan(window="not a window")

    def test_with_overrides(self):
        plan = replace(FaultPlan.chaos(0.1), packet_loss_prob=0.0)
        assert plan.packet_loss_prob == 0.0
        assert plan.dma_delay_prob == 0.1

    def test_config_carries_plan(self):
        plan = FaultPlan(packet_loss_prob=0.1)
        cfg = KVDirectConfig(fault_plan=plan)
        assert cfg.fault_plan is plan
        with pytest.raises(ConfigurationError):
            KVDirectConfig(fault_plan="nope")


class TestInjectorDeterminism:
    def _drive(self, seed, salt=0):
        plan = replace(FaultPlan.chaos(0.2), seed_salt=salt)
        injector = FaultInjector(plan, seed=seed)
        for i in range(200):
            injector.dma_delay("pcie0", float(i))
            _loss(injector, "eth.rx", float(i))
            injector.slab_exhausted(detail=f"op{i}")
        return injector

    def test_same_seed_byte_identical_schedule(self):
        a, b = self._drive(seed=7), self._drive(seed=7)
        assert a.fired > 0
        assert a.schedule_digest() == b.schedule_digest()
        assert a.counters.snapshot() == b.counters.snapshot()

    def test_different_seed_differs(self):
        a, b = self._drive(seed=7), self._drive(seed=8)
        assert a.schedule_digest() != b.schedule_digest()

    def test_seed_salt_decorrelates(self):
        a, b = self._drive(seed=7), self._drive(seed=7, salt=1)
        assert a.schedule_digest() != b.schedule_digest()

    def test_sites_are_independent_streams(self):
        """Extra traffic at one site must not shift another's schedule."""
        plan = FaultPlan(packet_loss_prob=0.3)
        a = FaultInjector(plan, seed=3)
        b = FaultInjector(plan, seed=3)
        results_a = [_loss(a, "eth.rx", float(i)) for i in range(50)]
        for i in range(50):
            _loss(b, "eth.tx", float(i))  # unrelated site, interleaved
            assert _loss(b, "eth.rx", float(i)) == results_a[i]

    def test_window_suppresses_outside(self):
        plan = FaultPlan(
            packet_loss_prob=1.0,
            window=FaultWindow(start_ns=100.0, end_ns=200.0),
        )
        injector = FaultInjector(plan, seed=0)
        assert not _loss(injector, "eth.rx", 50.0)
        assert _loss(injector, "eth.rx", 150.0)
        assert not _loss(injector, "eth.rx", 250.0)
        assert injector.counters["eth.rx.loss.suppressed"] == 2
        assert injector.fired == 1


class TestDMAFaults:
    def _engine(self, plan, seed=0):
        sim = Simulator()
        injector = FaultInjector(plan, seed=seed)
        engine = DMAEngine(sim, PCIeLinkConfig.gen3_x8(seed=0),
                           injector=injector)
        return sim, engine

    def test_delay_spike_slows_read(self):
        sim, engine = self._engine(FaultPlan(dma_delay_prob=1.0,
                                             dma_delay_ns=50_000.0))
        sim.run(wait(sim, engine.read, 64, -1))
        assert sim.now >= 50_000.0
        assert engine.counters["fault_delays"] == 1

    def test_dropped_tlp_retries_then_succeeds(self):
        plan = FaultPlan(dma_drop_prob=0.05, dma_max_retries=1000,
                         dma_retry_timeout_ns=10.0)
        sim, engine = self._engine(plan)
        for __ in range(200):
            sim.run(wait(sim, engine.read, 64, -1))
        assert engine.reads == 200
        assert engine.counters["dma_retries"] > 0

    def test_retry_budget_exhaustion_raises(self):
        plan = FaultPlan(dma_drop_prob=1.0, dma_max_retries=3,
                         dma_retry_timeout_ns=10.0)
        sim, engine = self._engine(plan)
        with pytest.raises(FaultInjected):
            sim.run(wait(sim, engine.read, 64, -1))
        assert engine.counters["fault_drops"] == 4  # initial + 3 retries

    def test_write_path_faults_too(self):
        plan = FaultPlan(dma_drop_prob=1.0, dma_max_retries=0,
                         dma_retry_timeout_ns=10.0)
        sim, engine = self._engine(plan)
        with pytest.raises(FaultInjected):
            sim.run(wait(sim, engine.write, 64, -1))
        # The posted credit must be released on failure.
        assert engine.posted_credits.available == engine.posted_credits.capacity

    def test_transfer_drop_probability_compounds_per_tlp(self):
        p = transfer_drop_probability(0.01, 64)
        big = transfer_drop_probability(0.01, 1024)
        assert 0.0 < p < big < 1.0
        assert transfer_drop_probability(0.0, 64) == 0.0
        assert transfer_drop_probability(1.0, 64) == 1.0


class TestECCFaults:
    def test_single_flip_corrected_transparently(self):
        injector = FaultInjector(FaultPlan(bit_flip_prob=1.0), seed=0)
        path = ECCFaultPath(injector)
        for __ in range(50):
            assert path.read_word(0.0) is DecodeStatus.CORRECTED
        assert path.counters["corrected_bits"] == 50

    def test_double_flip_detected_never_served(self):
        injector = FaultInjector(FaultPlan(double_bit_flip_prob=1.0), seed=0)
        path = ECCFaultPath(injector)
        with pytest.raises(CorruptionDetected):
            path.read_word(0.0)
        assert path.counters["detected_double_errors"] == 1

    def test_clean_reads_with_inert_plan(self):
        injector = FaultInjector(FaultPlan(), seed=0)
        path = ECCFaultPath(injector)
        assert path.read_word(0.0) is DecodeStatus.CLEAN

    def test_corrupt_rejects_duplicate_positions(self):
        codec = HammingSECDED(64)
        word = codec.encode(0x1234)
        with pytest.raises(KVDirectError):
            codec.corrupt(word, [3, 3])


class TestSlabExhaustion:
    def test_alloc_fails_and_state_unchanged(self):
        plan = FaultPlan(slab_exhaust_prob=1.0)
        store = KVDirectStore.create(memory_size=4 << 20, fault_plan=plan)
        before = dict(store.items())
        with pytest.raises(FaultInjected):
            store.put(b"key", b"x" * 64)
        assert dict(store.items()) == before
        assert store.allocator.counters["fault_exhaustions"] >= 1

    def test_inline_puts_unaffected(self):
        """Inline KVs never allocate a slab, so exhaustion can't touch them."""
        plan = FaultPlan(slab_exhaust_prob=1.0)
        store = KVDirectStore.create(memory_size=4 << 20, fault_plan=plan)
        assert store.put(b"k", b"v")
        assert store.get(b"k") == b"v"


class TestBatchIntegrity:
    def _ops(self):
        return [KVOperation.put(b"key%d" % i, b"val%d" % i, seq=i)
                for i in range(4)]

    def test_seal_unseal_roundtrip(self):
        payload = encode_batch(self._ops())
        assert unseal_batch(seal_batch(payload)) == payload

    def test_checksum_detects_corruption(self):
        sealed = encode_batch(self._ops(), checksum=True)
        corrupted = bytes([sealed[0] ^ 0x40]) + sealed[1:]
        with pytest.raises(CorruptionDetected):
            decode_batch(corrupted, checksum=True)

    def test_checksummed_batch_decodes(self):
        ops = self._ops()
        decoded = decode_batch(encode_batch(ops, checksum=True),
                               checksum=True)
        assert [(o.op, o.key, o.value) for o in decoded] == [
            (o.op, o.key, o.value) for o in ops
        ]


class TestErrorTaxonomy:
    def test_malformed_value_is_a_kvdirect_error(self):
        assert issubclass(MalformedValueError, KVDirectError)

    def test_retry_exhausted_is_a_fault(self):
        assert issubclass(RetryExhausted, FaultInjected)
        assert issubclass(FaultInjected, KVDirectError)
        assert issubclass(CorruptionDetected, KVDirectError)

    def test_unpack_raises_malformed(self):
        from repro.core.vector import unpack_elements
        with pytest.raises(MalformedValueError):
            unpack_elements(b"123", 8, True)


def _faulted_client_run(seed, plan, nops=96, retry_limit=16):
    """One full client run under a fault plan, with ``retry_limit`` loss
    retries per flight and a 500 ns backoff base; returns (client, stats,
    injector)."""
    store = KVDirectStore.create(
        memory_size=4 << 20, fault_plan=plan, seed=seed
    )
    sim = Simulator()
    processor = KVProcessor(sim, store)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(client_module, "RETRY_LIMIT", retry_limit)
        patch.setattr(client_module, "RETRY_BACKOFF_NS", 500.0)
        client = KVClient(sim, processor, batch_size=8)
    ops = []
    for i in range(nops):
        # PUT/GET pairs share a key, so GETs read keys that were written.
        key = b"key%02d" % ((i // 2) % 8)
        if i % 2 == 0:
            # Values too big to inline, so PUTs exercise the slab path.
            ops.append(
                KVOperation.put(key, (b"value%04d" % i).ljust(64, b"."), seq=i)
            )
        else:
            ops.append(KVOperation.get(key, seq=i))
    stats = client.run(ops)
    return client, stats, store.injector


class TestClientRecovery:
    def test_transient_loss_recovered_end_to_end(self):
        """Acceptance: injected packet loss is absorbed by retry/backoff -
        retries happen, yet zero ops fail and every response arrives."""
        plan = FaultPlan(packet_loss_prob=0.2)
        client, stats, injector = _faulted_client_run(seed=11, plan=plan)
        assert stats.retries > 0
        assert stats.failed_ops == 0
        assert injector.fired > 0
        assert len(client.responses) == 96
        # GETs of previously PUT keys found them and returned right data.
        gets = [client.responses[seq] for seq in range(1, 96, 2)]
        assert all(r.ok for r in gets)
        for result in gets:
            assert result.value.startswith(b"value")

    def test_retry_budget_exhaustion_surfaces(self):
        plan = FaultPlan(packet_loss_prob=1.0)
        with pytest.raises(RetryExhausted):
            _faulted_client_run(seed=0, plan=plan, nops=8, retry_limit=2)

    def test_loss_free_run_never_retries(self):
        client, stats, injector = _faulted_client_run(
            seed=0, plan=FaultPlan(packet_reorder_prob=0.3,
                                   packet_duplicate_prob=0.3)
        )
        assert stats.retries == 0
        assert stats.failed_ops == 0
        assert injector.fired > 0  # reorder/dup fired but are absorbed

    def test_server_side_faults_counted_not_fatal(self):
        """Slab exhaustion fails individual ops; the run itself survives."""
        plan = FaultPlan(slab_exhaust_prob=0.5)
        client, stats, injector = _faulted_client_run(seed=5, plan=plan)
        assert stats.failed_ops > 0
        assert stats.failed_ops < stats.operations
        assert len(client.responses) == stats.operations - stats.failed_ops


class TestEndToEndDeterminism:
    def test_fixed_seed_reproduces_schedule_and_stats(self):
        """Acceptance: two identical fault runs produce byte-identical
        fault schedules and identical statistics."""
        plan = FaultPlan.chaos(0.05)
        runs = []
        for __ in range(2):
            client, stats, injector = _faulted_client_run(seed=42, plan=plan)
            runs.append((
                injector.schedule_digest(),
                injector.counters.snapshot(),
                stats.as_dict(),
                sorted(client.responses),
            ))
        assert runs[0][0] == runs[1][0]
        assert runs[0] == runs[1]

    def test_different_seeds_schedule_differs(self):
        plan = FaultPlan.chaos(0.05)
        __, __, inj_a = _faulted_client_run(seed=1, plan=plan)
        __, __, inj_b = _faulted_client_run(seed=2, plan=plan)
        assert inj_a.fired > 0 and inj_b.fired > 0
        assert inj_a.schedule_digest() != inj_b.schedule_digest()
