"""Tests for the HLS toolchain model (section 3.2)."""

import pytest

from repro import constants
from repro.core.hls import (
    CompiledFunction,
    HLSToolchain,
    STRATIX_V_ALMS,
)
from repro.core.vector import FETCH_ADD, FuncKind, FunctionRegistry
from repro.errors import KVDirectError


@pytest.fixture
def registry():
    return FunctionRegistry()


@pytest.fixture
def toolchain():
    return HLSToolchain()


class TestDuplication:
    def test_matches_pcie_throughput(self, toolchain):
        """13.2 GB/s over 8 B elements = 1.65 G elements/s; at 180 MHz
        that needs 10 parallel lanes."""
        assert toolchain.duplication_for(8) == 10

    def test_wider_elements_need_fewer_lanes(self, toolchain):
        assert toolchain.duplication_for(8) > toolchain.duplication_for(64)

    def test_at_least_one_lane(self, monkeypatch):
        monkeypatch.setattr(constants, "KV_CLOCK_HZ", 1e12)  # absurdly fast
        assert HLSToolchain().duplication_for(8) == 1


class TestCompilation:
    def test_compile_builtin(self, toolchain, registry):
        compiled = toolchain.compile(registry.lookup(FETCH_ADD))
        assert compiled.duplication == 10
        assert compiled.operations >= 1
        assert compiled.alms > 0
        assert FETCH_ADD in toolchain

    def test_compile_is_idempotent(self, toolchain, registry):
        first = toolchain.compile(registry.lookup(FETCH_ADD))
        used = toolchain.alms_used
        second = toolchain.compile(registry.lookup(FETCH_ADD))
        assert first is second
        assert toolchain.alms_used == used

    def test_compile_registry(self, toolchain, registry):
        """Every builtin λ compiles within the user logic budget."""
        builtins = sorted(registry._functions)
        for func_id in builtins:
            toolchain.compile(registry.lookup(func_id))
        assert len(builtins) >= 10
        assert 0 < toolchain.utilization <= 1.0

    def test_complex_lambda_costs_more(self, toolchain, registry):
        simple = toolchain.compile(registry.lookup(FETCH_ADD))
        complex_id = registry.register(
            FuncKind.UPDATE,
            lambda v, d: (v * 3 + d * 7) ^ (v >> 2) | (d << 1),
            name="gnarly",
        )
        gnarly = toolchain.compile(registry.lookup(complex_id))
        assert gnarly.operations > simple.operations
        assert gnarly.alms > simple.alms

    def test_budget_exhaustion(self, registry, monkeypatch):
        monkeypatch.setattr("repro.core.hls.STRATIX_V_ALMS", 2000)
        monkeypatch.setattr("repro.core.hls.USER_LOGIC_BUDGET", 0.5)
        tiny = HLSToolchain()
        with pytest.raises(KVDirectError, match="ALMs"):
            for func_id in sorted(registry._functions):
                tiny.compile(registry.lookup(func_id))

    def test_unknown_lookup(self, toolchain):
        with pytest.raises(KVDirectError):
            toolchain.lookup(99)


class TestCycleModel:
    def test_cycles_for_vector(self, toolchain, registry):
        compiled = toolchain.compile(registry.lookup(FETCH_ADD))
        # 10 lanes: 10 elements in 1 cycle, 11 in 2.
        assert compiled.cycles_for(10) == 1
        assert compiled.cycles_for(11) == 2
        assert compiled.cycles_for(0) == 0

    def test_throughput_matches_pcie_by_construction(self, toolchain,
                                                     registry):
        """elements/s through the lanes >= PCIe elements/s."""
        compiled = toolchain.compile(registry.lookup(FETCH_ADD))
        lane_rate = compiled.duplication * constants.KV_CLOCK_HZ
        pcie_rate = constants.PCIE_ACHIEVABLE_BANDWIDTH / 8
        assert lane_rate >= pcie_rate


class TestProcessorIntegration:
    def test_lambda_cycles_charged(self, registry):
        """With a toolchain attached, vector ops occupy λ-lane cycles."""
        import struct

        from repro.core.operations import KVOperation, OpType
        from repro.core.processor import KVProcessor
        from repro.core.store import KVDirectStore
        from repro.core.vector import FETCH_ADD
        from repro.sim import Simulator

        def q(*values):
            return struct.pack("<%dq" % len(values), *values)

        sim = Simulator()
        store = KVDirectStore.create(memory_size=2 << 20)
        store.put(b"vec", q(*range(40)))  # 40 elements: 4 cycles at 10 lanes
        toolchain = HLSToolchain()
        toolchain.compile(store.registry.lookup(FETCH_ADD))
        processor = KVProcessor(sim, store, hls=toolchain)
        op = KVOperation(
            OpType.UPDATE_SCALAR2VECTOR, b"vec", func_id=FETCH_ADD,
            param=q(1),
        )
        sim.run(processor.submit(op))
        assert processor.counters["lambda_cycles"] == 4

    def test_uncompiled_lambda_costs_nothing(self):
        import struct

        from repro.core.operations import KVOperation, OpType
        from repro.core.processor import KVProcessor
        from repro.core.store import KVDirectStore
        from repro.core.vector import FETCH_ADD
        from repro.sim import Simulator

        def q(*values):
            return struct.pack("<%dq" % len(values), *values)

        sim = Simulator()
        store = KVDirectStore.create(memory_size=2 << 20)
        store.put(b"vec", q(1, 2))
        processor = KVProcessor(sim, store)  # no toolchain
        op = KVOperation(
            OpType.UPDATE_SCALAR2VECTOR, b"vec", func_id=FETCH_ADD,
            param=q(1),
        )
        sim.run(processor.submit(op))
        assert "lambda_cycles" not in processor.counters
