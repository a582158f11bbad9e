"""Unit tests for vector operations and the function registry (Table 1)."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.operations import KVOperation, OpType
from repro.core.vector import (
    ASSIGN_MAX,
    COMPARE_AND_SWAP,
    FETCH_ADD,
    FETCH_SUB,
    FILTER_NONZERO,
    FILTER_POSITIVE,
    FuncKind,
    FunctionRegistry,
    MULTIPLY,
    REDUCE_MAX,
    REDUCE_MIN,
    REDUCE_SUM,
    SWAP,
    apply_operation,
    pack_elements,
    unpack_elements,
)
from repro.errors import KVDirectError


def q(*values):
    """Pack signed 64-bit little-endian elements."""
    return struct.pack("<%dq" % len(values), *values)


@pytest.fixture
def registry():
    return FunctionRegistry()


class TestElementPacking:
    def test_roundtrip(self):
        data = q(1, -2, 3)
        assert unpack_elements(data, 8, True) == [1, -2, 3]
        assert pack_elements([1, -2, 3], 8, True) == data

    def test_misaligned_rejected(self):
        with pytest.raises(KVDirectError):
            unpack_elements(b"\x00" * 7, 8, True)

    def test_overflow_wraps(self):
        packed = pack_elements([2**63], 8, True)  # wraps to -2^63
        assert unpack_elements(packed, 8, True) == [-(2**63)]

    def test_unsigned(self):
        packed = pack_elements([255], 1, False)
        assert unpack_elements(packed, 1, False) == [255]

    @given(st.lists(st.integers(-(2**31), 2**31 - 1), max_size=32))
    def test_roundtrip_property(self, values):
        packed = pack_elements(values, 4, True)
        assert unpack_elements(packed, 4, True) == values


class TestRegistry:
    def test_builtins_present(self, registry):
        for func_id in (FETCH_ADD, SWAP, COMPARE_AND_SWAP, REDUCE_SUM,
                        FILTER_NONZERO):
            assert registry.lookup(func_id).func_id == func_id

    def test_register_user_function(self, registry):
        func_id = registry.register(
            FuncKind.UPDATE, lambda v, d: v ^ d, name="xor"
        )
        assert registry.lookup(func_id).name == "xor"

    def test_unregistered_lookup_fails(self, registry):
        with pytest.raises(KVDirectError):
            registry.lookup(200)

    def test_bad_element_size(self, registry):
        with pytest.raises(KVDirectError):
            registry.register(FuncKind.UPDATE, lambda v, d: v, element_size=3)


class TestScalarUpdate:
    def _apply(self, registry, op, current):
        return apply_operation(op, current, registry)

    def test_fetch_add(self, registry):
        op = KVOperation.update(b"k", FETCH_ADD, q(5))
        new, result = self._apply(registry, op, q(10))
        assert new == q(15)
        assert result.value == q(10)  # returns the original value

    def test_fetch_sub(self, registry):
        op = KVOperation.update(b"k", FETCH_SUB, q(3))
        new, __ = self._apply(registry, op, q(10))
        assert new == q(7)

    def test_swap(self, registry):
        op = KVOperation.update(b"k", SWAP, q(99))
        new, result = self._apply(registry, op, q(1))
        assert new == q(99)
        assert result.value == q(1)

    def test_cas_success(self, registry):
        op = KVOperation.update(b"k", COMPARE_AND_SWAP, q(1, 2))
        new, result = self._apply(registry, op, q(1))
        assert new == q(2)
        assert result.value == q(1)

    def test_cas_failure_keeps_value(self, registry):
        op = KVOperation.update(b"k", COMPARE_AND_SWAP, q(7, 2))
        new, result = self._apply(registry, op, q(1))
        assert new == q(1)
        assert result.value == q(1)

    def test_missing_key_fails(self, registry):
        op = KVOperation.update(b"k", FETCH_ADD, q(1))
        new, result = self._apply(registry, op, None)
        assert new is None
        assert not result.ok

    def test_update_preserves_vector_tail(self, registry):
        """Scalar update touches only the first element."""
        op = KVOperation.update(b"k", FETCH_ADD, q(1))
        new, __ = self._apply(registry, op, q(10, 20, 30))
        assert new == q(11, 20, 30)

    def test_wrong_kind_rejected(self, registry):
        op = KVOperation.update(b"k", REDUCE_SUM, q(1))
        with pytest.raises(KVDirectError):
            self._apply(registry, op, q(0))

    def test_bad_param_size(self, registry):
        op = KVOperation.update(b"k", FETCH_ADD, b"\x01")
        with pytest.raises(KVDirectError):
            self._apply(registry, op, q(0))


class TestVectorUpdate:
    def test_scalar2vector(self, registry):
        op = KVOperation(
            OpType.UPDATE_SCALAR2VECTOR, b"v", func_id=FETCH_ADD, param=q(10)
        )
        new, result = apply_operation(op, q(1, 2, 3), registry)
        assert new == q(11, 12, 13)
        assert result.value == q(1, 2, 3)

    def test_vector2vector(self, registry):
        op = KVOperation(
            OpType.UPDATE_VECTOR2VECTOR,
            b"v",
            value=q(10, 20, 30),
            func_id=FETCH_ADD,
        )
        new, result = apply_operation(op, q(1, 2, 3), registry)
        assert new == q(11, 22, 33)
        assert result.value == q(1, 2, 3)

    def test_vector2vector_length_mismatch(self, registry):
        op = KVOperation(
            OpType.UPDATE_VECTOR2VECTOR, b"v", value=q(1), func_id=FETCH_ADD
        )
        with pytest.raises(KVDirectError):
            apply_operation(op, q(1, 2), registry)

    def test_multiply(self, registry):
        op = KVOperation(
            OpType.UPDATE_SCALAR2VECTOR, b"v", func_id=MULTIPLY, param=q(3)
        )
        new, __ = apply_operation(op, q(1, 2), registry)
        assert new == q(3, 6)

    def test_assign_max(self, registry):
        op = KVOperation(
            OpType.UPDATE_SCALAR2VECTOR, b"v", func_id=ASSIGN_MAX, param=q(5)
        )
        new, __ = apply_operation(op, q(1, 9), registry)
        assert new == q(5, 9)


class TestReduce:
    def test_sum(self, registry):
        op = KVOperation(OpType.REDUCE, b"v", func_id=REDUCE_SUM, param=q(0))
        new, result = apply_operation(op, q(1, 2, 3, 4), registry)
        assert new == q(1, 2, 3, 4)  # reduce does not mutate
        assert result.value == q(10)

    def test_sum_with_initial(self, registry):
        op = KVOperation(OpType.REDUCE, b"v", func_id=REDUCE_SUM, param=q(100))
        __, result = apply_operation(op, q(1, 2), registry)
        assert result.value == q(103)

    def test_max_min(self, registry):
        data = q(3, -7, 12, 0)
        op = KVOperation(OpType.REDUCE, b"v", func_id=REDUCE_MAX, param=q(-100))
        assert apply_operation(op, data, registry)[1].value == q(12)
        op = KVOperation(OpType.REDUCE, b"v", func_id=REDUCE_MIN, param=q(100))
        assert apply_operation(op, data, registry)[1].value == q(-7)

    def test_no_initial_uses_first_element(self, registry):
        op = KVOperation(OpType.REDUCE, b"v", func_id=REDUCE_SUM)
        __, result = apply_operation(op, q(5, 6), registry)
        assert result.value == q(11)

    def test_empty_vector_no_initial_fails(self, registry):
        op = KVOperation(OpType.REDUCE, b"v", func_id=REDUCE_SUM)
        with pytest.raises(KVDirectError):
            apply_operation(op, b"", registry)

    @given(st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=64))
    def test_sum_matches_python(self, values):
        registry = FunctionRegistry()
        op = KVOperation(OpType.REDUCE, b"v", func_id=REDUCE_SUM, param=q(0))
        __, result = apply_operation(op, q(*values), registry)
        assert unpack_elements(result.value, 8, True)[0] == sum(values)


class TestFilter:
    def test_nonzero(self, registry):
        op = KVOperation(OpType.FILTER, b"v", func_id=FILTER_NONZERO)
        __, result = apply_operation(op, q(0, 1, 0, 2), registry)
        assert result.value == q(1, 2)

    def test_positive(self, registry):
        op = KVOperation(OpType.FILTER, b"v", func_id=FILTER_POSITIVE)
        __, result = apply_operation(op, q(-1, 5, 0), registry)
        assert result.value == q(5)

    def test_all_filtered(self, registry):
        op = KVOperation(OpType.FILTER, b"v", func_id=FILTER_NONZERO)
        __, result = apply_operation(op, q(0, 0), registry)
        assert result.value == b""

    def test_sparse_vector_use_case(self, registry):
        """Section 3.2: fetch non-zero values of a sparse vector."""
        sparse = q(0, 0, 7, 0, 0, 0, 3, 0)
        op = KVOperation(OpType.FILTER, b"v", func_id=FILTER_NONZERO)
        __, result = apply_operation(op, sparse, registry)
        assert result.value == q(7, 3)


class TestPlainOps:
    def test_get(self, registry):
        op = KVOperation.get(b"k")
        new, result = apply_operation(op, b"value", registry)
        assert new == b"value"
        assert result.value == b"value"

    def test_get_missing(self, registry):
        __, result = apply_operation(KVOperation.get(b"k"), None, registry)
        assert not result.ok

    def test_put(self, registry):
        new, result = apply_operation(
            KVOperation.put(b"k", b"new"), b"old", registry
        )
        assert new == b"new"
        assert result.ok

    def test_delete(self, registry):
        new, result = apply_operation(
            KVOperation.delete(b"k"), b"old", registry
        )
        assert new is None
        assert result.ok

    def test_delete_missing(self, registry):
        __, result = apply_operation(KVOperation.delete(b"k"), None, registry)
        assert not result.ok
