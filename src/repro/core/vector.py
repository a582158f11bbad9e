"""Vector operations and user-defined update functions (Table 1, section 3.2).

KV-Direct generalizes RDMA atomics to *user-defined functions*: a λ is
pre-registered, compiled to hardware logic by the HLS toolchain, and applied
by the NIC - to a scalar (``update``), to every element of a vector
(``update_scalar2vector`` / ``update_vector2vector``), as a reduction
(``reduce``), or as a predicate (``filter``).

Here the "hardware compilation" is registration in a
:class:`FunctionRegistry`: a λ gets a wire-encodable ``func_id`` and an
element width, mirroring how the real toolchain duplicates the λ to match
PCIe throughput.  Values are byte strings interpreted as arrays of
fixed-width little-endian integers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.operations import KVOperation, KVResult, OpType
from repro.errors import KVDirectError, MalformedValueError


class FuncKind(Enum):
    """What shape of λ a registered function is."""

    #: λ(v, Δ) -> v - scalar/element update.
    UPDATE = "update"
    #: λ(v, Σ) -> Σ - reduction accumulator.
    REDUCE = "reduce"
    #: λ(v) -> bool - filter predicate.
    FILTER = "filter"


@dataclass(frozen=True)
class VectorFunction:
    """A registered λ: the hardware-logic equivalent of an active message."""

    func_id: int
    kind: FuncKind
    fn: Callable
    #: Element width in bytes; vectors must be whole elements.
    element_size: int = 8
    signed: bool = True
    name: str = ""

    def __post_init__(self) -> None:
        if self.element_size not in (1, 2, 4, 8):
            raise KVDirectError(
                f"element size must be 1/2/4/8 bytes: {self.element_size}"
            )


# Well-known function ids, pre-registered in every registry.  The scalar
# atomics (fetch-add, swap, compare-and-swap) are UPDATE functions applied
# to single-element vectors, exactly how the paper frames atomics.
FETCH_ADD = 1
FETCH_SUB = 2
SWAP = 3
COMPARE_AND_SWAP = 4
MULTIPLY = 5
ASSIGN_MAX = 6
REDUCE_SUM = 16
REDUCE_MAX = 17
REDUCE_MIN = 18
FILTER_NONZERO = 32
FILTER_POSITIVE = 33


class FunctionRegistry:
    """func_id -> λ mapping; the software stand-in for HLS compilation."""

    def __init__(self) -> None:
        self._functions: Dict[int, VectorFunction] = {}
        self._register_builtins()

    def _register_builtins(self) -> None:
        builtins = [
            (FETCH_ADD, FuncKind.UPDATE, lambda v, d: v + d, "fetch_add"),
            (FETCH_SUB, FuncKind.UPDATE, lambda v, d: v - d, "fetch_sub"),
            (SWAP, FuncKind.UPDATE, lambda v, d: d, "swap"),
            (MULTIPLY, FuncKind.UPDATE, lambda v, d: v * d, "multiply"),
            (ASSIGN_MAX, FuncKind.UPDATE, max, "assign_max"),
            (REDUCE_SUM, FuncKind.REDUCE, lambda v, a: a + v, "sum"),
            (REDUCE_MAX, FuncKind.REDUCE, max, "max"),
            (REDUCE_MIN, FuncKind.REDUCE, min, "min"),
            (FILTER_NONZERO, FuncKind.FILTER, lambda v: v != 0, "nonzero"),
            (FILTER_POSITIVE, FuncKind.FILTER, lambda v: v > 0, "positive"),
        ]
        for func_id, kind, fn, name in builtins:
            self._functions[func_id] = VectorFunction(
                func_id, kind, fn, name=name
            )
        # CAS takes Δ = (expected, new) packed as two elements.
        self._functions[COMPARE_AND_SWAP] = VectorFunction(
            COMPARE_AND_SWAP,
            FuncKind.UPDATE,
            _compare_and_swap,
            name="compare_and_swap",
        )

    def register(
        self,
        kind: FuncKind,
        fn: Callable,
        element_size: int = 8,
        signed: bool = True,
        name: str = "",
    ) -> int:
        """Register a user λ; returns its wire func_id.

        Mirrors the paper's pre-registration requirement: "The update
        function needs to be pre-registered and compiled to hardware logic
        before executing."
        """
        func_id = max(self._functions, default=0) + 1
        if func_id > 255:
            raise KVDirectError("function id space exhausted (8-bit wire id)")
        self._functions[func_id] = VectorFunction(
            func_id, kind, fn, element_size, signed, name or f"user{func_id}"
        )
        return func_id

    def lookup(self, func_id: int) -> VectorFunction:
        try:
            return self._functions[func_id]
        except KeyError:
            raise KVDirectError(f"function {func_id} not registered")


def _compare_and_swap(value: int, delta: Tuple[int, int]) -> int:
    expected, new = delta
    return new if value == expected else value


# -- element packing ----------------------------------------------------------

_FORMATS = {
    (1, True): "b", (1, False): "B",
    (2, True): "h", (2, False): "H",
    (4, True): "i", (4, False): "I",
    (8, True): "q", (8, False): "Q",
}


def unpack_elements(data: bytes, element_size: int, signed: bool) -> List[int]:
    """Interpret a value as a vector of fixed-width elements."""
    if len(data) % element_size:
        raise MalformedValueError(
            f"value of {len(data)} B is not whole {element_size} B elements"
        )
    fmt = "<" + _FORMATS[(element_size, signed)] * (len(data) // element_size)
    return list(struct.unpack(fmt, data))


def pack_elements(values: List[int], element_size: int, signed: bool) -> bytes:
    """Pack integers back into a byte vector, wrapping on overflow."""
    bits = element_size * 8
    mask = (1 << bits) - 1
    wrapped = []
    for v in values:
        v &= mask
        if signed and v >= 1 << (bits - 1):
            v -= 1 << bits
        wrapped.append(v)
    fmt = "<" + _FORMATS[(element_size, signed)] * len(wrapped)
    return struct.pack(fmt, *wrapped)


# -- operation semantics --------------------------------------------------------


def apply_operation(
    op: KVOperation,
    current: Optional[bytes],
    registry: FunctionRegistry,
) -> Tuple[Optional[bytes], KVResult]:
    """Pure semantics of one KV operation against a current value.

    Returns ``(new_value, result)`` where ``new_value`` is ``None`` for an
    absent key.  The out-of-order engine's data forwarding runs every op
    through it (against the reservation station's cached value).  The
    store (:meth:`~repro.core.store.KVDirectStore.apply`) runs only λ ops
    through it, against the value in the hash table; its GET, PUT and
    DELETE are direct index operations, checked against this function by
    ``tests/test_store.py``.
    """
    if op.op is OpType.GET:
        return current, KVResult(op.op, ok=current is not None,
                                 value=current, seq=op.seq)
    if op.op is OpType.PUT:
        return op.value, KVResult(op.op, ok=True, seq=op.seq)
    if op.op is OpType.DELETE:
        return None, KVResult(op.op, ok=current is not None, seq=op.seq)

    # Function ops require the key to exist.
    if current is None:
        return None, KVResult(op.op, ok=False, seq=op.seq)
    func = registry.lookup(op.func_id)
    size, signed = func.element_size, func.signed

    if op.op is OpType.UPDATE_SCALAR:
        if func.kind is not FuncKind.UPDATE:
            raise KVDirectError(f"{func.name} is not an update function")
        old = unpack_elements(current[:size], size, signed)[0]
        delta = _decode_param(op.param, func)
        new = func.fn(old, delta)
        new_bytes = pack_elements([new], size, signed) + current[size:]
        return new_bytes, KVResult(op.op, ok=True, value=current[:size],
                                   seq=op.seq)

    if op.op is OpType.UPDATE_SCALAR2VECTOR:
        if func.kind is not FuncKind.UPDATE:
            raise KVDirectError(f"{func.name} is not an update function")
        delta = _decode_param(op.param, func)
        elements = unpack_elements(current, size, signed)
        new_bytes = pack_elements(
            [func.fn(v, delta) for v in elements], size, signed
        )
        return new_bytes, KVResult(op.op, ok=True, value=current, seq=op.seq)

    if op.op is OpType.UPDATE_VECTOR2VECTOR:
        if func.kind is not FuncKind.UPDATE:
            raise KVDirectError(f"{func.name} is not an update function")
        elements = unpack_elements(current, size, signed)
        deltas = unpack_elements(op.value or b"", size, signed)
        if len(deltas) != len(elements):
            raise MalformedValueError(
                f"delta vector has {len(deltas)} elements, value has "
                f"{len(elements)}"
            )
        new_bytes = pack_elements(
            [func.fn(v, d) for v, d in zip(elements, deltas)], size, signed
        )
        return new_bytes, KVResult(op.op, ok=True, value=current, seq=op.seq)

    if op.op is OpType.REDUCE:
        if func.kind is not FuncKind.REDUCE:
            raise KVDirectError(f"{func.name} is not a reduce function")
        elements = unpack_elements(current, size, signed)
        if op.param:
            acc = unpack_elements(op.param, size, signed)[0]
        elif elements:
            acc, elements = elements[0], elements[1:]
        else:
            raise KVDirectError("reduce of empty vector with no initial value")
        for v in elements:
            acc = func.fn(v, acc)
        return current, KVResult(
            op.op, ok=True, value=pack_elements([acc], size, signed),
            seq=op.seq,
        )

    if op.op is OpType.FILTER:
        if func.kind is not FuncKind.FILTER:
            raise KVDirectError(f"{func.name} is not a filter function")
        elements = unpack_elements(current, size, signed)
        kept = [v for v in elements if func.fn(v)]
        return current, KVResult(
            op.op, ok=True, value=pack_elements(kept, size, signed),
            seq=op.seq,
        )

    raise KVDirectError(f"unhandled operation: {op.op}")  # pragma: no cover


def _decode_param(param: bytes, func: VectorFunction):
    """Decode a λ parameter: one element, or two for compare-and-swap."""
    size, signed = func.element_size, func.signed
    if func.func_id == COMPARE_AND_SWAP:
        values = unpack_elements(param, size, signed)
        if len(values) != 2:
            raise KVDirectError("CAS param must pack (expected, new)")
        return tuple(values)
    values = unpack_elements(param, size, signed)
    if len(values) != 1:
        raise KVDirectError(f"param must be one {size} B element")
    return values[0]
