"""KV-Direct operation set (Table 1), plus ordered extensions.

KV-Direct extends one-sided RDMA READ/WRITE to key-value operations:
GET / PUT / DELETE, atomic scalar updates, and vector operations
(scalar-to-vector update, vector-to-vector update, reduce, filter) whose
user-defined functions are pre-registered and compiled to hardware logic
(here: registered Python callables in :mod:`repro.core.vector`).

Beyond the paper's table, RANGE and SCAN address ordered access: both
start at ``key`` (inclusive, lexicographic byte order) and visit up to
``count`` keys through the store's :class:`~repro.core.ordered.OrderedIndex`.
RANGE returns (key, value) pairs; SCAN returns keys only.  Results travel
in the :class:`KVResult` value payload (see :func:`encode_scan_payload`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from heapq import merge as _heap_merge
from itertools import chain, islice
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.hashing import fnv1a64, shard_of_hash
from repro.errors import ConfigurationError, ProtocolError


class OpType(IntEnum):
    """Operation codes; values are the 4-bit wire opcodes."""

    GET = 0
    PUT = 1
    DELETE = 2
    #: Atomically update a scalar value with λ(v, Δ) -> v.
    UPDATE_SCALAR = 3
    #: Apply λ(v_i, Δ) to every element of a vector value.
    UPDATE_SCALAR2VECTOR = 4
    #: Apply λ(v_i, Δ_i) element-wise with a client-supplied vector.
    UPDATE_VECTOR2VECTOR = 5
    #: Reduce a vector to a scalar with λ(v_i, Σ) -> Σ.
    REDUCE = 6
    #: Keep vector elements where λ(v_i) is true.
    FILTER = 7
    #: Ordered scan from ``key``: up to ``count`` (key, value) pairs.
    RANGE = 8
    #: Ordered scan from ``key``: up to ``count`` keys (no values).
    SCAN = 9


#: Operations that carry a value payload to the server.
OPS_WITH_VALUE = frozenset({OpType.PUT, OpType.UPDATE_VECTOR2VECTOR})

#: Operations that carry a registered function id and a parameter.
OPS_WITH_FUNC = frozenset(
    {
        OpType.UPDATE_SCALAR,
        OpType.UPDATE_SCALAR2VECTOR,
        OpType.UPDATE_VECTOR2VECTOR,
        OpType.REDUCE,
        OpType.FILTER,
    }
)

#: Ordered operations carrying a scan count/limit field.
OPS_WITH_COUNT = frozenset({OpType.RANGE, OpType.SCAN})

#: Operations that leave store state as it was.
_READ_OPS = frozenset(
    {OpType.GET, OpType.REDUCE, OpType.FILTER, OpType.RANGE, OpType.SCAN}
)

#: Maximum key length encodable on the wire (1 byte).
MAX_KEY_LEN = 255

#: Maximum value length encodable on the wire (2 bytes).
MAX_VALUE_LEN = 65535

#: Maximum scan count/limit encodable on the wire (2 bytes, non-zero).
MAX_SCAN_COUNT = 65535


@dataclass(frozen=True)
class KVOperation:
    """One client-issued operation.

    ``value`` is the payload for PUT and the Δ-vector for vector2vector
    updates; ``param`` is the scalar Δ (or reduction initial value Σ) for
    function ops; ``func_id`` names a pre-registered λ; ``count`` is the
    result limit for the ordered RANGE/SCAN operations (whose ``key`` is
    the inclusive start of the scan).
    """

    op: OpType
    key: bytes
    value: Optional[bytes] = None
    func_id: int = 0
    param: bytes = b""
    count: int = 0
    #: Client-side issue sequence, for latency attribution.
    seq: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.key, (bytes, bytearray)):
            raise TypeError("key must be bytes")
        if not self.key:
            raise ValueError("key must be non-empty")
        if len(self.key) > MAX_KEY_LEN:
            raise ValueError(f"key too long: {len(self.key)} > {MAX_KEY_LEN}")
        if self.carries_value:
            if self.value is None:
                raise ValueError(f"{self.op.name} requires a value")
            if len(self.value) > MAX_VALUE_LEN:
                raise ValueError(
                    f"value too long: {len(self.value)} > {MAX_VALUE_LEN}"
                )
        elif self.value is not None:
            raise ValueError(f"{self.op.name} does not carry a value")
        if self.carries_func:
            if not 0 <= self.func_id <= 255:
                raise ValueError("func_id must fit in one byte")
            if len(self.param) > MAX_VALUE_LEN:
                raise ValueError("param too long")
        elif self.func_id or self.param:
            raise ValueError(f"{self.op.name} does not take func/param")
        if self.carries_count:
            if not 1 <= self.count <= MAX_SCAN_COUNT:
                raise ValueError(
                    f"scan count must be in [1, {MAX_SCAN_COUNT}]: "
                    f"{self.count}"
                )
        elif self.count:
            raise ValueError(f"{self.op.name} does not take a count")

    @property
    def carries_value(self) -> bool:
        return self.op in OPS_WITH_VALUE

    @property
    def carries_func(self) -> bool:
        return self.op in OPS_WITH_FUNC

    @property
    def carries_count(self) -> bool:
        return self.op in OPS_WITH_COUNT

    @property
    def is_write(self) -> bool:
        """Writes mutate store state (reads: GET/REDUCE/FILTER/RANGE/SCAN)."""
        return self.op not in _READ_OPS

    # -- convenience constructors ------------------------------------------

    @classmethod
    def get(cls, key: bytes, seq: int = 0) -> "KVOperation":
        return cls(OpType.GET, key, seq=seq)

    @classmethod
    def put(cls, key: bytes, value: bytes, seq: int = 0) -> "KVOperation":
        return cls(OpType.PUT, key, value=value, seq=seq)

    @classmethod
    def delete(cls, key: bytes, seq: int = 0) -> "KVOperation":
        return cls(OpType.DELETE, key, seq=seq)

    @classmethod
    def update(
        cls, key: bytes, func_id: int, param: bytes, seq: int = 0
    ) -> "KVOperation":
        return cls(
            OpType.UPDATE_SCALAR, key, func_id=func_id, param=param, seq=seq
        )

    @classmethod
    def range(cls, start: bytes, count: int, seq: int = 0) -> "KVOperation":
        """Ordered scan: up to ``count`` (key, value) pairs from ``start``."""
        return cls(OpType.RANGE, start, count=count, seq=seq)

    @classmethod
    def scan(cls, start: bytes, count: int, seq: int = 0) -> "KVOperation":
        """Ordered key scan: up to ``count`` keys from ``start``."""
        return cls(OpType.SCAN, start, count=count, seq=seq)


@dataclass(frozen=True)
class KVResult:
    """Server response to one operation."""

    op: OpType
    ok: bool
    value: Optional[bytes] = None
    seq: int = field(default=0, compare=False)


# -- scan result payloads ------------------------------------------------------
#
# RANGE/SCAN results ride in the KVResult value field as a compact,
# deterministic byte payload so they cross the existing response paths
# (client response flights, cross-shard merging) unchanged:
#
#     u16   entry count
#     per entry:
#         u8    key length, key bytes
#         u16   value length, value bytes   (RANGE only)
#
# All integers little-endian, entries in ascending key order.

_U16 = struct.Struct("<H")

#: One scan result entry: (key, value) for RANGE, (key, None) for SCAN.
ScanEntry = Tuple[bytes, Optional[bytes]]


def encode_scan_payload(
    entries: Sequence[ScanEntry], with_values: bool
) -> bytes:
    """Pack ordered scan results into a response payload."""
    if len(entries) > MAX_SCAN_COUNT:
        raise ValueError(f"too many scan entries: {len(entries)}")
    parts = [_U16.pack(len(entries))]
    if with_values:
        for key, value in entries:
            if value is None:
                raise ValueError("RANGE payload entry missing its value")
            parts += (bytes((len(key),)), key, _U16.pack(len(value)), value)
    else:
        for key, __ in entries:
            parts += (bytes((len(key),)), key)
    return b"".join(parts)


def decode_scan_payload(payload: bytes, with_values: bool) -> List[ScanEntry]:
    """Unpack a scan response payload back into entries.

    Raises :class:`~repro.errors.ProtocolError` on a malformed payload -
    these bytes arrive over the wire, like batched requests.
    """
    if len(payload) < _U16.size:
        raise ProtocolError("scan payload too short")
    (count,) = _U16.unpack_from(payload)
    pos = _U16.size
    entries: List[ScanEntry] = []
    for __ in range(count):
        if pos >= len(payload):
            raise ProtocolError("truncated scan payload")
        klen = payload[pos]
        pos += 1
        key = payload[pos : pos + klen]
        pos += klen
        value: Optional[bytes] = None
        if with_values:
            if pos + _U16.size > len(payload):
                raise ProtocolError("truncated scan payload")
            (vlen,) = _U16.unpack_from(payload, pos)
            pos += _U16.size
            value = payload[pos : pos + vlen]
            pos += vlen
        if pos > len(payload) or len(key) != klen:
            raise ProtocolError("truncated scan payload")
        entries.append((key, value))
    if pos != len(payload):
        raise ProtocolError("trailing bytes after scan payload")
    return entries


def merge_scan_payloads(
    payloads: Iterable[bytes], count: int, with_values: bool
) -> bytes:
    """Merge per-shard scan payloads into one globally ordered payload.

    Each shard returns its locally ordered prefix; a k-way merge by key
    restores the global order, truncated to the operation's ``count``.
    Duplicate keys collapse to their first occurrence (stable in payload
    order): disjoint hash shards never produce them, but replicated
    cluster nodes do - a node's store holds backup copies of other
    nodes' slots, so two primaries can both report the same key.
    """
    streams = [decode_scan_payload(p, with_values) for p in payloads]
    merged: List[ScanEntry] = []
    last_key: Optional[bytes] = None
    for entry in _heap_merge(*streams, key=lambda entry: entry[0]):
        if entry[0] == last_key:
            continue
        merged.append(entry)
        last_key = entry[0]
        if len(merged) == count:
            break
    return encode_scan_payload(merged, with_values)


# -- fan-out across shards -----------------------------------------------------
#
# The one routing rule every sharded path shares (closed-loop driver,
# ShardRouter, ClusterRouter): point operations go to the shard owning
# their key; RANGE/SCAN go to *every* shard, because hash placement
# scatters adjacent keys, and the per-shard partials are k-way merged.


def nonempty(ops: Iterable[KVOperation]) -> Iterator[KVOperation]:
    """``ops`` as an iterator, refusing an empty stream: every driver
    reads a stream that yields nothing as a
    :class:`~repro.errors.ConfigurationError`, never as a zero-op run."""
    stream = iter(ops)
    for first in stream:
        return chain((first,), stream)
    raise ConfigurationError("no operations to run")


class FanOut:
    """Per-shard substreams of one op stream, pulled as the shards ask.

    Each :class:`Lane` is one shard's substream, order-preserving (scans
    are replicated into every lane).  A lane asking for ops pulls the
    shared source until it has them, hashing each op once on the way -
    the hash it was routed by travels with it (``Lane.take``), so the
    layers below never hash it again - and parking the ops of the other
    shards in their lanes.  One shard stream (``shards == 1``) hashes
    nothing: its ops go out with ``None`` hashes.

    No lane waits for another, so the buffer is not bounded by a window:
    a lane holds the ops of its shard between its own position in the
    source and the furthest position any lane has pulled to.  On a
    stream whose shards drain at the same pace that is a few pulls' worth;
    a lane that lags (a hot shard) holds up to its whole remaining share.
    Either way each parked op costs two list slots and its hash, where
    the materialised split held every op of the run.
    """

    __slots__ = ("_source", "lanes", "pulled")

    def __init__(self, ops: Iterable[KVOperation], shards: int) -> None:
        self._source = iter(ops)
        self.lanes = [Lane(self) for __ in range(shards)]
        #: Ops drawn from the source so far.
        self.pulled = 0

    def _pull(self, lane: "Lane", need: int) -> None:
        """Draw from the source until ``lane`` has ``need`` ops parked or
        the source ends."""
        lanes = self.lanes
        if len(lanes) == 1:
            ops = list(islice(self._source, need))
            lane._ops += ops
            lane._hashes += [None] * len(ops)
            self.pulled += len(ops)
            return
        shards = len(lanes)
        pulled = 0
        for op in self._source:
            pulled += 1
            h = fnv1a64(op.key)
            if op.op in OPS_WITH_COUNT:
                for other in lanes:
                    other._ops.append(op)
                    other._hashes.append(h)
                need -= 1
            else:
                owner = lanes[shard_of_hash(h, shards)]
                owner._ops.append(op)
                owner._hashes.append(h)
                if owner is lane:
                    need -= 1
            if not need:
                break
        self.pulled += pulled


class Lane:
    """One shard's substream of a :class:`FanOut`."""

    __slots__ = ("fan", "_ops", "_hashes", "_head", "taken")

    def __init__(self, fan: FanOut) -> None:
        self.fan = fan
        #: Parked ops and their hashes; ``_head`` is the next one to take.
        self._ops: List[KVOperation] = []
        self._hashes: List[Optional[int]] = []
        self._head = 0
        #: Ops taken so far.
        self.taken = 0

    def take(self, n: int) -> Tuple[List[KVOperation], List[Optional[int]]]:
        """The next ``n`` ops of the lane and their key hashes (``None``
        on a one-shard stream); fewer only at the end of the source."""
        head = self._head
        ops, hashes = self._ops, self._hashes
        if len(ops) - head < n:
            self.fan._pull(self, n - (len(ops) - head))
        end = head + n
        taken, taken_hashes = ops[head:end], hashes[head:end]
        if end >= len(ops):
            ops.clear()
            hashes.clear()
            end = 0
        elif end > 4096 and end * 2 > len(ops):
            del ops[:end], hashes[:end]
            end = 0
        self._head = end
        self.taken += len(taken)
        return taken, taken_hashes

    def has_more(self) -> bool:
        """Whether :meth:`take` would return an op."""
        if self._head == len(self._ops):
            self.fan._pull(self, 1)
        return self._head < len(self._ops)


def merge_scan(
    op: KVOperation, partials: Sequence[Optional[KVResult]]
) -> Optional[bytes]:
    """One scan's merged payload from its per-shard results, or None if
    any shard failed or never answered.

    ``partials`` must be in shard-index order - never simulated
    completion order - so the merged bytes are seed-stable and the same
    at any shard count.
    """
    if any(p is None or not p.ok or p.value is None for p in partials):
        return None
    return merge_scan_payloads(
        [p.value for p in partials],
        op.count,
        with_values=op.op is OpType.RANGE,
    )
