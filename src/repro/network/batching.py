"""Client-side batching wire format (section 4, "Vector Operation Decoder").

"We implement a decoder in the KV-engine to unpack multiple KV operations
from a single RDMA packet.  Observing that many KVs have a same size or
repetitive values, the KV format includes two flag bits to allow copying key
and value size, or the value of the previous KV in the packet."

Wire layout of one batch::

    u16   op count (low 15 bits) | DEADLINE flag (bit 15)
    u64   absolute deadline, ns  (only when DEADLINE flag set)
    op*   operations

The optional deadline header carries the batch's absolute deadline in
simulated nanoseconds (see ``docs/ROBUSTNESS.md``): the server checks it
lazily at pipeline stage boundaries and fails expired operations with
:class:`~repro.errors.DeadlineExceeded` instead of doing dead work.

One operation::

    u8    opcode (low 4 bits) | flags (SAME_KLEN, SAME_VLEN, SAME_VALUE)
    u8    key length            (omitted when SAME_KLEN)
    u16   scan count / limit    (only for RANGE/SCAN; non-zero)
    u16   value length          (omitted when SAME_VLEN; only for value ops)
    u8    func id               (only for function ops)
    u16   param length + bytes  (only for function ops)
    key bytes
    value bytes                 (omitted when SAME_VALUE)

All multi-byte integers are little-endian.  Unknown 4-bit opcodes decode
to a typed :class:`~repro.errors.ProtocolError` (opcodes 0-9 are
assigned; 10-15 are reserved).
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Optional, Tuple

from repro.core.operations import (
    OPS_WITH_COUNT,
    OPS_WITH_FUNC,
    OPS_WITH_VALUE,
    KVOperation,
    OpType,
)
from repro.errors import CorruptionDetected, ProtocolError

_OPCODE_MASK = 0x0F
_FLAG_SAME_KLEN = 0x10
_FLAG_SAME_VLEN = 0x20
_FLAG_SAME_VALUE = 0x40

#: Bit 15 of the count header: a u64 absolute deadline (ns) follows.
_FLAG_BATCH_DEADLINE = 0x8000
#: With the deadline flag occupying bit 15, the count spans 15 bits.
_MAX_BATCH_OPS = 0x7FFF

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

#: FNV-1a 32-bit parameters, for the optional batch integrity trailer.
_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193


def batch_checksum(payload: bytes) -> int:
    """FNV-1a 32-bit checksum of a batch payload.

    Cheap enough to compute per packet in hardware; used by the optional
    integrity trailer so injected payload corruption is *detected* (raising
    :class:`~repro.errors.CorruptionDetected`) instead of silently decoding
    into wrong operations.
    """
    acc = _FNV_OFFSET
    for byte in payload:
        acc = ((acc ^ byte) * _FNV_PRIME) & 0xFFFFFFFF
    return acc


def seal_batch(payload: bytes) -> bytes:
    """Append the integrity trailer to an encoded batch payload."""
    return payload + _U32.pack(batch_checksum(payload))


def unseal_batch(data: bytes) -> bytes:
    """Verify and strip the integrity trailer.

    Raises :class:`~repro.errors.CorruptionDetected` on checksum mismatch
    and :class:`~repro.errors.ProtocolError` if the trailer is missing.
    """
    if len(data) < _U32.size:
        raise ProtocolError("batch too short for integrity trailer")
    payload, trailer = data[: -_U32.size], data[-_U32.size :]
    (expected,) = _U32.unpack(trailer)
    actual = batch_checksum(payload)
    if actual != expected:
        raise CorruptionDetected(
            f"batch checksum mismatch: stored {expected:#010x}, "
            f"computed {actual:#010x}"
        )
    return payload


class BatchEncoder:
    """Packs operations into a batch payload, exploiting repetition.

    ``deadline_ns`` stamps the whole batch with an absolute deadline in
    simulated nanoseconds, carried in the optional u64 header field.
    """

    def __init__(self, deadline_ns: Optional[float] = None) -> None:
        self.deadline_ns = _validate_deadline(deadline_ns)
        header = b"\x00\x00"  # count placeholder
        if self.deadline_ns is not None:
            header += _U64.pack(int(self.deadline_ns))
        self._parts: List[bytes] = [header]
        self._count = 0
        self._prev_klen: Optional[int] = None
        self._prev_vlen: Optional[int] = None
        self._prev_value: Optional[bytes] = None

    def add(self, op: KVOperation) -> None:
        if self._count >= _MAX_BATCH_OPS:
            raise ProtocolError("batch op count overflow")
        # The op kind, read once and tested against the three op-kind sets.
        kind = op.op
        carries_value = kind in OPS_WITH_VALUE
        carries_func = kind in OPS_WITH_FUNC
        carries_count = kind in OPS_WITH_COUNT
        self._validate(op, carries_value, carries_func, carries_count)
        flags = 0
        header = bytearray()
        klen = len(op.key)
        if klen == self._prev_klen:
            flags |= _FLAG_SAME_KLEN
        else:
            header.append(klen)
            self._prev_klen = klen
        if carries_count:
            header.extend(_U16.pack(op.count))
        body = bytearray()
        if carries_value:
            assert op.value is not None
            vlen = len(op.value)
            if vlen == self._prev_vlen:
                flags |= _FLAG_SAME_VLEN
            else:
                header.extend(_U16.pack(vlen))
                self._prev_vlen = vlen
            if op.value == self._prev_value:
                flags |= _FLAG_SAME_VALUE
            else:
                body.extend(op.value)
                self._prev_value = op.value
        if carries_func:
            header.append(op.func_id)
            header.extend(_U16.pack(len(op.param)))
            header.extend(op.param)
        self._parts.append(bytes([kind | flags]) + bytes(header))
        self._parts.append(bytes(op.key))
        if body:
            self._parts.append(bytes(body))
        self._count += 1

    @staticmethod
    def _validate(
        op: KVOperation, carries_value: bool, carries_func: bool,
        carries_count: bool,
    ) -> None:
        """Check the op fits the wire format's fixed-width length fields.

        Validated up front so an oversized op raises a clear
        :class:`~repro.errors.ProtocolError` (not an opaque ``ValueError``
        from ``bytearray.append``) and leaves the encoder state untouched.
        The flags are the op kind's, as :meth:`add` tested them.
        """
        if len(op.key) > 0xFF:
            raise ProtocolError(
                f"key length {len(op.key)} exceeds the wire format's "
                f"u8 key-length field (max 255)"
            )
        if carries_value and op.value is not None and len(op.value) > 0xFFFF:
            raise ProtocolError(
                f"value length {len(op.value)} exceeds the wire format's "
                f"u16 value-length field (max 65535)"
            )
        if carries_func:
            if not 0 <= op.func_id <= 0xFF:
                raise ProtocolError(
                    f"func id {op.func_id} exceeds the wire format's "
                    f"u8 func-id field"
                )
            if len(op.param) > 0xFFFF:
                raise ProtocolError(
                    f"param length {len(op.param)} exceeds the wire "
                    f"format's u16 param-length field (max 65535)"
                )
        if carries_count and not 1 <= op.count <= 0xFFFF:
            raise ProtocolError(
                f"scan count {op.count} outside the wire format's "
                f"non-zero u16 count field (1..65535)"
            )

    def finish(self) -> bytes:
        """Return the encoded batch payload."""
        lead = self._count
        trailer = b""
        if self.deadline_ns is not None:
            lead |= _FLAG_BATCH_DEADLINE
            trailer = _U64.pack(int(self.deadline_ns))
        self._parts[0] = _U16.pack(lead) + trailer
        return b"".join(self._parts)


def _validate_deadline(deadline_ns: Optional[float]) -> Optional[float]:
    """Check a deadline fits the wire format's u64 nanosecond field."""
    if deadline_ns is None:
        return None
    if not deadline_ns >= 0:
        raise ProtocolError(
            f"batch deadline must be a non-negative time in ns: "
            f"{deadline_ns!r}"
        )
    if deadline_ns >= 2 ** 64:
        raise ProtocolError(
            f"batch deadline {deadline_ns!r} exceeds the wire format's "
            f"u64 field"
        )
    return float(deadline_ns)


class BatchDecoder:
    """Unpacks a batch payload back into operations.

    After :meth:`decode`, :attr:`deadline_ns` holds the batch's absolute
    deadline (ns) if the DEADLINE header flag was set, else ``None``.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0
        self.deadline_ns: Optional[float] = None

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise ProtocolError("truncated batch")
        chunk = self._data[self._pos : self._pos + n]
        self._pos += n
        return chunk

    def _u8(self) -> int:
        return self._take(1)[0]

    def _u16(self) -> int:
        return _U16.unpack(self._take(2))[0]

    def decode(self, first_seq: int = 0) -> List[KVOperation]:
        """The batch's operations, numbered ``first_seq`` onwards (the
        wire carries no sequence numbers)."""
        lead = self._u16()
        count = lead & _MAX_BATCH_OPS
        if lead & _FLAG_BATCH_DEADLINE:
            self.deadline_ns = float(_U64.unpack(self._take(_U64.size))[0])
        ops: List[KVOperation] = []
        prev_klen: Optional[int] = None
        prev_vlen: Optional[int] = None
        prev_value: Optional[bytes] = None
        for seq in range(first_seq, first_seq + count):
            lead = self._u8()
            try:
                op_type = OpType(lead & _OPCODE_MASK)
            except ValueError:
                raise ProtocolError(f"bad opcode {lead & _OPCODE_MASK}")
            if lead & _FLAG_SAME_KLEN:
                if prev_klen is None:
                    raise ProtocolError("SAME_KLEN with no previous op")
                klen = prev_klen
            else:
                klen = self._u8()
                prev_klen = klen
            count = 0
            if op_type in OPS_WITH_COUNT:
                count = self._u16()
                if count == 0:
                    raise ProtocolError(
                        f"{op_type.name} with zero scan count"
                    )
            carries_value = op_type in OPS_WITH_VALUE
            vlen = None
            same_value = False
            if carries_value:
                if lead & _FLAG_SAME_VLEN:
                    if prev_vlen is None:
                        raise ProtocolError("SAME_VLEN with no previous op")
                    vlen = prev_vlen
                else:
                    vlen = self._u16()
                    prev_vlen = vlen
                same_value = bool(lead & _FLAG_SAME_VALUE)
            func_id, param = 0, b""
            if op_type in OPS_WITH_FUNC:
                func_id = self._u8()
                param = self._take(self._u16())
            key = self._take(klen)
            value = None
            if carries_value:
                if same_value:
                    if prev_value is None:
                        raise ProtocolError("SAME_VALUE with no previous op")
                    value = prev_value
                    if len(value) != vlen:
                        raise ProtocolError("SAME_VALUE length mismatch")
                else:
                    value = self._take(vlen)
                    prev_value = value
            ops.append(
                KVOperation(
                    op_type, key, value=value, func_id=func_id, param=param,
                    count=count, seq=seq,
                )
            )
        if self._pos != len(self._data):
            raise ProtocolError(
                f"{len(self._data) - self._pos} trailing bytes after batch"
            )
        return ops


def encode_batch(
    ops: Iterable[KVOperation],
    checksum: bool = False,
    deadline_ns: Optional[float] = None,
) -> bytes:
    """Encode a sequence of operations into one batch payload.

    ``checksum=True`` appends the 4-byte FNV-1a integrity trailer;
    ``deadline_ns`` stamps the optional absolute-deadline header field.
    """
    encoder = BatchEncoder(deadline_ns=deadline_ns)
    for op in ops:
        encoder.add(op)
    payload = encoder.finish()
    return seal_batch(payload) if checksum else payload


def decode_batch(
    data: bytes, checksum: bool = False, first_seq: int = 0
) -> List[KVOperation]:
    """Decode one batch payload, verifying the trailer if ``checksum``;
    the ops are numbered ``first_seq`` onwards."""
    ops, __ = decode_batch_with_deadline(data, checksum, first_seq)
    return ops


def decode_batch_with_deadline(
    data: bytes, checksum: bool = False, first_seq: int = 0
) -> Tuple[List[KVOperation], Optional[float]]:
    """Decode one batch payload, returning ``(ops, deadline_ns)``.

    ``deadline_ns`` is the absolute batch deadline carried in the
    optional header field, or ``None`` when the batch was not stamped.
    """
    if checksum:
        data = unseal_batch(data)
    decoder = BatchDecoder(data)
    ops = decoder.decode(first_seq)
    return ops, decoder.deadline_ns
