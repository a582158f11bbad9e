"""Operation-trace recording and replay.

Traces let a workload be captured once and replayed bit-identically -
across configurations (OoO on/off, dispatch ratios), across machines, or
against future versions.  The on-disk format reuses the client batching
wire codec (:mod:`repro.network.batching`), so a trace file is literally a
sequence of the RDMA packet payloads a KV-Direct client would send::

    u32 magic   "KVDT"
    u32 version
    repeated:  u32 payload length | batch payload

Responses are not stored; replaying against a store regenerates them.
Neither are sequence numbers: the wire carries none, so a replayed op is
numbered by its position in the file (0, 1, 2, ...), which keeps the
seq-keyed results of a replay (scan merges, client responses) apart.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, List, Union

from repro.core.operations import KVOperation
from repro.errors import ProtocolError
from repro.network.batching import decode_batch, encode_batch

_MAGIC = b"KVDT"
_VERSION = 1
_HEADER = struct.Struct("<4sI")
_LENGTH = struct.Struct("<I")

#: Operations per stored batch (amortizes framing, bounds memory).
_BATCH = 256

PathOrFile = Union[str, Path, BinaryIO]


def _open(target: PathOrFile, mode: str):
    if isinstance(target, (str, Path)):
        return open(target, mode), True
    return target, False


class TraceWriter:
    """Streams operations into a trace file."""

    def __init__(self, target: PathOrFile) -> None:
        self._file, self._owns = _open(target, "wb")
        self._file.write(_HEADER.pack(_MAGIC, _VERSION))
        self._pending: List[KVOperation] = []
        self.operations = 0

    def append(self, op: KVOperation) -> None:
        self._pending.append(op)
        self.operations += 1
        if len(self._pending) >= _BATCH:
            self._flush()

    def extend(self, ops: Iterable[KVOperation]) -> None:
        for op in ops:
            self.append(op)

    def _flush(self) -> None:
        if not self._pending:
            return
        payload = encode_batch(self._pending)
        self._file.write(_LENGTH.pack(len(payload)))
        self._file.write(payload)
        self._pending.clear()

    def close(self) -> None:
        self._flush()
        if self._owns:
            self._file.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TraceReader:
    """Iterates the operations stored in a trace file, one batch in memory
    at a time, each op numbered by its position in the file.  Use it in a
    ``with`` block when the iteration may not start or finish: leaving the
    block closes a file the reader opened."""

    def __init__(self, target: PathOrFile) -> None:
        self._file, self._owns = _open(target, "rb")
        try:
            header = self._file.read(_HEADER.size)
            if len(header) != _HEADER.size:
                raise ProtocolError("trace file truncated before header")
            magic, version = _HEADER.unpack(header)
            if magic != _MAGIC:
                raise ProtocolError(
                    f"not a KV-Direct trace (magic {magic!r})"
                )
            if version != _VERSION:
                raise ProtocolError(f"unsupported trace version {version}")
        except ProtocolError:
            self.close()
            raise

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __iter__(self) -> Iterator[KVOperation]:
        """The stored operations; a file the reader opened is closed at
        the end, on a truncated frame or batch, or on a bad payload."""
        seq = 0
        try:
            while True:
                length_bytes = self._file.read(_LENGTH.size)
                if not length_bytes:
                    break
                if len(length_bytes) != _LENGTH.size:
                    raise ProtocolError("trace file truncated mid-frame")
                (length,) = _LENGTH.unpack(length_bytes)
                payload = self._file.read(length)
                if len(payload) != length:
                    raise ProtocolError("trace file truncated mid-batch")
                ops = decode_batch(payload, first_seq=seq)
                seq += len(ops)
                yield from ops
        finally:
            self.close()

    def close(self) -> None:
        if self._owns:
            self._file.close()
