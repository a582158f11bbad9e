"""The standard YCSB core workloads A-F, mapped onto KV-Direct operations.

The paper benchmarks "YCSB workload" with explicit GET/PUT mixes; this
module provides the named presets from the YCSB paper for convenience:

- **A** update-heavy: 50 % read / 50 % update, Zipf;
- **B** read-mostly: 95 % read / 5 % update, Zipf;
- **C** read-only: 100 % read, Zipf;
- **D** read-latest: 95 % read / 5 % insert; reads skew to recent inserts;
- **E** short ranges: 95 % scan / 5 % insert; Zipf start keys, uniform
  scan lengths in [1, 25];
- **F** read-modify-write: 50 % read / 50 % RMW, Zipf.

Workload E requires the ordered index sidecar
(``KVDirectConfig(ordered_index=True)``): the paper's hash store keeps
no key order, so its scans map onto the RANGE op added with the
pluggable-index refactor.  RMW in F maps naturally onto KV-Direct's
atomic UPDATE - the server-side fetch-add the paper's §3.2 motivates -
instead of the client-side read-then-write YCSB assumes.
"""

from __future__ import annotations

import random
import struct
from typing import Iterator, List

from repro.constants import ZIPF_SKEW
from repro.core.operations import KVOperation, OpType
from repro.core.vector import FETCH_ADD
from repro.errors import ConfigurationError
from repro.workloads.keyspace import KeySpace
from repro.workloads.zipf import ZipfSampler

#: The supported preset letters.
WORKLOADS = ("A", "B", "C", "D", "E", "F")

#: Workload E's maximum scan length (the YCSB default is uniform
#: lengths in [1, 100]; we use a shorter tail so simulated runs stay
#: fast while still spanning multiple ordered-index leaves).
MAX_SCAN_LEN = 25


class StandardYCSB:
    """Generates operation streams for the named YCSB core workloads."""

    def __init__(
        self, keyspace: KeySpace, workload: str, seed: int = 0
    ) -> None:
        workload = workload.upper()
        if workload not in WORKLOADS:
            raise ConfigurationError(
                f"unsupported YCSB workload {workload!r}; "
                f"choose one of {WORKLOADS}"
            )
        self.keyspace = keyspace
        self.workload = workload
        self.seed = seed
        self._rng = random.Random(seed ^ 0xACE)
        self._zipf = ZipfSampler(keyspace.count, skew=ZIPF_SKEW, seed=seed)
        #: For workload D: keys inserted so far beyond the base corpus.
        self._inserted = 0

    # -- composition -----------------------------------------------------------

    def load_phase(self) -> Iterator[KVOperation]:
        """Insert the base corpus (counter-valued for workload F)."""
        for index in range(self.keyspace.count):
            yield KVOperation.put(self.keyspace.key(index),
                                  self._value(index))

    def _value(self, index: int) -> bytes:
        if self.workload == "F":
            # RMW targets: 8-byte counters.
            return struct.pack("<q", index)
        return self.keyspace.value(index)

    def operations(self, count: int) -> List[KVOperation]:
        return list(self.stream(count))

    def stream(self, count: int) -> Iterator[KVOperation]:
        """:meth:`operations`, each op drawn as it is pulled (the draws
        are this generator's own, so they come out the same)."""
        return map(getattr(self, f"_op_{self.workload.lower()}"),
                   range(count))

    # -- per-workload op construction ----------------------------------------------

    def _read(self, seq: int) -> KVOperation:
        return KVOperation.get(self.keyspace.key(self._zipf.sample()),
                               seq=seq)

    def _update(self, seq: int) -> KVOperation:
        index = self._zipf.sample()
        return KVOperation.put(
            self.keyspace.key(index), self._value(index), seq=seq
        )

    def _op_a(self, seq: int) -> KVOperation:
        return self._read(seq) if self._rng.random() < 0.5 else self._update(seq)

    def _op_b(self, seq: int) -> KVOperation:
        return self._read(seq) if self._rng.random() < 0.95 else self._update(seq)

    def _op_c(self, seq: int) -> KVOperation:
        return self._read(seq)

    def _op_d(self, seq: int) -> KVOperation:
        if self._rng.random() < 0.05 or self._inserted == 0:
            self._inserted += 1
            key = b"new:" + self._inserted.to_bytes(8, "big")
            return KVOperation.put(key, self.keyspace.value(0), seq=seq)
        # Read-latest: geometric skew toward the newest inserts.
        back = min(
            self._inserted - 1, int(self._rng.expovariate(1 / 4.0))
        )
        key = b"new:" + (self._inserted - back).to_bytes(8, "big")
        return KVOperation.get(key, seq=seq)

    def _op_e(self, seq: int) -> KVOperation:
        if self._rng.random() < 0.05:
            self._inserted += 1
            key = b"new:" + self._inserted.to_bytes(8, "big")
            return KVOperation.put(key, self.keyspace.value(0), seq=seq)
        # Short ranges: Zipf-popular start key, uniform scan length.
        start = self.keyspace.key(self._zipf.sample())
        count = self._rng.randint(1, MAX_SCAN_LEN)
        return KVOperation.range(start, count, seq=seq)

    def _op_f(self, seq: int) -> KVOperation:
        if self._rng.random() < 0.5:
            return self._read(seq)
        # Read-modify-write as one NIC-side atomic (returns the old value).
        return KVOperation.update(
            self.keyspace.key(self._zipf.sample()),
            FETCH_ADD,
            struct.pack("<q", 1),
            seq=seq,
        )
