"""The public KV-Direct store API.

:class:`KVDirectStore` is the *functional* face of the system: real hash
table + slab allocator over a byte-addressable memory image, with all of
Table 1's operations.  It measures memory accesses per operation (the
quantity Figures 6/9/10/11 plot) as it goes.

:meth:`KVDirectStore.apply` is the one interpreter that runs an operation
against memory: the store API (:meth:`~KVDirectStore.execute` and the
Table 1 helpers) and the timed pipeline's memory stage both call it.  For
*timed* behaviour - throughput and latency under the PCIe/DRAM/network
models - wrap a store in a :class:`~repro.core.processor.KVProcessor`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.core.config import KVDirectConfig
from repro.core.hashtable import HashTable
from repro.core.index import CompositeIndex
from repro.core.operations import (
    KVOperation,
    KVResult,
    OpType,
    encode_scan_payload,
)
from repro.core.ordered import OrderedIndex
from repro.core.slab import SlabAllocator
from repro.core.slab_host import HostSlabManager
from repro.core.vector import FuncKind, FunctionRegistry, apply_operation
from repro.dram.host import MemoryImage
from repro.errors import KVDirectError
from repro.faults.injector import FaultInjector


class KVDirectStore:
    """In-memory key-value store with KV-Direct's data structures."""

    def __init__(self, config: KVDirectConfig) -> None:
        self.config = config
        #: Shared fault injector (one per store/processor stack), created
        #: when the config carries a fault plan; None on clean runs.
        self.injector = (
            FaultInjector(self.config.fault_plan, seed=self.config.seed)
            if self.config.fault_plan is not None
            else None
        )
        self.memory = MemoryImage(self.config.memory_size, name="host_kvs")
        self.host_slab = HostSlabManager(
            base=self.config.index_bytes, size=self.config.dynamic_bytes
        )
        self.allocator = SlabAllocator(self.host_slab, injector=self.injector)
        self.table = HashTable(
            self.memory,
            self.allocator,
            self.config.num_buckets,
            inline_threshold=self.config.inline_threshold,
        )
        #: Ordered sidecar for RANGE/SCAN, when configured (else None).
        self.ordered = (
            OrderedIndex(self.memory, self.allocator)
            if self.config.ordered_index
            else None
        )
        #: The index every operation routes through.  With the ordered
        #: side disabled it makes exactly the hash table's accesses.
        self.index = CompositeIndex(self.table, self.ordered)
        self.registry = FunctionRegistry()

    @classmethod
    def create(
        cls, memory_size: int = 64 << 20, **overrides
    ) -> "KVDirectStore":
        """Build a store with a given memory size and config overrides."""
        return cls(KVDirectConfig(memory_size=memory_size, **overrides))

    # -- Table 1 operations -------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """``get(k) -> v`` - value of key k, or None."""
        return self.index.lookup(key)

    def put(self, key: bytes, value: bytes) -> bool:
        """``put(k, v) -> bool`` - insert or replace a (k, v) pair."""
        return self.index.insert(key, value)

    def delete(self, key: bytes) -> bool:
        """``delete(k) -> bool`` - delete key k; False if absent."""
        return self.index.delete(key)

    def range_scan(self, start: bytes, count: int, with_values: bool = True):
        """``range(k, n)`` - up to n ordered entries from k (inclusive)."""
        return self.index.scan(start, count, with_values=with_values)

    def update(
        self, key: bytes, func_id: int, param: bytes
    ) -> Optional[bytes]:
        """``update_scalar2scalar`` - atomically apply λ(v, Δ); returns the
        original value, or None if the key is absent."""
        result = self.execute(
            KVOperation(OpType.UPDATE_SCALAR, key, func_id=func_id, param=param)
        )
        return result.value if result.ok else None

    def update_vector(
        self, key: bytes, func_id: int, param: bytes
    ) -> Optional[bytes]:
        """``update_scalar2vector`` - apply λ(v_i, Δ) to every element;
        returns the original vector."""
        result = self.execute(
            KVOperation(
                OpType.UPDATE_SCALAR2VECTOR, key, func_id=func_id, param=param
            )
        )
        return result.value if result.ok else None

    def update_vector2vector(
        self, key: bytes, func_id: int, deltas: bytes
    ) -> Optional[bytes]:
        """``update_vector2vector`` - element-wise λ(v_i, Δ_i); returns the
        original vector."""
        result = self.execute(
            KVOperation(
                OpType.UPDATE_VECTOR2VECTOR, key, value=deltas, func_id=func_id
            )
        )
        return result.value if result.ok else None

    def reduce(
        self, key: bytes, func_id: int, initial: bytes = b""
    ) -> Optional[bytes]:
        """``reduce`` - fold the vector with λ(v, Σ); returns Σ."""
        result = self.execute(
            KVOperation(OpType.REDUCE, key, func_id=func_id, param=initial)
        )
        return result.value if result.ok else None

    def filter(self, key: bytes, func_id: int) -> Optional[bytes]:
        """``filter`` - keep elements where λ(v) holds."""
        result = self.execute(
            KVOperation(OpType.FILTER, key, func_id=func_id)
        )
        return result.value if result.ok else None

    # -- generic execution -----------------------------------------------------------

    def execute(self, op: KVOperation) -> KVResult:
        """Execute any wire operation against the store (see :meth:`apply`)."""
        return self.apply(op)[0]

    def apply(
        self, op: KVOperation, h: Optional[int] = None
    ) -> Tuple[KVResult, Optional[bytes]]:
        """Run one wire operation against memory; returns its result and
        the key's value after it, which the reservation station caches for
        data forwarding.  ``h`` is ``fnv1a64(op.key)`` when the caller
        already has it (the pipeline hashes a key once, at issue).

        GET/PUT/DELETE go straight through the index (the hash table,
        plus ordered maintenance when configured).  RANGE/SCAN walk the
        ordered index and return their entries as an encoded payload in
        the result value, and ``None`` as the value after: a scan mutates
        nothing, and the station never forwards from one.  Function
        operations are read-modify-write: fetch the value, apply the λ
        (the :func:`~repro.core.vector.apply_operation` the station's
        forwarding runs too), and write back if it changed.
        """
        index = self.index
        # Point results are built positionally - (op, ok, value, seq) -
        # since keywords cost a frozen dataclass init a third again.
        if op.op is OpType.GET:
            value = index.lookup(op.key, h)
            return KVResult(op.op, value is not None, value, op.seq), value
        if op.op is OpType.PUT:
            assert op.value is not None
            index.insert(op.key, op.value, h)
            return KVResult(op.op, True, None, op.seq), op.value
        if op.op is OpType.DELETE:
            existed = index.delete(op.key, h)
            return KVResult(op.op, existed, None, op.seq), None
        if op.op in (OpType.RANGE, OpType.SCAN):
            with_values = op.op is OpType.RANGE
            entries = index.scan(op.key, op.count, with_values=with_values)
            payload = encode_scan_payload(entries, with_values)
            return KVResult(op.op, ok=True, value=payload, seq=op.seq), None
        current = index.lookup(op.key, h)
        if current is None:
            return KVResult(op.op, ok=False, seq=op.seq), None
        new_value, result = apply_operation(op, current, self.registry)
        if new_value != current:
            if new_value is None:
                index.delete(op.key, h)
            else:
                index.insert(op.key, new_value, h)
        return result, new_value

    def register_function(
        self,
        kind: FuncKind,
        fn: Callable,
        element_size: int = 8,
        signed: bool = True,
        name: str = "",
    ) -> int:
        """Pre-register a user λ (the paper's HLS compilation step)."""
        return self.registry.register(kind, fn, element_size, signed, name)

    # -- introspection -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.table)

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        return self.table.items()

    def peek(self, key: bytes) -> Optional[bytes]:
        """Value of ``key`` or None, uncounted and untraced (like
        :meth:`items`, for one key)."""
        return self.table.peek(key)

    def utilization(self) -> float:
        """Stored KV bytes over total KV memory."""
        return self.table.utilization()

    def fill_to_utilization(
        self,
        target: float,
        kv_size: int,
        key_size: int = 8,
        prefix: bytes = b"",
    ) -> int:
        """PUT uniformly-named KVs until ``target`` utilization (section
        5.2.1's preparation step).  Returns the number of KVs inserted."""
        if not 0.0 < target < 1.0:
            raise KVDirectError(f"target utilization must be in (0,1): {target}")
        if kv_size <= key_size:
            raise KVDirectError("kv_size must exceed key_size")
        value = b"\xab" * (kv_size - key_size)
        count = 0
        while self.utilization() < target:
            key = prefix + count.to_bytes(key_size - len(prefix), "big")
            self.index.insert(key, value)
            count += 1
        return count

    def dma_stats(self) -> Dict[str, float]:
        """Measured memory-access statistics (the Figure 11 quantities)."""
        stats: Dict[str, float] = {
            "memory_accesses": float(self.memory.accesses),
            "lines_touched": float(self.memory.lines_touched),
            "slab_sync_dmas": float(self.allocator.sync_dmas),
            "slab_amortized_dma_per_op": self.allocator.amortized_dma_per_op(),
        }
        for name, cost in (
            ("get", self.table.get_cost),
            ("put", self.table.put_cost),
            ("delete", self.table.delete_cost),
            ("scan", self.index.scan_cost),
        ):
            if cost.count:
                stats[f"{name}_mean_accesses"] = cost.mean
                stats[f"{name}_max_accesses"] = cost.maximum
        return stats

    def reset_measurements(self) -> None:
        """Zero access counters and per-op stats (not the stored data)."""
        self.memory.reset_counters()
        self.table.get_cost = type(self.table.get_cost)()
        self.table.put_cost = type(self.table.put_cost)()
        self.table.delete_cost = type(self.table.delete_cost)()
        self.index.scan_cost = type(self.index.scan_cost)()

    def keys(self):
        """Iterate every stored key (uncounted, like :meth:`items`)."""
        for key, __ in self.items():
            yield key
