"""FaRM-style chain-associative hopscotch hashing (Figure 11 baseline).

A key lives within a *neighborhood* of H consecutive buckets starting at
its home bucket; FaRM reads the whole neighborhood in one RDMA read, so a
GET costs one index access plus one value access.  Inserting into a full
neighborhood linearly probes for a free slot and *bubbles* it back toward
the home bucket, one displacement at a time - cheap at low utilization,
"significantly worse in PUT" at high utilization.  If bubbling cannot
bring the slot within reach, FaRM falls back to chaining an overflow
block, hence "chain-associative".
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from repro.core.hashing import fnv1a64
from repro.core.slab import SlabAllocator
from repro.core.slab_host import class_for_size, class_size
from repro.dram.host import MemoryImage
from repro.errors import ConfigurationError, KeyTooLargeError
from repro.sim.stats import Counter, RunningStats

#: Neighborhood size in buckets.  FaRM's hopscotch neighborhood is ~8
#: *slots*; with 4 slots per bucket that is 2 buckets (one 128 B read).
NEIGHBORHOOD = 2

#: Slots per bucket; same slot layout as the cuckoo baseline.
SLOTS_PER_BUCKET = 4
SLOT_BYTES = 16
MAX_INLINE_KEY = 11
BUCKET_BYTES = SLOTS_PER_BUCKET * SLOT_BYTES

#: How far past the neighborhood linear probing may search.
MAX_PROBE = 512

_PTR = struct.Struct("<I")


class HopscotchHashTable:
    """Hopscotch hash with neighborhood reads and chained overflow."""

    def __init__(
        self,
        memory: MemoryImage,
        allocator: SlabAllocator,
        num_buckets: int,
        base: int = 0,
        neighborhood: int = NEIGHBORHOOD,
    ) -> None:
        if num_buckets < neighborhood:
            raise ConfigurationError(
                "table must be at least one neighborhood long"
            )
        self.memory = memory
        self.allocator = allocator
        self.num_buckets = num_buckets
        self.base = base
        self.neighborhood = neighborhood
        #: Overflow chains: home bucket -> list of (key, pointer) entries
        #: stored in slab-allocated 64 B blocks (modelled per-block).
        self._chains: Dict[int, List[Tuple[bytes, int, int]]] = {}
        self.counters = Counter()
        self.count = 0
        self.stored_bytes = 0
        self.get_cost = RunningStats()
        self.put_cost = RunningStats()

    # -- layout helpers -----------------------------------------------------------

    def _home(self, key: bytes) -> int:
        return fnv1a64(key) % self.num_buckets

    def _addr(self, bucket: int) -> int:
        return self.base + (bucket % self.num_buckets) * BUCKET_BYTES

    def _read_neighborhood(self, home: int) -> List[Tuple[Optional[bytes], int]]:
        """One contiguous read covering the whole neighborhood."""
        span = min(self.neighborhood, self.num_buckets - home)
        raw = self.memory.read(self._addr(home), span * BUCKET_BYTES)
        if span < self.neighborhood:  # wraparound tail
            raw += self.memory.read(
                self._addr(0), (self.neighborhood - span) * BUCKET_BYTES
            )
        slots = []
        for i in range(self.neighborhood * SLOTS_PER_BUCKET):
            chunk = raw[i * SLOT_BYTES : (i + 1) * SLOT_BYTES]
            klen = chunk[0]
            if klen == 0:
                slots.append((None, 0))
            else:
                (pointer,) = _PTR.unpack(chunk[1 + MAX_INLINE_KEY : SLOT_BYTES])
                slots.append((chunk[1 : 1 + klen], pointer))
        return slots

    def _read_bucket(self, bucket: int) -> List[Tuple[Optional[bytes], int]]:
        raw = self.memory.read(self._addr(bucket), BUCKET_BYTES)
        out = []
        for i in range(SLOTS_PER_BUCKET):
            chunk = raw[i * SLOT_BYTES : (i + 1) * SLOT_BYTES]
            klen = chunk[0]
            if klen == 0:
                out.append((None, 0))
            else:
                (pointer,) = _PTR.unpack(chunk[1 + MAX_INLINE_KEY : SLOT_BYTES])
                out.append((chunk[1 : 1 + klen], pointer))
        return out

    def _write_bucket(self, bucket, slots) -> None:
        raw = b"".join(
            bytes([len(k)]) + k.ljust(MAX_INLINE_KEY, b"\x00") + _PTR.pack(p)
            if k
            else bytes(SLOT_BYTES)
            for k, p in slots
        )
        self.memory.write(self._addr(bucket), raw)

    # -- value records ---------------------------------------------------------------

    def _read_value(self, pointer: int) -> Tuple[bytes, int]:
        addr = pointer * 32
        vlen, cls = struct.unpack("<HB", self.memory.peek(addr, 3))
        raw = self.memory.read(addr, class_size(cls))
        return raw[3 : 3 + vlen], cls

    def _write_value(self, value: bytes) -> Tuple[int, int]:
        cls = class_for_size(len(value) + 3)
        addr = self.allocator.alloc_class(cls)
        self.memory.write(addr, struct.pack("<HB", len(value), cls) + value)
        return addr // 32, cls

    # -- operations -----------------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        self._check_key(key)
        before = self.memory.accesses
        value = self._get(key)
        self.get_cost.record(self.memory.accesses - before)
        return value

    def _get(self, key: bytes) -> Optional[bytes]:
        home = self._home(key)
        for slot_key, pointer in self._read_neighborhood(home):
            if slot_key == key:
                return self._read_value(pointer)[0]
        for chain_key, pointer, __block in self._chains.get(home, []):
            # Each chained overflow block costs one additional read.
            self.memory.read(self._addr(home), BUCKET_BYTES)
            if chain_key == key:
                return self._read_value(pointer)[0]
        return None

    def put(self, key: bytes, value: bytes) -> bool:
        self._check_key(key)
        before = self.memory.accesses
        replaced = self._put(key, value)
        self.put_cost.record(self.memory.accesses - before)
        if replaced is None:
            self.count += 1
            self.stored_bytes += len(key) + len(value)
        else:
            self.stored_bytes += len(value) - replaced
        return True

    def _put(self, key: bytes, value: bytes) -> Optional[int]:
        home = self._home(key)
        slots = self._read_neighborhood(home)
        # Replace in place?
        for i, (slot_key, pointer) in enumerate(slots):
            if slot_key == key:
                return self._replace_value(home, i, slots, key, pointer, value)
        for entry_index, (chain_key, pointer, block) in enumerate(
            self._chains.get(home, [])
        ):
            self.memory.read(self._addr(home), BUCKET_BYTES)
            if chain_key == key:
                old_value, old_cls = self._read_value(pointer)
                new_pointer, __ = self._write_value(value)
                self.allocator.free(pointer * 32, old_cls)
                self._chains[home][entry_index] = (key, new_pointer, block)
                return len(old_value)
        # New key: free slot inside the neighborhood?
        pointer, __ = self._write_value(value)
        for i, (slot_key, __p) in enumerate(slots):
            if slot_key is None:
                bucket = (home + i // SLOTS_PER_BUCKET) % self.num_buckets
                bucket_slots = self._read_bucket(bucket)
                bucket_slots[i % SLOTS_PER_BUCKET] = (key, pointer)
                self._write_bucket(bucket, bucket_slots)
                return None
        # Hopscotch displacement: probe forward for a free slot, bubble back.
        if self._hopscotch_insert(home, key, pointer):
            return None
        # Neighborhood hopelessly full: chain an overflow block.
        self._chain_insert(home, key, pointer)
        return None

    def _replace_value(
        self, home, slot_index, slots, key, pointer, value
    ) -> int:
        old_value, old_cls = self._read_value(pointer)
        new_cls = class_for_size(len(value) + 3)
        if new_cls == old_cls:
            self.memory.write(
                pointer * 32, struct.pack("<HB", len(value), new_cls) + value
            )
        else:
            new_pointer, __ = self._write_value(value)
            self.allocator.free(pointer * 32, old_cls)
            bucket = (home + slot_index // SLOTS_PER_BUCKET) % self.num_buckets
            bucket_slots = self._read_bucket(bucket)
            bucket_slots[slot_index % SLOTS_PER_BUCKET] = (key, new_pointer)
            self._write_bucket(bucket, bucket_slots)
        return len(old_value)

    def _hopscotch_insert(self, home: int, key: bytes, pointer: int) -> bool:
        """Linear-probe for a free slot, then bubble it into reach."""
        free_bucket, free_slot = None, None
        for distance in range(self.neighborhood, MAX_PROBE):
            bucket = (home + distance) % self.num_buckets
            slots = self._read_bucket(bucket)
            for i, (slot_key, __p) in enumerate(slots):
                if slot_key is None:
                    free_bucket, free_slot = bucket, i
                    break
            if free_bucket is not None:
                break
        if free_bucket is None:
            return False
        # Bubble the free slot backwards until it is within the
        # neighborhood of `home`.
        while self._distance(home, free_bucket) >= self.neighborhood:
            moved = False
            # Look for an entry in the H-1 buckets before free_bucket whose
            # own neighborhood still covers free_bucket.
            for back in range(self.neighborhood - 1, 0, -1):
                candidate = (free_bucket - back) % self.num_buckets
                slots = self._read_bucket(candidate)
                for i, (slot_key, slot_pointer) in enumerate(slots):
                    if slot_key is None:
                        continue
                    key_home = self._home(slot_key)
                    if self._distance(key_home, free_bucket) < self.neighborhood:
                        # Move it into the free slot.
                        free_slots = self._read_bucket(free_bucket)
                        free_slots[free_slot] = (slot_key, slot_pointer)
                        self._write_bucket(free_bucket, free_slots)
                        slots[i] = (None, 0)
                        self._write_bucket(candidate, slots)
                        free_bucket, free_slot = candidate, i
                        self.counters["bubbles"] += 1
                        moved = True
                        break
                if moved:
                    break
            if not moved:
                return False
        slots = self._read_bucket(free_bucket)
        slots[free_slot] = (key, pointer)
        self._write_bucket(free_bucket, slots)
        return True

    def _chain_insert(self, home: int, key: bytes, pointer: int) -> None:
        """Append to the home bucket's overflow chain (one block write)."""
        block = self.allocator.alloc_class(1)  # 64 B overflow block
        self.memory.write(self._addr(home), b"")  # chain pointer update
        self.memory.write(block, bytes(64))
        self._chains.setdefault(home, []).append((key, pointer, block))
        self.counters["chained"] += 1

    def _distance(self, start: int, bucket: int) -> int:
        return (bucket - start) % self.num_buckets

    def delete(self, key: bytes) -> bool:
        self._check_key(key)
        home = self._home(key)
        slots = self._read_neighborhood(home)
        for i, (slot_key, pointer) in enumerate(slots):
            if slot_key == key:
                value, cls = self._read_value(pointer)
                bucket = (home + i // SLOTS_PER_BUCKET) % self.num_buckets
                bucket_slots = self._read_bucket(bucket)
                bucket_slots[i % SLOTS_PER_BUCKET] = (None, 0)
                self._write_bucket(bucket, bucket_slots)
                self.allocator.free(pointer * 32, cls)
                self.count -= 1
                self.stored_bytes -= len(key) + len(value)
                return True
        chain = self._chains.get(home, [])
        for entry_index, (chain_key, pointer, block) in enumerate(chain):
            if chain_key == key:
                value, cls = self._read_value(pointer)
                self.allocator.free(pointer * 32, cls)
                self.allocator.free(block, 1)
                chain.pop(entry_index)
                self.count -= 1
                self.stored_bytes -= len(key) + len(value)
                return True
        return False

    # -- misc ------------------------------------------------------------------------

    @staticmethod
    def _check_key(key: bytes) -> None:
        if not key:
            raise KeyTooLargeError("key must be non-empty")
        if len(key) > MAX_INLINE_KEY:
            raise KeyTooLargeError(
                f"hopscotch baseline inlines keys up to {MAX_INLINE_KEY} B"
            )

    def __len__(self) -> int:
        return self.count

    def utilization(self, total_memory: Optional[int] = None) -> float:
        total = total_memory if total_memory is not None else self.memory.size
        return self.stored_bytes / total if total else 0.0
