"""Chained hash table with inline KVs (section 3.3.1).

The KV storage is split into a fixed hash index (buckets of 10 slots, 64 B
each - :mod:`repro.core.hashindex`) and a dynamically allocated area managed
by the slab allocator.  KVs whose combined size is at or below the *inline
threshold* live directly in the index, re-purposing slot bytes; larger KVs
live in slab memory behind a (pointer, secondary hash) slot.  Collisions
chain to slab-allocated overflow buckets - the paper picks chaining over
cuckoo/hopscotch because it "balances lookup and insertion, while being
more robust to hash clustering".

Every host-memory access goes through the backing
:class:`~repro.dram.host.MemoryImage`, so *measured* (not modelled) DMA
counts per GET/PUT/DELETE drive Figures 6, 9, 10 and 11.  The store reaches
the table through :class:`~repro.core.index.CompositeIndex`, which adds the
ordered sidecar for RANGE/SCAN when one is configured.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterator, Optional, Tuple

from repro.constants import BUCKET_SIZE
from repro.core.hashindex import (
    POINTER_GRANULARITY,
    Bucket,
    inline_slots_needed,
)
from repro.core.hashing import bucket_index, fnv1a64, secondary_hash
from repro.core.slab import SlabAllocator
from repro.core.slab_host import class_for_size, class_size
from repro.dram.host import MemoryImage
from repro.errors import ConfigurationError, KeyTooLargeError
from repro.sim.stats import Counter, RunningStats

#: Non-inline record header: key length (u8) + value length (u16).
_RECORD_HEADER = struct.Struct("<BH")

#: Slab class of a chained overflow bucket (64 B).
_BUCKET_CLASS = 1

#: Largest key the wire format and record header support.
MAX_KEY_SIZE = 255

#: Largest record (header + key + value) that fits the biggest slab.
MAX_RECORD_SIZE = 512

#: What a never-written (or fully emptied, unchained) bucket looks like.
_ZERO_BUCKET = Bucket.empty_bytes()

#: ``read(addr, size) -> bytes``: ``memory.read`` (counted, traced) or
#: ``memory.peek`` (neither).
Reader = Callable[[int, int], bytes]


class HashTable:
    """The KV-Direct hash table over a byte-addressable memory image."""

    def __init__(
        self,
        memory: MemoryImage,
        allocator: SlabAllocator,
        num_buckets: int,
        inline_threshold: int = 0,
        base: int = 0,
    ) -> None:
        if num_buckets <= 0:
            raise ConfigurationError("need at least one hash bucket")
        if inline_threshold < 0:
            raise ConfigurationError("inline threshold must be >= 0")
        from repro.core.hashindex import max_inline_kv_size

        if inline_threshold > max_inline_kv_size():
            raise ConfigurationError(
                f"inline threshold {inline_threshold} exceeds bucket "
                f"capacity {max_inline_kv_size()}"
            )
        if base % BUCKET_SIZE:
            raise ConfigurationError("index base must be bucket-aligned")
        self.memory = memory
        self.allocator = allocator
        self.num_buckets = num_buckets
        self.inline_threshold = inline_threshold
        self.base = base
        self.counters = Counter()
        self.stored_bytes = 0
        self.count = 0
        #: Per-operation access-count distributions (Figures 6/9/11).
        self.get_cost = RunningStats()
        self.put_cost = RunningStats()
        self.delete_cost = RunningStats()

    # -- public API -----------------------------------------------------------

    def get(self, key: bytes, h: Optional[int] = None) -> Optional[bytes]:
        """Look up a key; returns its value or ``None``.  ``h``, here and
        on the other operations, is ``fnv1a64(key)`` when the caller
        already has it."""
        self._check_key(key)
        memory = self.memory
        before = memory.accesses
        value = self._get(key, fnv1a64(key) if h is None else h)
        self.get_cost.record(memory.accesses - before)
        self.counters["gets"] += 1
        return value

    def put(self, key: bytes, value: bytes, h: Optional[int] = None) -> bool:
        """Insert or replace a (key, value) pair.  Returns True."""
        self._check_key(key)
        self._check_value(key, value)
        memory = self.memory
        before = memory.accesses
        replaced_size = self._put(key, value, fnv1a64(key) if h is None else h)
        self.put_cost.record(memory.accesses - before)
        self.counters["puts"] += 1
        if replaced_size is None:
            self.count += 1
            self.stored_bytes += len(key) + len(value)
        else:
            self.stored_bytes += len(value) - replaced_size
        return True

    def delete(self, key: bytes, h: Optional[int] = None) -> bool:
        """Delete a key; returns whether it existed."""
        self._check_key(key)
        memory = self.memory
        before = memory.accesses
        removed = self._delete(key, fnv1a64(key) if h is None else h)
        self.delete_cost.record(memory.accesses - before)
        self.counters["deletes"] += 1
        if removed is not None:
            self.count -= 1
            self.stored_bytes -= len(key) + removed
        return removed is not None

    def __len__(self) -> int:
        return self.count

    def __contains__(self, key: bytes) -> bool:
        return self.peek(key) is not None

    def probe(self, key: bytes, h: Optional[int] = None) -> Optional[bytes]:
        """Lookup without per-op statistics, for index-internal reads.

        Scans fetch values through this so their bucket/record reads are
        counted (and traced) like any other access but attributed to the
        *scan* - the get/put/delete cost distributions stay pure per-op
        measurements.
        """
        self._check_key(key)
        return self._get(key, fnv1a64(key) if h is None else h)

    def peek(self, key: bytes, h: Optional[int] = None) -> Optional[bytes]:
        """Lookup that leaves no mark: the chain walk of :meth:`get` read
        through ``memory.peek``, so no memory or table counter, cost
        distribution or active trace sees it.  For control-plane readers
        (cluster snapshots, replica comparison, the value a failed op
        forwards to its dependents) and ``key in table``, which must not
        perturb the measured data path."""
        self._check_key(key)
        return self._get(
            key, fnv1a64(key) if h is None else h, self.memory.peek
        )

    def utilization(self, total_memory: Optional[int] = None) -> float:
        """Stored KV bytes over the memory size ("memory utilization")."""
        total = total_memory if total_memory is not None else self.memory.size
        return self.stored_bytes / total if total else 0.0

    # -- validation ------------------------------------------------------------

    @staticmethod
    def _check_key(key: bytes) -> None:
        if type(key) is bytes and 0 < len(key) <= MAX_KEY_SIZE:
            return
        if not isinstance(key, (bytes, bytearray)):
            raise TypeError("key must be bytes")
        if not key:
            raise KeyTooLargeError("key must be non-empty")
        if len(key) > MAX_KEY_SIZE:
            raise KeyTooLargeError(
                f"key of {len(key)} B exceeds {MAX_KEY_SIZE} B"
            )

    @staticmethod
    def _check_value(key: bytes, value: bytes) -> None:
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError("value must be bytes")
        record = _RECORD_HEADER.size + len(key) + len(value)
        if record > MAX_RECORD_SIZE:
            raise KeyTooLargeError(
                f"record of {record} B exceeds the {MAX_RECORD_SIZE} B slab"
            )

    # -- bucket IO ---------------------------------------------------------------
    # A bucket is stored as ``memory.write(addr, bucket.pack())`` and a
    # chain head found as ``base + bucket_index(h) * BUCKET_SIZE``, written
    # out at each site rather than behind a forwarding frame.

    def bucket_addr(self, index: int) -> int:
        return self.base + index * BUCKET_SIZE

    # -- records -------------------------------------------------------------------

    def _write_record(self, addr: int, key: bytes, value: bytes) -> None:
        self.memory.write(
            addr, _RECORD_HEADER.pack(len(key), len(value)) + key + value
        )

    @staticmethod
    def _read_record(
        pointer: int, slab_type: int, read: Reader
    ) -> Tuple[bytes, bytes]:
        """Read a slab record; one DMA of the slab's size class."""
        raw = read(pointer * POINTER_GRANULARITY, class_size(slab_type))
        klen, vlen = _RECORD_HEADER.unpack_from(raw)
        start = _RECORD_HEADER.size
        return raw[start : start + klen], raw[start + klen : start + klen + vlen]

    @staticmethod
    def _record_class(key: bytes, value: bytes) -> int:
        return class_for_size(_RECORD_HEADER.size + len(key) + len(value))

    # -- GET -------------------------------------------------------------------------

    def _get(
        self, key: bytes, h: int, read: Optional[Reader] = None
    ) -> Optional[bytes]:
        """The lookup walk down the bucket chain of hash ``h``, one bucket
        load (1 DMA) per link; ``read`` defaults to the counted
        ``memory.read``, and only the counted walk bumps counters."""
        counted = read is None
        if counted:
            read = self.memory.read
        unpack = Bucket.unpack
        secondary = secondary_hash(h)
        addr = self.base + bucket_index(h, self.num_buckets) * BUCKET_SIZE
        while True:
            bucket = unpack(read(addr, BUCKET_SIZE))
            start = bucket.find_inline(key)
            if start is not None:
                return bucket.read_inline(start)[1]
            for slot, pointer, sec in bucket.pointer_slots():
                if sec != secondary:
                    continue
                rkey, rvalue = self._read_record(
                    pointer, bucket.slab_types[slot], read
                )
                if rkey == key:
                    return rvalue
                if counted:
                    self.counters["secondary_false_positives"] += 1
            if not bucket.chain_ptr:
                return None
            addr = bucket.chain_ptr * POINTER_GRANULARITY

    # -- PUT -------------------------------------------------------------------------

    def _put(self, key: bytes, value: bytes, h: int) -> Optional[int]:
        """Insert/replace; returns the replaced value's size, or None."""
        secondary = secondary_hash(h)
        read = self.memory.read
        unpack = Bucket.unpack

        # Pass 1: walk the chain looking for the key, remembering the first
        # bucket that could host the new KV and where in it.  Whether the
        # KV goes inline, and in how many slots, is decided once, here.
        kv_size = len(key) + len(value)
        inline_ok = kv_size <= self.inline_threshold
        nslots = inline_slots_needed(kv_size) if inline_ok else 1
        host: Optional[Tuple[int, Bucket, int]] = None
        addr = self.base + bucket_index(h, self.num_buckets) * BUCKET_SIZE
        while True:
            bucket = unpack(read(addr, BUCKET_SIZE))
            start = bucket.find_inline(key)
            if start is not None:
                return self._replace_inline(
                    addr, bucket, start, key, value, secondary, h,
                    inline_ok, nslots,
                )
            for slot, pointer, sec in bucket.pointer_slots():
                if sec != secondary:
                    continue
                rkey, rvalue = self._read_record(
                    pointer, bucket.slab_types[slot], read
                )
                if rkey == key:
                    return self._replace_record(
                        addr, bucket, slot, pointer, key, value, len(rvalue),
                        secondary,
                    )
                self.counters["secondary_false_positives"] += 1
            if host is None:
                run = bucket.find_free_run(nslots)
                if run is not None:
                    host = (addr, bucket, run)
            if not bucket.chain_ptr:
                break
            addr = bucket.chain_ptr * POINTER_GRANULARITY

        # Pass 2: insert as a new KV.  The hosting bucket is still held in
        # the pipeline from pass 1 (no extra DMA to re-read it).
        if host is None:
            return self._insert_into_new_chain_bucket(
                addr, bucket, key, value, secondary, inline_ok
            )
        addr, bucket, run = host
        if inline_ok:
            bucket.write_inline(run, key, value)
            self.memory.write(addr, bucket.pack())
        else:
            self._insert_pointer(addr, bucket, run, key, value, secondary)
        return None

    def _insert_pointer(
        self,
        addr: int,
        bucket: Bucket,
        slot: int,
        key: bytes,
        value: bytes,
        secondary: int,
    ) -> None:
        record_class = self._record_class(key, value)
        record_addr = self.allocator.alloc_class(record_class)
        self._write_record(record_addr, key, value)
        bucket.set_pointer(
            slot, record_addr // POINTER_GRANULARITY, secondary, record_class
        )
        self.memory.write(addr, bucket.pack())

    def _insert_into_new_chain_bucket(
        self,
        last_addr: int,
        last_bucket: Bucket,
        key: bytes,
        value: bytes,
        secondary: int,
        inline_ok: bool,
    ) -> None:
        """Chain a fresh overflow bucket and place the KV in it."""
        new_addr = self.allocator.alloc_class(_BUCKET_CLASS)
        new_bucket = Bucket()
        if inline_ok:
            new_bucket.write_inline(0, key, value)
        else:
            record_class = self._record_class(key, value)
            record_addr = self.allocator.alloc_class(record_class)
            self._write_record(record_addr, key, value)
            new_bucket.set_pointer(
                0, record_addr // POINTER_GRANULARITY, secondary, record_class
            )
        self.memory.write(new_addr, new_bucket.pack())
        last_bucket.chain_ptr = new_addr // POINTER_GRANULARITY
        self.memory.write(last_addr, last_bucket.pack())
        self.counters["chained_buckets"] += 1
        return None

    def _replace_inline(
        self, addr: int, bucket: Bucket, start: int, key: bytes, value: bytes,
        secondary: int, h: int, inline_ok: bool, nslots: int,
    ) -> Optional[int]:
        """Replace the inline KV at ``start``; ``inline_ok`` / ``nslots``
        are the new KV's placement, as :meth:`_put` decided it."""
        old_key, old_value = bucket.read_inline(start)
        bucket.erase_inline(start)
        if inline_ok:
            run = bucket.find_free_run(nslots)
            if run is not None:
                bucket.write_inline(run, key, value)
                self.memory.write(addr, bucket.pack())
                return len(old_value)
        # The replacement no longer fits inline: demote to a slab record.
        free_slot = bucket.find_free_run(1)
        if free_slot is not None:
            self._insert_pointer(
                addr, bucket, free_slot, key, value, secondary
            )
            return len(old_value)
        # No room in this bucket at all: persist the erase, then reinsert.
        self.memory.write(addr, bucket.pack())
        self._put(key, value, h)
        return len(old_value)

    def _replace_record(
        self,
        addr: int,
        bucket: Bucket,
        slot: int,
        pointer: int,
        key: bytes,
        value: bytes,
        old_value_len: int,
        secondary: int,
    ) -> Optional[int]:
        old_class = bucket.slab_types[slot]
        new_class = self._record_class(key, value)
        record_addr = pointer * POINTER_GRANULARITY
        if new_class == old_class:
            # Same size class: overwrite in place, bucket untouched.
            self._write_record(record_addr, key, value)
            return old_value_len
        new_addr = self.allocator.alloc_class(new_class)
        self._write_record(new_addr, key, value)
        bucket.set_pointer(
            slot, new_addr // POINTER_GRANULARITY, secondary, new_class
        )
        self.memory.write(addr, bucket.pack())
        self.allocator.free(record_addr, old_class)
        return old_value_len

    # -- DELETE -----------------------------------------------------------------------

    def _delete(self, key: bytes, h: int) -> Optional[int]:
        """Remove a key; returns the removed value's size, or None.

        A chained overflow bucket left completely empty is unlinked from
        its predecessor and its 64 B slab freed, so chains shrink again
        after churn instead of growing monotonically.
        """
        secondary = secondary_hash(h)
        read = self.memory.read
        unpack = Bucket.unpack
        prev: Optional[Tuple[int, Bucket]] = None
        addr = self.base + bucket_index(h, self.num_buckets) * BUCKET_SIZE
        while True:
            bucket = unpack(read(addr, BUCKET_SIZE))
            start = bucket.find_inline(key)
            if start is not None:
                __, old_value = bucket.read_inline(start)
                bucket.erase_inline(start)
                self._finish_delete(addr, bucket, prev)
                return len(old_value)
            for slot, pointer, sec in bucket.pointer_slots():
                if sec != secondary:
                    continue
                old_class = bucket.slab_types[slot]
                rkey, rvalue = self._read_record(pointer, old_class, read)
                if rkey != key:
                    self.counters["secondary_false_positives"] += 1
                    continue
                bucket.clear_slot(slot)
                self._finish_delete(addr, bucket, prev)
                self.allocator.free(pointer * POINTER_GRANULARITY, old_class)
                return len(rvalue)
            if not bucket.chain_ptr:
                return None
            prev = (addr, bucket)
            addr = bucket.chain_ptr * POINTER_GRANULARITY

    def _finish_delete(
        self,
        addr: int,
        bucket: Bucket,
        prev: Optional[Tuple[int, Bucket]],
    ) -> None:
        """Persist a bucket after a removal, unlinking it if it emptied."""
        if prev is not None and bucket.has_no_entries():
            prev_addr, prev_bucket = prev
            prev_bucket.chain_ptr = bucket.chain_ptr
            self.memory.write(prev_addr, prev_bucket.pack())
            self.allocator.free(addr, _BUCKET_CLASS)
            self.counters["unlinked_buckets"] += 1
            return
        self.memory.write(addr, bucket.pack())

    # -- debug / introspection -----------------------------------------------------------

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Scan every stored KV (uncounted; for tests and tooling).

        The reference walk other structures are checked against: it
        derives the contents from the memory image alone.  All-zero
        buckets - most of a sparsely filled table - hold nothing and
        chain nowhere, so they are skipped without decoding.
        """
        for index in range(self.num_buckets):
            addr = self.bucket_addr(index)
            while True:
                raw = self.memory.peek(addr, BUCKET_SIZE)
                if raw == _ZERO_BUCKET:
                    break
                bucket = Bucket.unpack(raw)
                for start, __ in bucket.inline_spans():
                    yield bucket.read_inline(start)
                for slot, pointer, __ in bucket.pointer_slots():
                    raw = self.memory.peek(
                        pointer * POINTER_GRANULARITY,
                        class_size(bucket.slab_types[slot]),
                    )
                    klen, vlen = _RECORD_HEADER.unpack_from(raw)
                    base = _RECORD_HEADER.size
                    yield (
                        raw[base : base + klen],
                        raw[base + klen : base + klen + vlen],
                    )
                if not bucket.chain_ptr:
                    break
                addr = bucket.chain_ptr * POINTER_GRANULARITY
