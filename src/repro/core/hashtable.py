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
counts per GET/PUT/DELETE drive Figures 6, 9, 10 and 11.  The walks decide
each bucket on the 64 bytes the read returned, through the codec's queries,
and copy a bucket only to edit it (``hashindex.edit``) and write it back;
the bucket index, the secondary hash and the key and value checks are
evaluated in place.  The store reaches the table through
:class:`~repro.core.index.CompositeIndex`, which adds the ordered sidecar
for RANGE/SCAN when one is configured.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterator, Optional, Tuple

from repro.constants import BUCKET_SIZE, SECONDARY_HASH_BITS
from repro.core.hashindex import (
    INLINE_HEADER,
    POINTER_GRANULARITY,
    SLOT_SIZE,
    chain_ptr,
    clear_slot,
    edit,
    erase_inline,
    find_free_run,
    find_inline,
    has_no_entries,
    inline_spans,
    max_inline_kv_size,
    pointer_slots,
    read_inline,
    set_chain,
    set_pointer,
    write_inline,
)
from repro.core.hashing import fnv1a64
from repro.core.slab import SlabAllocator
from repro.core.slab_host import class_for_size, class_size
from repro.dram.host import MemoryImage
from repro.errors import ConfigurationError, KeyTooLargeError
from repro.sim.stats import Counter, RunningStats

#: Non-inline record header, section 5.2.1's 2 B: key length, value length's
#: low byte.  A record sits in its smallest slab class (``_record_class``),
#: so a 512 B slab whose record fits 256 B on the low byte holds 256 B more.
_RECORD_HEADER = struct.Struct("<BB")

#: Slab classes of a chained overflow bucket (64 B) and of the 512 B slab.
_BUCKET_CLASS, _TOP_CLASS = 1, 4

#: Largest key the wire format and record header support.
MAX_KEY_SIZE = 255

#: Largest record (header + key + value) that fits the biggest slab.
MAX_RECORD_SIZE = 512

#: Largest key + value whose record fits: the fast path of the checks.
MAX_KV_SIZE = MAX_RECORD_SIZE - _RECORD_HEADER.size

#: A key's 9-bit secondary hash is ``h >> _SECONDARY_SHIFT & _SECONDARY_MASK``.
_SECONDARY_SHIFT = 64 - SECONDARY_HASH_BITS
_SECONDARY_MASK = (1 << SECONDARY_HASH_BITS) - 1

#: What a never-written (or fully emptied, unchained) bucket looks like.
_ZERO_BUCKET = bytes(BUCKET_SIZE)

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
    ) -> None:
        if num_buckets <= 0:
            raise ConfigurationError("need at least one hash bucket")
        if inline_threshold < 0:
            raise ConfigurationError("inline threshold must be >= 0")
        if inline_threshold > max_inline_kv_size():
            raise ConfigurationError(
                f"inline threshold {inline_threshold} exceeds bucket "
                f"capacity {max_inline_kv_size()}"
            )
        self.memory = memory
        self.allocator = allocator
        self.num_buckets = num_buckets
        self.inline_threshold = inline_threshold
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
        if type(key) is not bytes or not 0 < len(key) <= MAX_KEY_SIZE:
            self._check_key(key)
        memory = self.memory
        before = memory.accesses
        value = self._get(key, fnv1a64(key) if h is None else h)
        self.get_cost.record(memory.accesses - before)
        self.counters["gets"] += 1
        return value

    def put(self, key: bytes, value: bytes, h: Optional[int] = None) -> bool:
        """Insert or replace a (key, value) pair.  Returns True."""
        if type(key) is not bytes or type(value) is not bytes:
            self._check_key(key)
            self._check_value(key, value)
        klen, vlen = len(key), len(value)
        if not 0 < klen <= MAX_KEY_SIZE or klen + vlen > MAX_KV_SIZE:
            self._check_key(key)
            self._check_value(key, value)
        memory = self.memory
        before = memory.accesses
        replaced_size = self._put(
            key, value, fnv1a64(key) if h is None else h, klen + vlen
        )
        self.put_cost.record(memory.accesses - before)
        self.counters["puts"] += 1
        if replaced_size is None:
            self.count += 1
            self.stored_bytes += klen + vlen
        else:
            self.stored_bytes += vlen - replaced_size
        return True

    def delete(self, key: bytes, h: Optional[int] = None) -> bool:
        """Delete a key; returns whether it existed."""
        if type(key) is not bytes or not 0 < len(key) <= MAX_KEY_SIZE:
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

    def probe(self, key: bytes, h: Optional[int] = None) -> Optional[bytes]:
        """Lookup without per-op statistics, for index-internal reads.

        Scans fetch values through this so their bucket/record reads are
        counted (and traced) like any other access but attributed to the
        *scan* - the get/put/delete cost distributions stay pure per-op
        measurements.
        """
        if type(key) is not bytes or not 0 < len(key) <= MAX_KEY_SIZE:
            self._check_key(key)
        return self._get(key, fnv1a64(key) if h is None else h)

    def peek(self, key: bytes, h: Optional[int] = None) -> Optional[bytes]:
        """Lookup that leaves no mark: the chain walk of :meth:`get` read
        through ``memory.peek``, so no memory or table counter, cost
        distribution or active trace sees it.  For control-plane readers
        (cluster snapshots, replica comparison, the value a failed op
        forwards to its dependents) and ``key in table``, which must not
        perturb the measured data path."""
        if type(key) is not bytes or not 0 < len(key) <= MAX_KEY_SIZE:
            self._check_key(key)
        return self._get(
            key, fnv1a64(key) if h is None else h, self.memory.peek
        )

    def utilization(self, total_memory: Optional[int] = None) -> float:
        """Stored KV bytes over the memory size ("memory utilization")."""
        total = total_memory if total_memory is not None else self.memory.size
        return self.stored_bytes / total if total else 0.0

    # -- validation ------------------------------------------------------------
    # The slow paths: each public method tests the common case (a ``bytes``
    # key, and value, within the limits) in place and calls these only when
    # it fails, to raise the error or to accept a ``bytearray``.

    @staticmethod
    def _check_key(key: bytes) -> None:
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
    # A bucket is read as ``read(addr, BUCKET_SIZE)``, stored as
    # ``memory.write(addr, bucket)`` after ``edit`` and the codec's edits,
    # and a chain head found as ``h % num_buckets * BUCKET_SIZE`` (the index
    # starts at address 0),
    # written out at each site rather than behind a forwarding frame.

    def bucket_addr(self, index: int) -> int:
        return index * BUCKET_SIZE

    # -- records -------------------------------------------------------------------

    def _write_record(self, addr: int, key: bytes, value: bytes) -> None:
        header = _RECORD_HEADER.pack(len(key), len(value) & 0xFF)
        self.memory.write(addr, header + key + value)

    @staticmethod
    def _read_record(
        pointer: int, slab_type: int, read: Reader
    ) -> Tuple[bytes, bytes]:
        """Read a slab record; one DMA of the slab's size class."""
        raw = read(pointer * POINTER_GRANULARITY, class_size(slab_type))
        klen, vlen = raw[0], raw[1]
        if slab_type == _TOP_CLASS and 2 + klen + vlen <= 256:
            vlen += 256
        return raw[2 : 2 + klen], raw[2 + klen : 2 + klen + vlen]

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
        secondary = h >> _SECONDARY_SHIFT & _SECONDARY_MASK
        addr = h % self.num_buckets * BUCKET_SIZE
        while True:
            line = read(addr, BUCKET_SIZE)
            start = find_inline(line, key)
            if start is not None:
                return read_inline(line, start)[1]
            for __, pointer, slab_type in pointer_slots(line, secondary):
                rkey, rvalue = self._read_record(pointer, slab_type, read)
                if rkey == key:
                    return rvalue
                if counted:
                    self.counters["secondary_false_positives"] += 1
            addr = chain_ptr(line) * POINTER_GRANULARITY
            if not addr:
                return None

    # -- PUT -------------------------------------------------------------------------

    def _put(
        self, key: bytes, value: bytes, h: int, kv_size: int
    ) -> Optional[int]:
        """Insert/replace a KV of ``kv_size = klen + vlen`` bytes; returns
        the replaced value's size, or None."""
        secondary = h >> _SECONDARY_SHIFT & _SECONDARY_MASK
        read = self.memory.read

        # Pass 1: walk the chain looking for the key, remembering the first
        # bucket that could host the new KV and where in it.  Whether the
        # KV goes inline, and in how many slots, is decided once, here.
        inline_ok = kv_size <= self.inline_threshold
        nslots = (
            -(-(kv_size + INLINE_HEADER) // SLOT_SIZE) if inline_ok else 1
        )
        host: Optional[Tuple[int, bytes, int]] = None
        addr = h % self.num_buckets * BUCKET_SIZE
        while True:
            line = read(addr, BUCKET_SIZE)
            start = find_inline(line, key)
            if start is not None:
                return self._replace_inline(
                    addr, line, start, key, value, secondary, inline_ok,
                    nslots,
                )
            for slot, pointer, slab_type in pointer_slots(line, secondary):
                rkey, rvalue = self._read_record(pointer, slab_type, read)
                if rkey == key:
                    self._replace_record(
                        addr, line, slot, pointer, slab_type, key, value,
                        secondary,
                    )
                    return len(rvalue)
                self.counters["secondary_false_positives"] += 1
            if host is None:
                run = find_free_run(line, nslots)
                if run is not None:
                    host = (addr, line, run)
            chain = chain_ptr(line)
            if not chain:
                break
            addr = chain * POINTER_GRANULARITY

        # Pass 2: insert as a new KV.  The hosting bucket is still held in
        # the pipeline from pass 1 (no extra DMA to re-read it).
        if host is None:
            return self._insert_into_new_chain_bucket(
                addr, line, key, value, secondary, inline_ok
            )
        addr, line, run = host
        bucket = edit(line)
        if inline_ok:
            write_inline(bucket, run, key, value)
            self.memory.write(addr, bucket)
        else:
            self._insert_pointer(addr, bucket, run, key, value, secondary)
        return None

    def _insert_pointer(
        self,
        addr: int,
        bucket: bytearray,
        slot: int,
        key: bytes,
        value: bytes,
        secondary: int,
    ) -> None:
        record_class = self._record_class(key, value)
        record_addr = self.allocator.alloc_class(record_class)
        self._write_record(record_addr, key, value)
        set_pointer(
            bucket, slot, record_addr // POINTER_GRANULARITY, secondary,
            record_class,
        )
        self.memory.write(addr, bucket)

    def _insert_into_new_chain_bucket(
        self,
        last_addr: int,
        last_line: bytes,
        key: bytes,
        value: bytes,
        secondary: int,
        inline_ok: bool,
    ) -> None:
        """Chain a fresh overflow bucket and place the KV in it."""
        new_addr = self.allocator.alloc_class(_BUCKET_CLASS)
        new_bucket = bytearray(BUCKET_SIZE)
        if inline_ok:
            write_inline(new_bucket, 0, key, value)
        else:
            record_class = self._record_class(key, value)
            record_addr = self.allocator.alloc_class(record_class)
            self._write_record(record_addr, key, value)
            set_pointer(
                new_bucket, 0, record_addr // POINTER_GRANULARITY, secondary,
                record_class,
            )
        self.memory.write(new_addr, new_bucket)
        last_bucket = edit(last_line)
        set_chain(last_bucket, new_addr // POINTER_GRANULARITY)
        self.memory.write(last_addr, last_bucket)
        self.counters["chained_buckets"] += 1

    def _replace_inline(
        self, addr: int, line: bytes, start: int, key: bytes, value: bytes,
        secondary: int, inline_ok: bool, nslots: int,
    ) -> int:
        """Replace the inline KV at ``start``: erase it, then place the new
        KV (``inline_ok`` / ``nslots`` as :meth:`_put` decided) in the
        bucket's *first* free run - which may lie below ``start`` - or,
        when it is no longer inline or finds no run, demote it to a slab
        record behind the first free slot (the erase freed at least one)."""
        old_size = len(read_inline(line, start)[1])
        bucket = edit(line)
        erase_inline(bucket, start)
        run = find_free_run(bucket, nslots) if inline_ok else None
        if run is not None:
            write_inline(bucket, run, key, value)
            self.memory.write(addr, bucket)
        else:
            self._insert_pointer(
                addr, bucket, find_free_run(bucket, 1), key, value, secondary
            )
        return old_size

    def _replace_record(
        self,
        addr: int,
        line: bytes,
        slot: int,
        pointer: int,
        old_class: int,
        key: bytes,
        value: bytes,
        secondary: int,
    ) -> None:
        """Rewrite the slab record behind ``slot``: in place when the new
        record keeps its size class, else in a new slab the slot is
        re-pointed at (the old one freed)."""
        new_class = self._record_class(key, value)
        record_addr = pointer * POINTER_GRANULARITY
        if new_class == old_class:
            # Same size class: overwrite in place, bucket untouched.
            self._write_record(record_addr, key, value)
            return
        new_addr = self.allocator.alloc_class(new_class)
        self._write_record(new_addr, key, value)
        bucket = edit(line)
        set_pointer(
            bucket, slot, new_addr // POINTER_GRANULARITY, secondary,
            new_class,
        )
        self.memory.write(addr, bucket)
        self.allocator.free(record_addr, old_class)

    # -- DELETE -----------------------------------------------------------------------

    def _delete(self, key: bytes, h: int) -> Optional[int]:
        """Remove a key; returns the removed value's size, or None.

        A chained overflow bucket left completely empty is unlinked from
        its predecessor and its 64 B slab freed, so chains shrink again
        after churn instead of growing monotonically.
        """
        secondary = h >> _SECONDARY_SHIFT & _SECONDARY_MASK
        read = self.memory.read
        prev: Optional[Tuple[int, bytes]] = None
        addr = h % self.num_buckets * BUCKET_SIZE
        while True:
            line = read(addr, BUCKET_SIZE)
            start = find_inline(line, key)
            if start is not None:
                old_size = len(read_inline(line, start)[1])
                bucket = edit(line)
                erase_inline(bucket, start)
                self._finish_delete(addr, bucket, prev)
                return old_size
            for slot, pointer, old_class in pointer_slots(line, secondary):
                rkey, rvalue = self._read_record(pointer, old_class, read)
                if rkey != key:
                    self.counters["secondary_false_positives"] += 1
                    continue
                bucket = edit(line)
                clear_slot(bucket, slot)
                self._finish_delete(addr, bucket, prev)
                self.allocator.free(pointer * POINTER_GRANULARITY, old_class)
                return len(rvalue)
            chain = chain_ptr(line)
            if not chain:
                return None
            prev = (addr, line)
            addr = chain * POINTER_GRANULARITY

    def _finish_delete(
        self,
        addr: int,
        bucket: bytearray,
        prev: Optional[Tuple[int, bytes]],
    ) -> None:
        """Persist a bucket after a removal, unlinking it if it emptied."""
        if prev is not None and has_no_entries(bucket):
            prev_addr, prev_line = prev
            prev_bucket = edit(prev_line)
            set_chain(prev_bucket, chain_ptr(bucket))
            self.memory.write(prev_addr, prev_bucket)
            self.allocator.free(addr, _BUCKET_CLASS)
            self.counters["unlinked_buckets"] += 1
            return
        self.memory.write(addr, bucket)

    # -- debug / introspection -----------------------------------------------------------

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Scan every stored KV (uncounted; for tests and tooling).

        The reference walk other structures are checked against: it
        derives the contents from the memory image alone.  All-zero
        buckets - most of a sparsely filled table - hold nothing and
        chain nowhere, so they are skipped without a query.
        """
        peek = self.memory.peek
        for index in range(self.num_buckets):
            addr = self.bucket_addr(index)
            while True:
                line = peek(addr, BUCKET_SIZE)
                if line == _ZERO_BUCKET:
                    break
                for start, __ in inline_spans(line):
                    yield read_inline(line, start)
                for __, pointer, slab_type in pointer_slots(line):
                    yield self._read_record(pointer, slab_type, peek)
                addr = chain_ptr(line) * POINTER_GRANULARITY
                if not addr:
                    break
