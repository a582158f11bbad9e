"""Ordered index sidecar: sorted leaves in slab memory beside the hash table.

KV-Direct's hash layout (PAPER.md §3.3) has no key order, which is why
ordered key-value stores are the hard case for NIC offload.  This module
models the cheapest credible ordered structure a KV processor could
maintain: a single-level sequence of sorted *leaves*, each one a 512 B
slab allocation in the same host memory region (and therefore behind the
same PCIe/NIC-DRAM cost models) as the KV data, plus a small leaf
directory of first-keys pinned in NIC SRAM (like the hash-index base
address and slab stack heads, it costs no DMA - see docs/MODELING.md).

Modeled costs are *measured*, not asserted, through the shared
:class:`~repro.dram.host.MemoryImage`:

- **insert**: read the target leaf + write it back (2 accesses), plus one
  extra leaf write when the leaf splits (amortized ``2/LEAF_CAPACITY``).
- **delete**: read + write-back (2 accesses); an emptied leaf is freed
  instead of written.
- **scan(count)**: one leaf read per visited leaf, i.e. about
  ``1 + count/LEAF_CAPACITY`` sequential reads - values, when requested,
  are probed through the hash table at ~1 access each on top.

Leaf writes store a digest image (entry count + per-key FNV-1a64), not
the variable-length keys themselves: the bytes are deterministic and
leaf-sized, which is all the DMA/cache models consume.  The full keys
live in the Python mirror, exactly like the functional half of every
other structure in this reproduction - beside the hashes the image is
made of, which a scan hands back with the keys so the value probes need
not hash again.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

from repro.core.hashing import fnv1a64
from repro.core.slab import SlabAllocator
from repro.core.slab_host import class_size
from repro.dram.host import MemoryImage
from repro.errors import SimulationError

#: Slab size class of one leaf (class 4 = 512 B, the largest slab).
LEAF_CLASS = 4

#: Keys per leaf before it splits.
LEAF_CAPACITY = 16


class _Leaf:
    """One sorted run of keys, and the FNV-1a64 of each, backed by a
    512 B slab."""

    __slots__ = ("addr", "keys", "hashes")

    def __init__(self, addr: int, keys: List[bytes], hashes: List[int]) -> None:
        self.addr = addr
        self.keys = keys
        self.hashes = hashes


class OrderedIndex:
    """Sorted-leaf index over the store's slab memory."""

    def __init__(self, memory: MemoryImage, allocator: SlabAllocator) -> None:
        self.memory = memory
        self.allocator = allocator
        self.leaf_bytes = class_size(LEAF_CLASS)
        #: Leaves in ascending key order (directory modeled as NIC SRAM).
        self._leaves: List[_Leaf] = []
        self.count = 0

    # -- leaf IO ---------------------------------------------------------------

    def _image(self, leaf: _Leaf) -> bytes:
        """The deterministic byte image written back for one leaf."""
        count = len(leaf.hashes)
        return struct.pack(f"<H{count}Q", count, *leaf.hashes).ljust(
            self.leaf_bytes, b"\x00"
        )

    def _read(self, leaf: _Leaf) -> None:
        self.memory.read(leaf.addr, self.leaf_bytes)

    def _write(self, leaf: _Leaf) -> None:
        self.memory.write(leaf.addr, self._image(leaf))

    def _leaf_index(self, key: bytes) -> int:
        """Index of the leaf whose key range covers ``key``."""
        position = bisect_right(
            self._leaves, key, key=lambda leaf: leaf.keys[0]
        )
        return max(position - 1, 0)

    # -- mutation ---------------------------------------------------------------

    def insert(self, key: bytes, h: Optional[int] = None) -> None:
        """Add a *new* key (the composite index filters replacements);
        ``h`` is its ``fnv1a64`` when the caller already has it."""
        if h is None:
            h = fnv1a64(key)
        if not self._leaves:
            leaf = _Leaf(self.allocator.alloc_class(LEAF_CLASS), [key], [h])
            self._leaves.append(leaf)
            self._write(leaf)
            self.count += 1
            return
        index = self._leaf_index(key)
        leaf = self._leaves[index]
        self._read(leaf)
        position = bisect_right(leaf.keys, key)
        leaf.keys.insert(position, key)
        leaf.hashes.insert(position, h)
        self.count += 1
        if len(leaf.keys) > LEAF_CAPACITY:
            mid = len(leaf.keys) // 2
            sibling = _Leaf(
                self.allocator.alloc_class(LEAF_CLASS),
                leaf.keys[mid:], leaf.hashes[mid:],
            )
            del leaf.keys[mid:], leaf.hashes[mid:]
            self._leaves.insert(index + 1, sibling)
            self._write(sibling)
        self._write(leaf)

    def delete(self, key: bytes) -> None:
        """Remove an existing key (caller guarantees presence)."""
        if not self._leaves:
            raise SimulationError(f"ordered delete of unknown key {key!r}")
        index = self._leaf_index(key)
        leaf = self._leaves[index]
        self._read(leaf)
        try:
            position = leaf.keys.index(key)
        except ValueError:
            raise SimulationError(
                f"ordered delete of unknown key {key!r}"
            ) from None
        del leaf.keys[position], leaf.hashes[position]
        self.count -= 1
        if leaf.keys:
            self._write(leaf)
        else:
            # Emptied leaf: free its slab instead of writing it back.
            del self._leaves[index]
            self.allocator.free(leaf.addr, LEAF_CLASS)

    # -- scans -------------------------------------------------------------------

    def scan(self, start: bytes, count: int) -> Tuple[List[bytes], List[int]]:
        """Up to ``count`` keys >= ``start``, ascending, and their hashes;
        one read per leaf."""
        keys: List[bytes] = []
        hashes: List[int] = []
        if count <= 0 or not self._leaves:
            return keys, hashes
        leaves = self._leaves
        index = self._leaf_index(start)
        # Only the first leaf can hold keys below ``start``.
        skip = bisect_left(leaves[index].keys, start)
        read = self.memory.read
        leaf_bytes = self.leaf_bytes
        wanted = count
        end = len(leaves)
        while index < end and wanted > 0:
            leaf = leaves[index]
            read(leaf.addr, leaf_bytes)
            found = leaf.keys[skip : skip + wanted]
            keys += found
            hashes += leaf.hashes[skip : skip + wanted]
            wanted -= len(found)
            skip = 0
            index += 1
        return keys, hashes
