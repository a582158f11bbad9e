"""Key/value generation for benchmark corpora.

Section 5.2.1: "we generate random KV pairs with a given size ... To test
inline case, we use KV size that is a multiple of slot size.  To test
non-inline case, we use KV size that is a power of two minus 2 bytes (for
metadata)."  The slab record header is those 2 B, so such a KV and its
header fill one slab (``core/hashtable.py``).

A key is its index's big-endian bytes.  A value's bytes are the high bytes
of a per-index Mersenne stream, ``random.Random((seed << 32) ^ index)``,
one word per byte, pulled in one ``getrandbits`` call (bit-identical to
``getrandbits(8)`` a byte, and cheap enough that a corpus no longer
dominates a benchmark's setup).  :meth:`KeySpace.pairs` builds one pair at
a time, so a loader that keeps nothing never holds the corpus.
"""

from __future__ import annotations

import random
from typing import Iterator, Tuple


class KeySpace:
    """A corpus of fixed-size KV pairs indexed by integer."""

    def __init__(
        self,
        count: int,
        kv_size: int,
        key_size: int = 8,
        seed: int = 0,
    ) -> None:
        if count <= 0:
            raise ValueError("count must be positive")
        if key_size < 4 or key_size > 255:
            raise ValueError("key_size must be in [4, 255]")
        if kv_size <= key_size:
            raise ValueError("kv_size must exceed key_size")
        self.count = count
        self.kv_size = kv_size
        self.key_size = key_size
        self.value_size = kv_size - key_size
        #: Reseeded per value: ``seed(x)`` is the same ``init_by_array`` as
        #: ``random.Random(x)``, without a new generator per value.
        self._rng = random.Random()
        self._value_seed = seed

    def key(self, index: int) -> bytes:
        """Deterministic key of ``index``: its big-endian bytes."""
        if not 0 <= index < self.count:
            raise IndexError(f"key index {index} outside [0, {self.count})")
        return index.to_bytes(self.key_size, "big")

    def value(self, index: int) -> bytes:
        """Deterministic pseudo-random value for ``index``.

        Byte ``i`` is ``getrandbits(8)`` draw ``i`` of the index's own
        stream, i.e. the high byte of Mersenne word ``i``: all words are
        pulled in one ``getrandbits`` call and the high bytes carved out
        of the little-endian word buffer with ``[3::4]``.
        """
        rng = self._rng
        rng.seed((self._value_seed << 32) ^ index)
        n = self.value_size
        return rng.getrandbits(32 * n).to_bytes(4 * n, "little")[3::4]

    def pair(self, index: int) -> Tuple[bytes, bytes]:
        return self.key(index), self.value(index)

    def pairs(self) -> Iterator[Tuple[bytes, bytes]]:
        """Every :meth:`pair`, in index order, built as it is drawn."""
        return map(self.pair, range(self.count))
