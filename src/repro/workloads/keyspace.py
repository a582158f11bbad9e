"""Key/value generation for benchmark corpora.

Section 5.2.1: "we generate random KV pairs with a given size ... To test
inline case, we use KV size that is a multiple of slot size.  To test
non-inline case, we use KV size that is a power of two minus 2 bytes (for
metadata)."

A key is its index's big-endian bytes.  A value's bytes come from a
per-index Mersenne stream, ``random.Random((seed << 32) ^ index)``, one
word per byte (the high byte of each word, as ``getrandbits(8)`` draws
it).  One generator is reseeded per value, its words pulled in a single
``getrandbits`` call and the bytes carved out with a slice: bit-identical
to the historical per-byte loop, and cheap enough that building a corpus
no longer dominates a benchmark's setup.  The batch forms are the scalar
ones in a loop.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, List, Tuple


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

    def keys_many(self, indices: Iterable[int]) -> List[bytes]:
        """:meth:`key` of each index."""
        return list(map(self.key, indices))

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

    def values_many(self, indices: Iterable[int]) -> List[bytes]:
        """:meth:`value` of each index."""
        return list(map(self.value, indices))

    def pair(self, index: int) -> Tuple[bytes, bytes]:
        return self.key(index), self.value(index)

    def pairs(self) -> Iterator[Tuple[bytes, bytes]]:
        indices = range(self.count)
        yield from zip(self.keys_many(indices), self.values_many(indices))
