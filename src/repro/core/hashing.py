"""Key hashing for the hash index and the reservation station.

FNV-1a 64-bit: deterministic across runs (unlike Python's salted ``hash``),
cheap, and uniform enough for the chaining analysis - the paper chooses
chaining partly because it is "more robust to hash clustering" than linear
probing, but the index hash still needs reasonable uniformity.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.constants import SECONDARY_HASH_BITS

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def bucket_index(key_hash: int, num_buckets: int) -> int:
    """Primary bucket for a key hash."""
    return key_hash % num_buckets


def shard_of(key: bytes, shards: int) -> int:
    """The shard (NIC) owning a key in a share-nothing deployment.

    Uses bits 16..63 of the key hash so shard routing stays statistically
    independent of each shard's bucket index (``bucket_index`` consumes
    the hash modulo the bucket count, which is dominated by the low bits)
    - otherwise every shard would see only a biased slice of its own
    bucket space.

    The surviving 48 bits are re-mixed with a splitmix64-style finalizer:
    FNV-1a's high bits cluster badly on short sequential keys (e.g. the
    big-endian integer keys of ``KeySpace``), enough to leave whole
    shards empty without the extra avalanche.
    """
    return shard_of_hash(fnv1a64(key), shards)


def shard_of_hash(key_hash: int, shards: int) -> int:
    """:func:`shard_of` for a key whose ``fnv1a64`` is already known (an
    operation's cached ``key_hash``)."""
    h = key_hash >> 16
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (h ^ (h >> 31)) % shards


def secondary_hash(key_hash: int) -> int:
    """9-bit secondary hash from the high bits (independent of the index)."""
    return (key_hash >> (64 - SECONDARY_HASH_BITS)) & (
        (1 << SECONDARY_HASH_BITS) - 1
    )


# -- vectorized batch counterparts -----------------------------------------
#
# One numpy pass over a whole key sequence instead of a per-key Python
# loop.  Each ``*_many`` is the exact batch equivalent of its scalar
# function above (uint64 wraparound arithmetic matches the & _MASK64
# masking); tests/test_hashing_vectorized.py pins the key-for-key
# equivalence property across seeds.

def fnv1a64_many(keys: Sequence[bytes]) -> np.ndarray:
    """64-bit FNV-1a over a batch of byte-string keys.

    Returns a uint64 array with ``fnv1a64(key)`` for every key.  Keys of
    equal length (the common case: fixed-width KeySpace keys) hash in one
    vectorized byte-column sweep; ragged batches are grouped by length.
    """
    keys = list(keys) if not isinstance(keys, list) else keys
    n = len(keys)
    out = np.empty(n, dtype=np.uint64)
    if n == 0:
        return out
    lengths = {len(k) for k in keys}
    if len(lengths) == 1:
        out[:] = _fnv1a64_fixed(keys, lengths.pop())
        return out
    by_len: dict = {}
    for i, key in enumerate(keys):
        by_len.setdefault(len(key), []).append(i)
    for length, indices in by_len.items():
        idx = np.asarray(indices, dtype=np.intp)
        out[idx] = _fnv1a64_fixed([keys[i] for i in indices], length)
    return out


def _fnv1a64_fixed(keys: Sequence[bytes], length: int) -> np.ndarray:
    """FNV-1a for a batch of equal-length keys, one column at a time."""
    h = np.full(len(keys), _FNV_OFFSET, dtype=np.uint64)
    if length == 0:
        return h
    mat = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(
        len(keys), length
    )
    prime = np.uint64(_FNV_PRIME)
    with np.errstate(over="ignore"):
        for col in range(length):
            h ^= mat[:, col]
            h *= prime
    return h


def shard_of_many(keys: Iterable[bytes], shards: int) -> np.ndarray:
    """Shard assignment for a batch of keys; matches ``shard_of`` key-for-key."""
    h = fnv1a64_many(list(keys)) >> np.uint64(16)
    with np.errstate(over="ignore"):
        h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (h ^ (h >> np.uint64(31))) % np.uint64(shards)
