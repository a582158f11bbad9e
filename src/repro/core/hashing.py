"""Key hashing for the hash index and the reservation station.

FNV-1a 64-bit: deterministic across runs (unlike Python's salted ``hash``),
cheap, and uniform enough for the chaining analysis - the paper chooses
chaining partly because it is "more robust to hash clustering" than linear
probing, but the index hash still needs reasonable uniformity.

Every function is scalar.  An operation's key is hashed once, by the
first layer that needs it (a shard fan-out, the cluster router, or the
processor at issue), and the hash travels with the op's in-flight state
to the station and the index; nothing caches it on the op.
"""

from __future__ import annotations


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


def shard_of(key: bytes, shards: int) -> int:
    """The shard (NIC) owning a key in a share-nothing deployment.

    Uses bits 16..63 of the key hash so shard routing stays statistically
    independent of each shard's bucket index (the hash modulo the bucket
    count, which is dominated by the low bits)
    - otherwise every shard would see only a biased slice of its own
    bucket space.

    The surviving 48 bits are re-mixed with a splitmix64-style finalizer:
    FNV-1a's high bits cluster badly on short sequential keys (e.g. the
    big-endian integer keys of ``KeySpace``), enough to leave whole
    shards empty without the extra avalanche.
    """
    return shard_of_hash(fnv1a64(key), shards)


def shard_of_hash(key_hash: int, shards: int) -> int:
    """:func:`shard_of` for a key whose ``fnv1a64`` is already known (the
    hash an operation carries in flight)."""
    h = key_hash >> 16
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (h ^ (h >> 31)) % shards
