"""Vectorized hashing: key-for-key equivalence with the scalar functions.

The ``*_many`` batch functions in :mod:`repro.core.hashing` exist purely
for interpreter speed; any divergence from the scalar definitions would
silently re-route keys to different shards and invalidate every golden
trace.  These property tests pin the equivalence across random
key batches (mixed lengths, binary content), the fixed-width fast path,
and the edge cases (empty batch, empty key).
"""

import random

import numpy as np
import pytest

from repro.core.hashing import fnv1a64, fnv1a64_many, shard_of, shard_of_many


def _random_keys(rng, count, min_len=0, max_len=24, fixed_len=None):
    keys = []
    for _ in range(count):
        length = fixed_len if fixed_len is not None else rng.randrange(
            min_len, max_len + 1
        )
        keys.append(bytes(rng.randrange(256) for _ in range(length)))
    return keys


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1337])
class TestScalarEquivalence:
    def test_fnv1a64_many_matches_scalar(self, seed):
        rng = random.Random(seed)
        keys = _random_keys(rng, 200)
        expected = [fnv1a64(k) for k in keys]
        got = fnv1a64_many(keys)
        assert got.dtype == np.uint64
        assert got.tolist() == expected

    def test_fixed_width_fast_path_matches_scalar(self, seed):
        rng = random.Random(seed)
        keys = _random_keys(rng, 200, fixed_len=13)
        assert fnv1a64_many(keys).tolist() == [fnv1a64(k) for k in keys]

    def test_shard_of_many_matches_scalar(self, seed):
        rng = random.Random(seed)
        keys = _random_keys(rng, 200)
        for shards in (1, 2, 4, 10):
            expected = [shard_of(k, shards) for k in keys]
            assert shard_of_many(keys, shards).tolist() == expected


class TestEdgeCases:
    def test_empty_batch(self):
        assert fnv1a64_many([]).shape == (0,)
        assert shard_of_many([], 4).shape == (0,)

    def test_empty_key(self):
        assert fnv1a64_many([b""]).tolist() == [fnv1a64(b"")]

    def test_sequential_keyspace_keys_spread_over_shards(self):
        """The splitmix finalizer must keep short sequential keys (the
        KeySpace pattern) from leaving shards empty."""
        keys = [b"key%06d" % i for i in range(4096)]
        counts = np.bincount(shard_of_many(keys, 10), minlength=10)
        assert counts.min() > 0
        assert counts.max() < 2 * counts.mean()
