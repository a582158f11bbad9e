"""Hashing on the batch paths: every op of a batch hashes and routes as the
scalar functions say.

A batch of operations hashes each key once (the hashes a ``FanOut`` lane
hands out with its ops) and the shard fan-out routes on that hash; any divergence from
``fnv1a64`` / ``shard_of`` would silently re-route keys to different
shards and invalidate every golden trace.  These property tests pin the
equivalence across random key batches (mixed lengths, binary content,
fixed-width keys) and the edge cases (empty batch, empty key).
"""

import random
from collections import Counter

import pytest

from repro.core.hashing import fnv1a64, shard_of
from repro.core.operations import FanOut, KVOperation
from tests.ref_generators import fan_out


def _hashes(ops):
    """The hash a two-way fan-out hands out with each of ``ops``."""
    by_op = {}
    for lane in FanOut(ops, 2).lanes:
        taken, hashes = lane.take(len(ops))
        by_op.update(zip(map(id, taken), hashes))
    return [by_op[id(op)] for op in ops]


def _random_keys(rng, count, min_len=1, max_len=24, fixed_len=None):
    keys = []
    for _ in range(count):
        length = fixed_len if fixed_len is not None else rng.randrange(
            min_len, max_len + 1
        )
        keys.append(bytes(rng.randrange(256) for _ in range(length)))
    return keys


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1337])
class TestScalarEquivalence:
    def test_key_hash_matches_fnv1a64(self, seed):
        keys = _random_keys(random.Random(seed), 200)
        ops = [KVOperation.get(key) for key in keys]
        assert _hashes(ops) == [fnv1a64(k) for k in keys]

    def test_fixed_width_fast_path_matches_scalar(self, seed):
        """Fixed-width keys (the KeySpace shape) hash and route as the
        scalar functions say."""
        keys = _random_keys(random.Random(seed), 200, fixed_len=13)
        ops = [KVOperation.get(key, seq=i) for i, key in enumerate(keys)]
        assert _hashes(ops) == [fnv1a64(k) for k in keys]
        for shards in (2, 4, 10):
            parts = fan_out(ops, shards)
            for shard, part in enumerate(parts):
                assert part == [
                    op for op in ops if shard_of(op.key, shards) == shard
                ]

    def test_shard_of_many_matches_scalar(self, seed):
        """``fan_out`` is the batch shard assignment: each point op lands
        in the part ``shard_of`` names, in batch order, and a scan lands in
        every part."""
        keys = _random_keys(random.Random(seed), 200)
        ops = [KVOperation.get(key, seq=i) for i, key in enumerate(keys)]
        scan = KVOperation.scan(b"k", 4, seq=len(ops))
        for shards in (1, 2, 4, 10):
            parts = fan_out(ops + [scan], shards)
            assert len(parts) == shards
            for shard, part in enumerate(parts):
                assert part[-1] is scan
                assert part[:-1] == [
                    op for op in ops if shard_of(op.key, shards) == shard
                ]


class TestEdgeCases:
    def test_empty_batch(self):
        assert fan_out([], 4) == [[], [], [], []]
        assert fan_out([], 1) == [[]]

    def test_empty_key(self):
        """FNV-1a of nothing is the offset basis, and of one byte the
        published test vector."""
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert _hashes([KVOperation.get(b"a")]) == [fnv1a64(b"a")]

    def test_sequential_keyspace_keys_spread_over_shards(self):
        """The splitmix finalizer must keep short sequential keys (the
        KeySpace pattern) from leaving shards empty."""
        keys = [b"key%06d" % i for i in range(4096)]
        counts = Counter(shard_of(key, 10) for key in keys)
        assert len(counts) == 10
        assert max(counts.values()) < 2 * len(keys) / 10
