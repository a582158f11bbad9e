"""Shard routing: balance, bucket-bit disjointness, and a sharded-server
differential soak against the single dict reference model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.chaos import SoakConfig, run_soak
from repro.core.hashing import fnv1a64, shard_of, shard_of_hash
from repro.faults import FaultPlan
from repro.sim import Simulator


KEYS = [b"key%06d" % i for i in range(4000)]

_MASK64 = (1 << 64) - 1


def _finalize(h48):
    """Reference mirror of shard_of's splitmix64-style finalizer."""
    h = ((h48 ^ (h48 >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
    return h ^ (h >> 31)


class TestShardBalance:
    @pytest.mark.parametrize("shards", [2, 4, 10])
    def test_distribution_is_balanced(self, shards):
        counts = [0] * shards
        for key in KEYS:
            counts[shard_of(key, shards)] += 1
        expected = len(KEYS) / shards
        for count in counts:
            # Within 15% of a perfectly uniform split at n=4000.
            assert abs(count - expected) < 0.15 * expected

    @pytest.mark.parametrize("shards", [2, 4, 10])
    def test_sequential_integer_keys_are_balanced(self, shards):
        """KeySpace keys are big-endian sequential integers; raw FNV-1a
        high bits cluster on them badly enough to leave whole shards
        empty - the finalizer must spread them."""
        keys = [i.to_bytes(8, "big") for i in range(4096)]
        counts = [0] * shards
        for key in keys:
            counts[shard_of(key, shards)] += 1
        expected = len(keys) / shards
        for count in counts:
            assert abs(count - expected) < 0.2 * expected
        # Every shard is populated even at a small 512-key corpus (raw
        # FNV-1a high bits left shard 0 entirely empty here).
        small = [0] * shards
        for key in keys[:512]:
            small[shard_of(key, shards)] += 1
        assert min(small) > 0

    def test_stable_and_in_range(self):
        for shards in (1, 2, 4, 10):
            for key in (b"a", b"key", b"x" * 255):
                s = shard_of(key, shards)
                assert 0 <= s < shards
                assert s == shard_of(key, shards)

    def test_matches_published_formula(self):
        for key in KEYS[:64]:
            assert shard_of(key, 7) == _finalize(fnv1a64(key) >> 16) % 7

    @given(st.binary(min_size=1, max_size=255), st.integers(1, 1024))
    def test_a_known_hash_routes_like_its_key(self, key, shards):
        assert shard_of_hash(fnv1a64(key), shards) == shard_of(key, shards)


class TestBucketBitDisjointness:
    def test_shard_ignores_low_sixteen_hash_bits(self):
        """shard_of consumes only bits 16..63 - the bits the bucket index is
        dominated by (power-of-two bucket counts) never reach it."""
        for key in KEYS[:256]:
            h = fnv1a64(key)
            base = _finalize(h >> 16) % 4
            assert shard_of(key, 4) == base
            # Perturbing the low 16 bits cannot change the shard.
            for flip in (0x1, 0xFF, 0xFFFF):
                assert _finalize((h ^ flip) >> 16) % 4 == base

    def test_one_shard_still_covers_all_buckets(self):
        """Conditioning on a shard must not bias the bucket index: shard
        0's keys alone must still reach every one of 64 buckets."""
        buckets = {
            fnv1a64(key) % 64
            for key in KEYS
            if shard_of(key, 4) == 0
        }
        assert buckets == set(range(64))


class TestShardedDifferentialSoak:
    """The chaos-soak checker (independent dict model + reconciliation)
    over a sharded server: N share-nothing stacks, one reference model."""

    def _config(self, shards):
        return SoakConfig(
            seed=11,
            num_shards=shards,
            num_keys=12,
            ops_per_key=25,
            fault_plan=FaultPlan.chaos(0.01),
            deadline_budget_ns=300_000.0,
        )

    def test_sharded_soak_holds_all_invariants(self):
        report = run_soak(self._config(4))
        assert report.check() == []
        assert report.submitted == 12 * 25
        assert report.final_state_matches

    def test_sharded_soak_is_deterministic(self):
        a = run_soak(self._config(4))
        b = run_soak(self._config(4))
        assert a.digest == b.digest
        assert a.as_dict() == b.as_dict()

    def test_shard_counts_change_the_schedule_digest_only_via_faults(self):
        """1-shard and 4-shard runs share the op schedule; both must pass
        the same differential checker independently."""
        single = run_soak(self._config(1))
        sharded = run_soak(self._config(4))
        assert single.check() == []
        assert sharded.check() == []
        assert single.submitted == sharded.submitted

    def test_sharded_metrics_are_namespaced(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        run_soak(self._config(2), registry=registry)
        names = set(registry.collect())
        assert any(n.startswith("nic0.processor") for n in names)
        assert any(n.startswith("nic1.processor") for n in names)
        assert not any(n.startswith("processor") for n in names)


class TestShardRouterEdgeCases:
    """Typed configuration errors instead of silent misrouting."""

    def _stacks(self, n):
        from repro.core.config import KVDirectConfig
        from repro.multi import ServerStack

        sim = Simulator()
        return sim, [
            ServerStack(sim, KVDirectConfig(), name=f"nic{i}")
            for i in range(n)
        ]

    def test_zero_stacks_is_a_typed_error(self):
        from repro.client import ShardRouter
        from repro.errors import ConfigurationError

        sim, __ = self._stacks(0)
        with pytest.raises(ConfigurationError):
            ShardRouter(sim, [])

    def test_empty_op_stream_is_a_typed_error(self):
        from repro.client import ShardRouter
        from repro.errors import ConfigurationError

        sim, stacks = self._stacks(2)
        router = ShardRouter(sim, stacks)
        with pytest.raises(ConfigurationError):
            router.run([])

    def test_single_stack_routes_everything_to_shard_zero(self):
        from repro.client import ShardRouter
        from repro.core.operations import KVOperation

        sim, stacks = self._stacks(1)
        stacks[0].store.put(b"key000000", b"v" * 5)
        router = ShardRouter(sim, stacks)
        ops = [KVOperation.get(b"key000000", seq=i) for i in range(16)]
        stats = router.run(ops)
        assert stats.shards == 1
        assert stats.operations == 16
        assert len(stats.per_shard) == 1

    def test_mutated_stacks_are_refused_not_misrouted(self):
        """Growing router.stacks after construction would hash keys to
        clients that do not exist; the run must fail loudly."""
        from repro.client import ShardRouter
        from repro.core.operations import KVOperation
        from repro.errors import ConfigurationError

        sim, stacks = self._stacks(2)
        router = ShardRouter(sim, stacks)
        sim2, extra = self._stacks(1)
        router.stacks.append(extra[0])
        with pytest.raises(ConfigurationError):
            router.run([KVOperation.get(b"key000000", seq=0)])


class TestServerStackComposition:
    def test_one_nic_server_keeps_plain_processor_metric_names(self):
        from repro.multi import MultiNICServer

        names = set(
            MultiNICServer(Simulator(), 1).register_metrics().collect()
        )
        assert "processor.completed_ops" in names
        assert "station.occupancy" in names
        assert not any(name.startswith("nic0") for name in names)

    def test_multinic_registry_prefixes_every_shard(self):
        from repro.multi import MultiNICServer

        server = MultiNICServer(Simulator(), nic_count=3)
        names = set(server.register_metrics().collect())
        for i in range(3):
            assert f"nic{i}.processor.completed_ops" in names
            assert f"nic{i}.station.occupancy" in names
            assert f"nic{i}.mem.cache_hit_rate" in names
