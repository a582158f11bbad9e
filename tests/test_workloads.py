"""Unit tests for workload generators."""

import collections
import random

import pytest

from repro.core.operations import OpType
from repro.workloads import (
    KeySpace,
    UniformSampler,
    WorkloadSpec,
    YCSBGenerator,
    ZipfSampler,
)
from repro.workloads.keyspace import inline_kv_sizes, noninline_kv_sizes
from repro.workloads.ycsb import PAPER_PUT_RATIOS, paper_workloads


class TestKeySpace:
    def test_key_deterministic(self):
        ks = KeySpace(count=100, kv_size=32)
        assert ks.key(5) == ks.key(5)
        assert ks.key(5) != ks.key(6)
        assert len(ks.key(5)) == 8

    def test_value_deterministic_and_sized(self):
        ks = KeySpace(count=10, kv_size=32, seed=1)
        assert ks.value(3) == ks.value(3)
        assert len(ks.value(3)) == 24

    def test_different_seeds_differ(self):
        a = KeySpace(count=10, kv_size=32, seed=1)
        b = KeySpace(count=10, kv_size=32, seed=2)
        assert a.value(0) != b.value(0)

    def test_pairs(self):
        ks = KeySpace(count=5, kv_size=16)
        pairs = list(ks.pairs())
        assert len(pairs) == 5
        assert all(len(k) + len(v) == 16 for k, v in pairs)

    def test_bounds(self):
        ks = KeySpace(count=5, kv_size=16)
        with pytest.raises(IndexError):
            ks.key(5)

    def test_validation(self):
        with pytest.raises(ValueError):
            KeySpace(count=0, kv_size=16)
        with pytest.raises(ValueError):
            KeySpace(count=5, kv_size=8, key_size=8)
        with pytest.raises(ValueError):
            KeySpace(count=5, kv_size=300, key_size=2)

    @pytest.mark.parametrize("seed", [0, 1, 7, 23, 1 << 20])
    def test_values_are_each_index_s_mersenne_high_bytes(self, seed):
        """Byte ``i`` of value ``index`` is the high byte of word ``i`` of
        ``random.Random((seed << 32) ^ index)``, at every KV size, whether
        drawn alone or in a batch, in any order."""
        indices = [0, 1, 5, 2, 5]
        for kv_size in range(9, 259):
            ks = KeySpace(count=10, kv_size=kv_size, seed=seed)
            n = kv_size - 8
            expected = [
                random.Random((seed << 32) ^ index)
                .getrandbits(32 * n).to_bytes(4 * n, "little")[3::4]
                for index in indices
            ]
            assert ks.values_many(indices) == expected
            assert [ks.value(index) for index in indices] == expected

    def test_keys_are_big_endian_indices(self):
        for key_size in (4, 8, 12):
            ks = KeySpace(count=300, kv_size=40, key_size=key_size)
            assert ks.keys_many([0, 1, 299]) == [
                i.to_bytes(key_size, "big") for i in (0, 1, 299)
            ]
        with pytest.raises(IndexError):
            ks.keys_many([1, 300])

    def test_paper_kv_size_points(self):
        assert inline_kv_sizes()[:3] == [5, 10, 15]
        assert noninline_kv_sizes() == [62, 126, 254]


class TestUniformSampler:
    def test_range(self):
        sampler = UniformSampler(100, seed=1)
        samples = sampler.sample_many(1000)
        assert all(0 <= s < 100 for s in samples)

    def test_roughly_uniform(self):
        sampler = UniformSampler(10, seed=2)
        counts = collections.Counter(sampler.sample_many(10_000))
        for key in range(10):
            assert 800 < counts[key] < 1200

    def test_deterministic(self):
        a = UniformSampler(50, seed=3).sample_many(20)
        b = UniformSampler(50, seed=3).sample_many(20)
        assert a == b

    def test_invalid(self):
        with pytest.raises(ValueError):
            UniformSampler(0)


class TestZipfSampler:
    def test_range(self):
        sampler = ZipfSampler(1000, seed=1)
        assert all(0 <= s < 1000 for s in sampler.sample_many(1000))

    def test_skew_concentrates_mass(self):
        """With skew 0.99, the hottest keys dominate the distribution."""
        sampler = ZipfSampler(10_000, seed=1)
        hot = set(sampler.hot_keys(100))  # top 1 %
        samples = sampler.sample_many(20_000)
        hot_fraction = sum(s in hot for s in samples) / len(samples)
        assert hot_fraction > 0.4

    def test_rank_order(self):
        """Lower ranks (hotter keys) are sampled more often."""
        sampler = ZipfSampler(100, seed=7, shuffle=False)
        counts = collections.Counter(sampler.sample_many(50_000))
        assert counts[0] > counts[10] > counts[90]

    def test_zero_skew_is_uniform(self):
        sampler = ZipfSampler(10, skew=0.0, seed=1)
        counts = collections.Counter(sampler.sample_many(20_000))
        for key in range(10):
            assert 1600 < counts[key] < 2400

    def test_deterministic(self):
        a = ZipfSampler(500, seed=5).sample_many(50)
        b = ZipfSampler(500, seed=5).sample_many(50)
        assert a == b

    def test_shuffle_spreads_hot_keys(self):
        shuffled = ZipfSampler(1000, seed=1, shuffle=True)
        assert shuffled.hot_keys(3) != [0, 1, 2]

    def test_seed_none_shuffle_derived_from_sampler_rng(self, monkeypatch):
        """Regression: with ``seed=None`` the rank shuffle must be seeded
        from the (entropy-seeded) sampler RNG, not from a second
        independent ``RandomState(None)`` entropy pull - the draw stream
        and the rank mapping stay coherent with each other."""
        import numpy as np

        calls = []
        real = np.random.RandomState

        def spy(seed=None):
            calls.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "RandomState", spy)
        sampler = ZipfSampler(100, seed=None)
        assert len(calls) == 1
        assert calls[0] is not None
        assert all(0 <= s < 100 for s in sampler.sample_many(50))

    @pytest.mark.parametrize("make", [
        lambda: UniformSampler(1000, seed=3),
        lambda: UniformSampler(65537, seed=3),
        lambda: ZipfSampler(1000, seed=3),
        lambda: ZipfSampler(300, skew=0.5, seed=4, shuffle=False),
    ])
    def test_a_batch_is_the_scalar_draws(self, make):
        """``sample_many`` is ``sample`` in a loop: the same draws, and the
        generator left where the loop leaves it."""
        batch, scalar = make(), make()
        assert batch.sample_many(500) == [scalar.sample() for __ in range(500)]
        assert batch._rng.getstate() == scalar._rng.getstate()
        assert batch.sample_many(0) == [] and batch.sample_many(-1) == []

    def test_invalid(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(10, skew=-1)


class TestWorkloadSpec:
    def test_name(self):
        assert WorkloadSpec(0.5, "zipf").name == "long-tail/50%PUT"
        assert WorkloadSpec(0.0, "uniform").name == "uniform/0%PUT"

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(put_ratio=1.5)
        with pytest.raises(ValueError):
            WorkloadSpec(distribution="pareto")

    def test_paper_workloads(self):
        specs = paper_workloads()
        assert len(specs) == 8
        assert {s.distribution for s in specs} == {"uniform", "zipf"}
        assert {s.put_ratio for s in specs} == set(PAPER_PUT_RATIOS)


class TestYCSBGenerator:
    def _generator(self, put_ratio=0.5, distribution="uniform"):
        ks = KeySpace(count=200, kv_size=32)
        return YCSBGenerator(ks, WorkloadSpec(put_ratio, distribution))

    def test_load_phase_covers_corpus(self):
        gen = self._generator()
        ops = list(gen.load_phase())
        assert len(ops) == 200
        assert all(op.op is OpType.PUT for op in ops)
        assert len({op.key for op in ops}) == 200

    def test_put_ratio_respected(self):
        gen = self._generator(put_ratio=0.3)
        ops = gen.operations(5000)
        puts = sum(op.op is OpType.PUT for op in ops)
        assert 0.25 < puts / len(ops) < 0.35

    def test_pure_get(self):
        gen = self._generator(put_ratio=0.0)
        assert all(op.op is OpType.GET for op in gen.operations(500))

    def test_pure_put(self):
        gen = self._generator(put_ratio=1.0)
        assert all(op.op is OpType.PUT for op in gen.operations(500))

    def test_zipf_workload_skews(self):
        gen = self._generator(put_ratio=0.0, distribution="zipf")
        ops = gen.operations(5000)
        counts = collections.Counter(op.key for op in ops)
        top = counts.most_common(1)[0][1]
        assert top > 5000 / 200 * 5  # far above the uniform share

    def test_sequences_assigned(self):
        gen = self._generator()
        ops = gen.operations(10)
        assert [op.seq for op in ops] == list(range(10))
