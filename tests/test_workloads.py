"""Unit tests for workload generators."""

import collections
import hashlib
import random
import tracemalloc

import pytest

from repro.core.operations import OpType
from repro.workloads import (
    KeySpace,
    UniformSampler,
    WorkloadSpec,
    YCSBGenerator,
    ZipfSampler,
)
from repro.workloads import zipf


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
        drawn alone, in any order, or through :meth:`KeySpace.pairs`."""
        indices = [0, 1, 5, 2, 5]
        for kv_size in range(9, 259):
            ks = KeySpace(count=10, kv_size=kv_size, seed=seed)
            n = kv_size - 8
            expected = [
                random.Random((seed << 32) ^ index)
                .getrandbits(32 * n).to_bytes(4 * n, "little")[3::4]
                for index in indices
            ]
            assert [ks.value(index) for index in indices] == expected
            pairs = list(ks.pairs())
            assert [pairs[index][1] for index in indices] == expected

    def test_keys_are_big_endian_indices(self):
        for key_size in (4, 8, 12):
            ks = KeySpace(count=300, kv_size=40, key_size=key_size)
            assert [ks.key(i) for i in (0, 1, 299)] == [
                i.to_bytes(key_size, "big") for i in (0, 1, 299)
            ]
        with pytest.raises(IndexError):
            ks.key(300)

    def test_pairs_hold_one_pair_at_a_time(self):
        """A loader that keeps nothing never holds the corpus: 20,000
        254 B KVs (4.9 MB of values) iterate under a 256 KiB peak."""
        ks = KeySpace(count=20_000, kv_size=254, seed=7)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            count = sum(1 for __ in ks.pairs())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert count == 20_000
        assert peak < 256 << 10, peak



def _hot(sampler, count):
    """The ``count`` most popular key indices: the head of the rank table."""
    return sampler._rank_to_key[:count]

def _draws(sampler, count):
    return [sampler.sample() for __ in range(count)]


class TestUniformSampler:
    def test_range(self):
        sampler = UniformSampler(100, seed=1)
        samples = _draws(sampler, 1000)
        assert all(0 <= s < 100 for s in samples)

    def test_roughly_uniform(self):
        sampler = UniformSampler(10, seed=2)
        counts = collections.Counter(_draws(sampler, 10_000))
        for key in range(10):
            assert 800 < counts[key] < 1200

    def test_deterministic(self):
        a = _draws(UniformSampler(50, seed=3), 20)
        b = _draws(UniformSampler(50, seed=3), 20)
        assert a == b

    def test_invalid(self):
        with pytest.raises(ValueError):
            UniformSampler(0)


class TestZipfSampler:
    def test_range(self):
        sampler = ZipfSampler(1000, seed=1)
        assert all(0 <= s < 1000 for s in _draws(sampler, 1000))

    def test_skew_concentrates_mass(self):
        """With skew 0.99, the hottest keys dominate the distribution."""
        sampler = ZipfSampler(10_000, seed=1)
        hot = set(_hot(sampler, 100))  # top 1 %
        samples = _draws(sampler, 20_000)
        hot_fraction = sum(s in hot for s in samples) / len(samples)
        assert hot_fraction > 0.4

    def test_rank_order(self):
        """Lower ranks (hotter keys) are sampled more often."""
        sampler = ZipfSampler(100, seed=7, shuffle=False)
        counts = collections.Counter(_draws(sampler, 50_000))
        assert counts[0] > counts[10] > counts[90]

    def test_zero_skew_is_uniform(self):
        sampler = ZipfSampler(10, skew=0.0, seed=1)
        counts = collections.Counter(_draws(sampler, 20_000))
        for key in range(10):
            assert 1600 < counts[key] < 2400

    def test_deterministic(self):
        a = _draws(ZipfSampler(500, seed=5), 50)
        b = _draws(ZipfSampler(500, seed=5), 50)
        assert a == b

    def test_shuffle_spreads_hot_keys(self):
        shuffled = ZipfSampler(1000, seed=1, shuffle=True)
        assert _hot(shuffled, 3) != [0, 1, 2]

    def test_seed_none_shuffle_derived_from_sampler_rng(self, monkeypatch):
        """Regression: with ``seed=None`` the rank shuffle must be seeded
        from the (entropy-seeded) sampler RNG, not from a second
        independent entropy pull - the draw stream and the rank mapping
        stay coherent with each other.  The sampler's first 32-bit draw is
        the shuffle seed, and its draws continue right after it."""
        made = []

        class Recorded(random.Random):
            def __init__(self, seed=None):
                super().__init__(seed)
                made.append((self, self.getstate()))

        monkeypatch.setattr(zipf.random, "Random", Recorded)
        sampler = ZipfSampler(100, seed=None)
        monkeypatch.undo()
        rng, first_state = made[0]
        assert rng is sampler._rng
        replay = random.Random()
        replay.setstate(first_state)
        assert sampler._rank_to_key == zipf._shuffled(
            100, replay.getrandbits(32)
        )
        assert sampler._rng.getstate() == replay.getstate()
        assert sorted(sampler._rank_to_key) == list(range(100))
        assert all(0 <= s < 100 for s in _draws(sampler, 50))

    @pytest.mark.parametrize("make", [
        lambda: UniformSampler(1000, seed=3),
        lambda: UniformSampler(65537, seed=3),
        lambda: ZipfSampler(1000, seed=3),
        lambda: ZipfSampler(300, skew=0.5, seed=4, shuffle=False),
    ])
    def test_a_batch_is_the_scalar_draws(self, make):
        """A sampler draws from its own generator only: 500 draws in one
        go are the 500 drawn one at a time between other generators'
        draws (as a lazily pulled op stream draws them), and leave the
        generator in the same state."""
        batch, scalar, other = make(), make(), make()
        interleaved = []
        for __ in range(500):
            other.sample()
            random.random()
            interleaved.append(scalar.sample())
        assert _draws(batch, 500) == interleaved
        assert batch._rng.getstate() == scalar._rng.getstate()

    def test_invalid(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(10, skew=-1)
        # NaN passed ``skew < 0`` and built an all-zero table: every draw
        # was the same key.
        with pytest.raises(ValueError, match="skew"):
            ZipfSampler(100, skew=float("nan"), seed=1)

    @pytest.mark.parametrize("seed, error", [
        (-1, ValueError), (1 << 32, ValueError), (-(1 << 40), ValueError),
        (1.5, TypeError), (2.0, TypeError), ("abc", TypeError),
        (b"x", TypeError),
    ])
    def test_a_seed_the_shuffle_cannot_take_is_refused(self, seed, error):
        """As ``numpy.random.RandomState`` refused it, and only when the
        ranks are shuffled."""
        with pytest.raises(error):
            ZipfSampler(50, seed=seed)
        unshuffled = ZipfSampler(50, seed=seed, shuffle=False)
        assert _hot(unshuffled, 3) == [0, 1, 2]


#: sha256[:16] of ``repr`` of the first 10,000 draws and of ``hot_keys(50)``
#: for every ``(population, skew, seed, shuffle)`` a gate builds, frozen
#: from the numpy-built table: ``net-sharded`` (its unshuffled sampler and
#: the shuffled one its generator builds first), the ``ycsb-zipf`` surface
#: and Table 3 (5,000), YCSB-E and Fig 13 (2,000), Figs 16/17 (4,000),
#: Fig 14 (225,848), and the tests' own.
PINNED_ZIPF_STREAMS = [
    ((20000, 0.99, 7, False), "06ff18bf4a917dd5", "d97b3c7daac644a1"),
    ((20000, 0.99, 11, False), "1dd9861779ddf124", "d97b3c7daac644a1"),
    ((20000, 0.99, 23, False), "4861b168050bba9a", "d97b3c7daac644a1"),
    ((20000, 0.99, 7, True), "46886fbd7ed57563", "4c10c738effd4972"),
    ((20000, 0.99, 11, True), "c03d713a6bc4b9f1", "e734a4a88e0bd9df"),
    ((20000, 0.99, 23, True), "bbce6c0e784b99d5", "1ed49183093f4d1b"),
    ((5000, 0.99, 0, True), "10fafb25145fded3", "b5d2114fe7e52c9c"),
    ((2000, 0.99, 0, True), "8a7cc50020411dba", "c8f8e1074c7b5739"),
    ((4000, 0.99, 0, True), "66b9d3a16097d7b2", "eb0c327d2bdb8da3"),
    ((225848, 0.99, 0, True), "5f5bb9c6e2b5d402", "2d3b235227153675"),
    ((10, 0.0, 1, True), "89a864ef15b2c57c", "5ddeb9130fe33d2f"),
    ((100, 0.99, 7, False), "ac92eb11831a2ef1", "d97b3c7daac644a1"),
    ((1000, 0.99, 1, True), "37168098d1aa1aa9", "8617a91865207572"),
    ((1000, 0.99, 3, True), "c313893a9bc06664", "0db446a7f078bfc1"),
    ((1000, 0.99, 7, True), "15e09e02020f2b4b", "809b08adea7f8c93"),
    ((1000, 0.99, 11, True), "49aefb650e90c86a", "1990190ace0ef123"),
    ((10000, 0.99, 1, True), "377330d30a0ee2d7", "11a3fddfbee54a58"),
    ((1500, 0.99, 0, True), "2eacdf3d62052d72", "76783ed71b969a2a"),
    ((1500, 0.99, 7, True), "f23bc0cbde399ed6", "7bd6aecbc222f6bd"),
    ((1500, 0.99, 42, True), "56981107e0e14476", "6a29ccc6529d7a80"),
    ((200, 0.99, 0, True), "9be85536fc326117", "85e64d193dff7a0f"),
    ((300, 0.5, 4, False), "d37acb9941af83b9", "d97b3c7daac644a1"),
    ((500, 0.99, 0, True), "0889801f350f2ae0", "0643b0ffa55c6b5d"),
    ((500, 0.99, 1, True), "f0730ef05b1f3ea8", "0f1fabcc389313bc"),
    ((500, 0.99, 2, True), "0a12da87da130b7f", "a9355dc00e766fcd"),
    ((500, 0.99, 5, True), "ea52d392d2c94194", "a2b2560a468be084"),
    ((500, 0.99, 9, True), "78913b3e8f1ed0e7", "9e823292e5859fcd"),
]


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


class TestZipfStreamIsPinned:
    """The pure-Python table draws the stream the numpy-built one drew."""

    @pytest.mark.parametrize(
        "shape, draws, hot", PINNED_ZIPF_STREAMS,
        ids=["-".join(map(str, shape)) for shape, *__ in PINNED_ZIPF_STREAMS],
    )
    def test_draws_and_hot_keys(self, shape, draws, hot):
        population, skew, seed, shuffle = shape
        sampler = ZipfSampler(population, skew, seed=seed, shuffle=shuffle)
        assert _digest(_draws(sampler, 10_000)) == draws
        assert _digest(_hot(sampler, 50)) == hot


def _numpy_table(np, population, skew):
    """The numpy-built table: ``np.power`` weights over a pairwise sum."""
    weights = 1.0 / np.power(np.arange(1, population + 1, dtype=float), skew)
    return ZipfSampler._build_alias((weights / weights.sum()).tolist())


class TestZipfTableMatchesNumpy:
    """Against the numpy definition the table replaced; skipped without
    numpy."""

    @pytest.mark.parametrize("population", [1, 2, 7, 100, 1000, 20000])
    @pytest.mark.parametrize("skew", [0.0, 0.5, 0.99, 1.2])
    def test_alias_table(self, population, skew):
        """The same alias partition; its column probabilities differ only
        in their last bits (``np.power`` against libm's ``pow``, a pairwise
        sum against ``fsum``, carried through the partition's running
        sums), and no draw moves."""
        np = pytest.importorskip("numpy")
        alias, prob = _numpy_table(np, population, skew)
        sampler = ZipfSampler(population, skew, seed=3, shuffle=False)
        assert sampler._alias == alias
        assert sampler._prob == pytest.approx(prob, rel=1e-10, abs=0)
        reference = ZipfSampler(population, skew, seed=3, shuffle=False)
        reference._alias, reference._prob = alias, prob
        assert _draws(sampler, 5000) == _draws(reference, 5000)

    @pytest.mark.parametrize("population", [1, 2, 3, 1000, 4000, 20000])
    @pytest.mark.parametrize("seed", [0, 7, 11, 23, 42, (1 << 32) - 1])
    def test_shuffle(self, population, seed):
        np = pytest.importorskip("numpy")
        keys = np.arange(population)
        np.random.RandomState(seed).shuffle(keys)
        assert zipf._shuffled(population, seed) == keys.tolist()


class TestWorkloadSpec:
    def test_name(self):
        assert WorkloadSpec(0.5, "zipf").name == "long-tail/50%PUT"
        assert WorkloadSpec(0.0, "uniform").name == "uniform/0%PUT"

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(put_ratio=1.5)
        with pytest.raises(ValueError):
            WorkloadSpec(distribution="pareto")

    @pytest.mark.parametrize("skew", [float("nan"), -0.5])
    def test_a_nan_or_negative_zipf_skew_is_refused(self, skew):
        """Refused at construction, as a bad put ratio is, not when (or
        if) a generator builds the table."""
        with pytest.raises(ValueError, match="skew"):
            WorkloadSpec(distribution="zipf", zipf_skew=skew)


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
