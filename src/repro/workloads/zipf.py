"""Key-popularity samplers: uniform and Zipf (long-tail).

The Zipf sampler uses the alias method over the exact Zipf PMF, giving
O(1) draws after O(n) setup - fast enough to generate millions of requests
against scaled-down key spaces.

A draw is scalar ``random.Random`` calls over Python lists, and
``sample_many`` is ``sample`` in a loop: the same stream, the generator
left in the same state.  numpy builds the Zipf table and nothing else:
the weights are ``np.power``, normalised by numpy's pairwise sum, and the
rank shuffle is a ``RandomState``'s.  Those stay numpy because Python
cannot reproduce them bit for bit: ``np.power`` may take a SIMD path by
CPU dispatch, and on an AVX-512 machine it disagrees with libm's ``pow``
(Python's ``**``) on 1,056 of 20,000 weights.  So a Zipf stream may
depend on which CPU path numpy dispatches to; docs/MODELING.md records
this.
A uniform sampler imports no numpy.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.constants import ZIPF_SKEW


class UniformSampler:
    """Every key equally likely.

    ``seed=None`` is explicitly nondeterministic (OS entropy); any other
    seed gives a reproducible stream.
    """

    def __init__(self, population: int, seed: Optional[int] = 0) -> None:
        if population <= 0:
            raise ValueError("population must be positive")
        self.population = population
        self._rng = random.Random(seed)

    def sample(self) -> int:
        return self._rng.randrange(self.population)

    def sample_many(self, count: int) -> List[int]:
        randrange = self._rng.randrange
        population = self.population
        return [randrange(population) for __ in range(count)]


class ZipfSampler:
    """Zipf-distributed ranks with the paper's skewness 0.99.

    Rank ``r`` (0-based) has probability proportional to ``1/(r+1)**s``.
    Draws use Vose's alias method.

    Determinism: for any integer ``seed`` both the draw stream and the
    rank shuffle are fully reproducible.  ``seed=None`` is *explicitly
    nondeterministic* - the sampler RNG seeds from OS entropy and the
    shuffle seed is then derived from that RNG (rather than a second
    independent entropy pull), so the draw stream and the rank mapping
    at least stay coherent with each other.
    """

    def __init__(
        self,
        population: int,
        skew: float = ZIPF_SKEW,
        seed: Optional[int] = 0,
        shuffle: bool = True,
    ) -> None:
        if population <= 0:
            raise ValueError("population must be positive")
        if skew < 0:
            raise ValueError("skew must be non-negative")
        self.population = population
        self.skew = skew
        self._rng = random.Random(seed)
        import numpy as np  # the table only: see the module docstring

        weights = 1.0 / np.power(np.arange(1, population + 1, dtype=float), skew)
        self._alias, self._prob = self._build_alias(
            (weights / weights.sum()).tolist()
        )
        # Map popularity ranks onto key indices in a shuffled order so hot
        # keys are not clustered in adjacent hash buckets.
        rank_to_key = np.arange(population)
        if shuffle:
            if seed is None:
                # Nondeterministic mode: derive the shuffle from the
                # entropy-seeded sampler RNG instead of RandomState(None).
                shuffler = np.random.RandomState(self._rng.getrandbits(32))
            else:
                shuffler = np.random.RandomState(seed)
            shuffler.shuffle(rank_to_key)
        self._rank_to_key: List[int] = rank_to_key.tolist()

    @staticmethod
    def _build_alias(probabilities: List[float]):
        n = len(probabilities)
        prob = [0.0] * n
        alias = [0] * n
        scaled = [p * n for p in probabilities]
        small = [i for i, p in enumerate(scaled) if p < 1.0]
        large = [i for i, p in enumerate(scaled) if p >= 1.0]
        while small and large:
            s, l = small.pop(), large.pop()
            prob[s] = scaled[s]
            alias[s] = l
            scaled[l] = scaled[l] + scaled[s] - 1.0
            (small if scaled[l] < 1.0 else large).append(l)
        for leftover in small + large:
            prob[leftover] = 1.0
        return alias, prob

    def sample(self) -> int:
        """Draw one key index."""
        column = self._rng.randrange(self.population)
        if self._rng.random() < self._prob[column]:
            return self._rank_to_key[column]
        return self._rank_to_key[self._alias[column]]

    def sample_many(self, count: int) -> List[int]:
        """``count`` draws of :meth:`sample`."""
        sample = self.sample
        return [sample() for __ in range(count)]

    def hot_keys(self, count: int) -> List[int]:
        """The ``count`` most popular key indices."""
        return self._rank_to_key[:max(0, count)]
