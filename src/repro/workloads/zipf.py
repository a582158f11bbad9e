"""Key-popularity samplers: uniform and Zipf (long-tail).

The Zipf sampler uses the alias method over the exact Zipf PMF, giving
O(1) draws after O(n) setup - fast enough to generate millions of requests
against scaled-down key spaces.

A draw is scalar ``random.Random`` calls over Python lists, on the
sampler's own generator, so draws pulled one at a time between other
generators' draws are the stream drawn in one go.  The Zipf table is pure Python too, so neither
sampler imports numpy: the weights are libm's ``pow`` (``math.pow``),
normalised by ``math.fsum``, and the rank shuffle replays
``numpy.random.RandomState(seed).shuffle`` bit for bit on an MT19937
``random.Random`` (:func:`_shuffled`).  The table is the same on every
CPU, and it draws the stream a numpy-built one (``np.power`` weights) does:
docs/MODELING.md says why.
"""

from __future__ import annotations

import math
import operator
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
        if not skew >= 0:  # NaN too, which would build an all-zero table
            raise ValueError(f"skew must be non-negative: {skew}")
        self.population = population
        self.skew = skew
        self._rng = random.Random(seed)
        weights = [1.0 / math.pow(r, skew) for r in range(1, population + 1)]
        total = math.fsum(weights)
        self._alias, self._prob = self._build_alias(
            [w / total for w in weights]
        )
        # Map popularity ranks onto key indices in a shuffled order so hot
        # keys are not clustered in adjacent hash buckets.
        if not shuffle:
            self._rank_to_key: List[int] = list(range(population))
        elif seed is None:
            # Nondeterministic mode: derive the shuffle from the
            # entropy-seeded sampler RNG, not from a second entropy pull.
            self._rank_to_key = _shuffled(population, self._rng.getrandbits(32))
        else:
            self._rank_to_key = _shuffled(population, seed)

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


def _shuffled(population: int, seed: int) -> List[int]:
    """``numpy.random.RandomState(seed).shuffle(numpy.arange(population))``,
    bit for bit: MT19937 seeded by ``init_genrand(seed)``, then a
    Fisher-Yates pass from the top, each ``j`` drawn by masked rejection
    from 32-bit outputs.  ``seed`` is refused as ``RandomState`` refuses it:
    ``TypeError`` if not an integer, ``ValueError`` outside [0, 2**32)."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise TypeError(f"shuffle seed must be an integer: {seed!r}") from None
    if not 0 <= seed < 1 << 32:
        raise ValueError(f"shuffle seed must be in [0, 2**32): {seed}")
    key = [seed]
    for i in range(1, 624):
        prev = key[-1]
        key.append((1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF)
    mt = random.Random()
    mt.setstate((3, (*key, 624), None))  # 624: regenerate at the first draw
    bits = mt.getrandbits
    keys = list(range(population))
    for i in range(population - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        j = bits(32) & mask
        while j > i:
            j = bits(32) & mask
        keys[i], keys[j] = keys[j], keys[i]
    return keys
