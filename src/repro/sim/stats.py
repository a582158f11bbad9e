"""Measurement utilities: counters, histograms, running statistics.

Every hardware model exposes its behaviour through these so benchmarks can
report the same quantities the paper plots (throughput in Mops, latency
percentiles, memory accesses per operation).  The per-event paths cost no
Python frame: a :class:`Counter` bump is two dict operations and a
:class:`Histogram` sample one builtin ``list.append``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np


class Counter(dict):
    """A named bag of monotonically increasing integer counters.

    A ``dict`` in which a name nothing counted yet reads 0 *without being
    created*: a site with a fixed name counts with ``counters["x"] += n`` -
    two dict operations, no Python frame - and a name appears in
    :meth:`snapshot` (in first-touch order, which the exports compare
    byte for byte) only once something counted it, ``+= 0`` included.
    """

    __slots__ = ()

    def __missing__(self, name: str) -> int:
        return 0

    def add(self, name: str, amount: int = 1) -> None:
        self[name] += amount

    def record_max(self, name: str, value: int) -> None:
        """High-watermark gauge: keep the largest value ever recorded.

        For quantities that are levels rather than event counts (queue
        depths, chain lengths, live allocations) where the interesting
        number is the peak.  The first call always materializes the key,
        so an idle run reports ``0`` (or a negative level) rather than
        omitting the gauge entirely.
        """
        if name not in self or value > self[name]:
            self[name] = value

    def get(self, name: str) -> int:
        return self[name]

    def reset(self) -> None:
        self.clear()

    def snapshot(self) -> Dict[str, int]:
        return dict(self)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.items()))
        return f"Counter({inner})"


class RunningStats:
    """Streaming mean / variance / min / max (Welford's algorithm)."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def record(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "RunningStats") -> None:
        """Fold another RunningStats into this one."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self._mean += delta * other.count / total
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)


class Histogram:
    """A sample collection with exact percentiles.

    Stores raw samples (the simulation scales are small enough); computes
    percentiles by interpolation, matching ``numpy.percentile``'s default.

    Recording appends to a small staging list: :attr:`record` *is* that
    list's bound ``append``, so a sample costs one builtin call and no
    Python frame.  Reads materialize the samples into a float64 array
    (clearing the list in place and marking the array unsorted), which is
    what sorting, percentiles and bulk merges (:meth:`record_many`) operate
    on.  Float semantics are bit-compatible with the historical list
    implementation: ``mean`` is the left-fold sum in the samples' current
    order (insertion order, or sorted order once a percentile forced a
    sort) and percentile interpolation follows the same IEEE expression.

    ``copy.copy`` and ``copy.deepcopy`` give an independent histogram
    whose ``record`` appends to its own list (a bound builtin would
    otherwise be copied as is, still appending to the original's).
    """

    __slots__ = ("_pending", "_arr", "_sorted", "record")

    def __init__(self) -> None:
        self._pending: List[float] = []
        #: ``record(value)``: stage one sample.
        self.record = self._pending.append
        self._arr: Optional[np.ndarray] = None
        self._sorted = True

    def __copy__(self) -> "Histogram":
        clone = type(self)()
        clone._pending.extend(self._pending)
        if self._arr is not None:
            clone._arr = self._arr.copy()
        clone._sorted = self._sorted
        return clone

    def __deepcopy__(self, memo) -> "Histogram":
        return self.__copy__()

    def extend(self, values: Iterable[float]) -> None:
        self._pending.extend(values)

    def record_many(self, values) -> None:
        """Bulk-record an array of samples in one call.

        Accepts any array-like; the vectorized counterpart of
        :meth:`record` for columnar pipelines and shard merges.
        """
        chunk = np.asarray(values, dtype=np.float64)
        if chunk.size == 0:
            return
        if self._arr is None:
            self._arr = chunk.copy()
        else:
            self._materialize()
            self._arr = np.concatenate((self._arr, chunk))
        self._sorted = False

    def _materialize(self) -> np.ndarray:
        """Fold staged samples into the backing array (insertion order)."""
        pending = self._pending
        if pending:
            chunk = np.asarray(pending, dtype=np.float64)
            if self._arr is None:
                self._arr = chunk
            else:
                self._arr = np.concatenate((self._arr, chunk))
            pending.clear()
            self._sorted = False
        elif self._arr is None:
            self._arr = np.empty(0, dtype=np.float64)
        return self._arr

    def samples(self) -> List[float]:
        """The raw samples in their current order (copy)."""
        return self._materialize().tolist()

    def __len__(self) -> int:
        arr = self._arr
        return len(self._pending) + (0 if arr is None else arr.shape[0])

    @property
    def count(self) -> int:
        return len(self)

    def _ensure_sorted(self) -> np.ndarray:
        arr = self._materialize()
        if not self._sorted:
            arr.sort()
            self._sorted = True
        return arr

    def percentile(self, pct: float) -> float:
        """Linear-interpolated percentile; ``pct`` in [0, 100]."""
        if not len(self):
            raise ValueError("percentile of empty histogram")
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile out of range: {pct}")
        arr = self._ensure_sorted()
        n = arr.shape[0]
        if n == 1:
            return float(arr[0])
        rank = (pct / 100.0) * (n - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high or arr[low] == arr[high]:
            return float(arr[low])
        frac = rank - low
        return float(arr[low] * (1 - frac) + arr[high] * frac)

    def median(self) -> float:
        return self.percentile(50.0)

    def mean(self) -> float:
        if not len(self):
            raise ValueError("mean of empty histogram")
        arr = self._materialize()
        # Left-fold sum in current sample order, exactly as sum(list)/n did.
        return sum(arr.tolist()) / arr.shape[0]

    def min(self) -> float:
        if not len(self):
            raise ValueError("min of empty histogram")
        return float(self._ensure_sorted()[0])

    def max(self) -> float:
        if not len(self):
            raise ValueError("max of empty histogram")
        return float(self._ensure_sorted()[-1])

    def cdf(self, points: int = 100) -> List[Tuple[float, float]]:
        """Return ``points`` (value, cumulative fraction) pairs."""
        if not len(self):
            return []
        arr = self._ensure_sorted()
        n = arr.shape[0]
        out = []
        for i in range(points):
            frac = (i + 1) / points
            idx = min(n - 1, int(round(frac * n)) - 1)
            out.append((float(arr[max(0, idx)]), frac))
        return out

    def summary(self) -> Dict[str, float]:
        """Mean and the percentiles the paper quotes (5/50/95/99)."""
        if not len(self):
            return {}
        return {
            "count": float(len(self)),
            "mean": self.mean(),
            "min": self.min(),
            "p5": self.percentile(5),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max(),
        }


def mops(operations: int, elapsed_ns: float) -> float:
    """Throughput in million operations per second."""
    if elapsed_ns <= 0:
        return 0.0
    return operations / elapsed_ns * 1e3


def gbps(nbytes: float, elapsed_ns: float) -> float:
    """Throughput in gigabytes per second."""
    if elapsed_ns <= 0:
        return 0.0
    return nbytes / elapsed_ns


def percentile(samples: Iterable[float], pct: float) -> float:
    """Convenience one-shot percentile over an iterable."""
    hist = Histogram()
    hist.extend(samples)
    return hist.percentile(pct)
