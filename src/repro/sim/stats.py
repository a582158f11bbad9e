"""Measurement utilities: counters, histograms, running statistics.

Every hardware model exposes its behaviour through these so benchmarks can
report the same quantities the paper plots (throughput in Mops, latency
percentiles, memory accesses per operation).  The per-event paths cost no
Python frame: a :class:`Counter` bump is two dict operations and a
:class:`Histogram` sample one builtin ``array.append`` into 8 bytes.  A
read that needs order sorts the samples in place, a block at a time, so
it never holds a Python float per sample.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable

#: Samples a histogram sort holds as Python floats at once: it sorts the
#: array in blocks this long and merges two runs a window this long each.
_BLOCK = 4096


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


class Histogram:
    """A sample collection with exact percentiles.

    Stores raw samples (the simulation scales are small enough); computes
    percentiles by interpolation, matching ``numpy.percentile``'s default.

    The samples live in one ``array("d")``, 8 bytes each, and :attr:`record`
    *is* that array's bound ``append``: a sample costs one builtin call and
    no Python frame.  The array holds the samples in their current order:
    insertion order, until a read that needs order (a percentile, ``min``,
    ``max``) sorts it in place, NaN last as ``numpy.sort`` puts it;
    later samples append after the sorted run and the next such read sorts
    again.  The sort (:func:`_sort`) is ``list.sort()``'s, bit for bit,
    done in place: it holds a block of :data:`_BLOCK` floats at a time and
    a copy of one run, about 4 bytes per sample at most, never a Python
    float per sample.  ``mean`` is the left-fold sum in the current order,
    and the percentile interpolation is one IEEE expression, clamped into
    the two samples it interpolates.

    ``copy.copy`` and ``copy.deepcopy`` give an independent histogram
    whose ``record`` appends to its own array (a bound builtin would
    otherwise be copied as is, still appending to the original's).
    """

    __slots__ = ("_samples", "_sorted", "record")

    def __init__(self) -> None:
        self._samples = array("d")
        #: ``record(value)``: store one sample.
        self.record = self._samples.append
        #: The sample count at the last sort: the array is in sorted order
        #: while its length still equals this.
        self._sorted = 0

    def __copy__(self) -> "Histogram":
        clone = type(self)()
        clone._samples.extend(self._samples)
        clone._sorted = self._sorted
        return clone

    def __deepcopy__(self, memo) -> "Histogram":
        return self.__copy__()

    def extend(self, values: Iterable[float]) -> None:
        self._samples.extend(values)

    #: Bulk-record any iterable of numbers (a shard merge of ``samples()``).
    record_many = extend

    def samples(self) -> array:
        """The raw samples in their current order: an ``array("d")`` copy,
        8 B a sample, that another histogram's ``record_many`` takes in C."""
        return self._samples[:]

    @property
    def count(self) -> int:
        return len(self._samples)

    def _ensure_sorted(self) -> array:
        samples = self._samples
        if self._sorted != len(samples):
            _sort(samples)
            self._sorted = len(samples)
        return samples

    def percentile(self, pct: float) -> float:
        """Linear-interpolated percentile; ``pct`` in [0, 100]."""
        if not self._samples:
            raise ValueError("percentile of empty histogram")
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile out of range: {pct}")
        arr = self._ensure_sorted()
        n = len(arr)
        if n == 1:
            return arr[0]
        rank = (pct / 100.0) * (n - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        lo = arr[low]
        hi = arr[high]
        if low == high or lo == hi:
            return lo
        frac = rank - low
        value = lo * (1 - frac) + hi * frac
        # Rounding can land a hair outside [lo, hi]; clamp with
        # comparisons, which leave a value inside the bracket as it is.
        if value < lo:
            return lo
        if value > hi:
            return hi
        return value

    def mean(self) -> float:
        samples = self._samples
        if not samples:
            raise ValueError("mean of empty histogram")
        # Left-fold sum in current sample order, exactly as sum(list)/n did.
        return sum(samples) / len(samples)

    def min(self) -> float:
        if not self._samples:
            raise ValueError("min of empty histogram")
        return self._ensure_sorted()[0]

    def max(self) -> float:
        if not self._samples:
            raise ValueError("max of empty histogram")
        return self._ensure_sorted()[-1]


def _sort(samples: array) -> None:
    """Sort ``samples`` in place as ``list.sort()`` sorts its non-NaN
    values, then the NaNs in their current order, as numpy sorts.

    The NaNs move out first, so that the blocks align on the non-NaN
    samples alone.  Each block of :data:`_BLOCK` is sorted through a list
    and written back; :func:`_merge` then joins the blocks, ties in the
    left run first, so the result is one stable sort of the whole
    (``-0.0`` and ``0.0`` keep their order, as in ``list.sort()``).
    """
    count = len(samples)
    nans = array("d")
    total = sum(samples)
    if total != total:  # a NaN, or both infinities: move the NaNs out
        count = 0
        for start in range(0, len(samples), _BLOCK):
            block = samples[start:start + _BLOCK].tolist()
            numbers = [x for x in block if x == x]
            nans.extend([x for x in block if x != x])
            samples[count:count + len(numbers)] = array("d", numbers)
            count += len(numbers)
    for start in range(0, count, _BLOCK):
        stop = min(start + _BLOCK, count)
        samples[start:stop] = array("d", sorted(samples[start:stop]))
    _merge(samples, 0, count)
    samples[count:] = nans


def _merge(samples: array, lo: int, hi: int) -> None:
    """Merge ``samples[lo:hi]``, sorted in blocks of :data:`_BLOCK`
    counted from ``lo``, into one sorted run, in place.

    The halves split on a block boundary, the left one holding at most
    half the blocks.  The left half is copied aside, and the output fills
    the slice from ``lo`` without overtaking the right half's unread
    samples.  Each step reads a window of each run.  If the left one ends
    no higher, the right one is cut before the left's last value
    (``bisect_left``: a tie waits behind the left run); otherwise the
    left one is cut after the right's last value (``bisect_right``).  The
    rest of either run is then no lower than the two parts, which sort
    together, left part first (timsort merges the two runs in C).
    """
    blocks = -(-(hi - lo) // _BLOCK)
    if blocks < 2:
        return
    mid = lo + blocks // 2 * _BLOCK
    _merge(samples, lo, mid)
    _merge(samples, mid, hi)
    left = samples[lo:mid]
    i, j, out = 0, mid, lo
    while i < len(left) and j < hi:
        part = left[i:i + _BLOCK].tolist()
        right = samples[j:min(j + _BLOCK, hi)].tolist()
        if part[-1] <= right[-1]:
            del right[bisect_left(right, part[-1]):]
        else:
            del part[bisect_right(part, right[-1]):]
        i += len(part)
        j += len(right)
        part += right
        part.sort()
        samples[out:out + len(part)] = array("d", part)
        out += len(part)
    if i < len(left):  # else the right run's tail already sits in place
        samples[out:hi] = left[i:]


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
