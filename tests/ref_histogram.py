"""Two earlier forms of the latency histogram, the references
:class:`~repro.sim.stats.Histogram` is compared against, read for read
(``tests/test_sim_stats.py``).

``ListSortHistogram`` is the live class with the sort it had before the
block sort: every sample copied into one list of Python floats, sorted
by ``list.sort()``, the NaNs appended in their order.  Its
``_ensure_sorted`` is verbatim.

``RefHistogram`` is the histogram as it was before its samples moved into
an ``array("d")``: a staging list of Python floats folded into a numpy
float64 array on a read.  Verbatim but for three changes.  Two the live
class has too: a percentile is clamped into the two samples it
interpolates, and ``record_many`` folds the staged samples in first, so
a bulk chunk lands after the samples recorded before it (the old code
put it ahead of them when nothing had been read yet; no caller in the
package recorded both ways into one histogram).  And numpy is imported
where it is used, so that this module imports without it.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterable, List, Optional

from repro.sim.stats import Histogram


class ListSortHistogram(Histogram):
    """:class:`Histogram` sorting through one Python float per sample."""

    __slots__ = ()

    def _ensure_sorted(self) -> array:
        samples = self._samples
        if self._sorted != len(samples):
            ordered = [x for x in samples if x == x]
            ordered.sort()
            if len(ordered) != len(samples):  # NaN last, as numpy sorts
                ordered += [x for x in samples if x != x]
            samples[:] = array("d", ordered)
            self._sorted = len(samples)
        return samples


class RefHistogram:
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

    def __copy__(self) -> "RefHistogram":
        clone = type(self)()
        clone._pending.extend(self._pending)
        if self._arr is not None:
            clone._arr = self._arr.copy()
        clone._sorted = self._sorted
        return clone

    def __deepcopy__(self, memo) -> "RefHistogram":
        return self.__copy__()

    def extend(self, values: Iterable[float]) -> None:
        self._pending.extend(values)

    def record_many(self, values) -> None:
        """Bulk-record an array of samples in one call.

        Accepts any array-like; the vectorized counterpart of
        :meth:`record` for columnar pipelines and shard merges.
        """
        import numpy as np

        chunk = np.asarray(values, dtype=np.float64)
        if chunk.size == 0:
            return
        self._arr = np.concatenate((self._materialize(), chunk))
        self._sorted = False

    def _materialize(self) -> np.ndarray:
        """Fold staged samples into the backing array (insertion order)."""
        import numpy as np

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
        value = float(arr[low] * (1 - frac) + arr[high] * frac)
        if value < arr[low]:
            return float(arr[low])
        if value > arr[high]:
            return float(arr[high])
        return value

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

