"""Unit tests for counters, histograms, and running statistics."""

import copy
import math
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.sim import Counter, Histogram, RunningStats
from repro.sim import stats
from repro.sim.stats import gbps, mops
from tests.ref_histogram import ListSortHistogram, RefHistogram


class TestCounter:
    def test_add_and_get(self):
        counter = Counter()
        counter.add("reads")
        counter.add("reads", 4)
        assert counter.get("reads") == 5
        assert counter["reads"] == 5

    def test_missing_is_zero(self):
        counter = Counter()
        assert counter.get("nothing") == 0
        assert "nothing" not in counter

    def test_reset(self):
        counter = Counter()
        counter.add("x", 10)
        counter.reset()
        assert counter.get("x") == 0

    def test_snapshot_is_copy(self):
        counter = Counter()
        counter.add("x")
        snap = counter.snapshot()
        counter.add("x")
        assert snap == {"x": 1}
        assert counter.get("x") == 2

    def test_record_max_keeps_high_watermark(self):
        counter = Counter()
        counter.record_max("peak", 3)
        counter.record_max("peak", 7)
        counter.record_max("peak", 5)
        assert counter["peak"] == 7

    def test_record_max_on_fresh_key(self):
        counter = Counter()
        counter.record_max("peak", 2)
        assert counter["peak"] == 2
        # Values at or below the floor never regress the watermark.
        counter.record_max("peak", 0)
        assert counter["peak"] == 2

    def test_record_max_first_call_materializes_any_value(self):
        """Regression: the first call must record even 0 or a negative
        level - an idle run reports the gauge at 0, not a missing key."""
        counter = Counter()
        counter.record_max("idle_peak", 0)
        assert "idle_peak" in counter.snapshot()
        assert counter["idle_peak"] == 0
        counter.record_max("level", -3)
        assert counter["level"] == -3
        counter.record_max("level", -1)
        assert counter["level"] == -1

    def test_reading_a_missing_name_does_not_create_it(self):
        """A name shows up in ``snapshot()`` - and so in every export -
        only once something counted it; looking is not counting."""
        counter = Counter()
        assert counter["n"] == 0
        assert counter.get("n") == 0
        assert "n" not in counter
        assert counter.snapshot() == {} and len(counter) == 0

    def test_in_place_add_is_add(self):
        """``counters["x"] += n`` is what the hot sites write instead of
        ``add("x", n)``: same value, same materialisation - of ``+= 0``
        too, which is how a counted zero reaches the snapshot."""
        by_call, in_place = Counter(), Counter()
        by_call.add("x")
        by_call.add("x", 4)
        by_call.add("zero", 0)
        in_place["x"] += 1
        in_place["x"] += 4
        in_place["zero"] += 0
        assert in_place == by_call
        assert in_place.snapshot() == {"x": 5, "zero": 0}

    def test_snapshot_is_a_plain_dict_in_first_touch_order(self):
        counter = Counter()
        counter["b"] += 1
        counter.add("a")
        counter.record_max("c", 0)
        counter["b"] += 1
        snap = counter.snapshot()
        assert type(snap) is dict
        assert list(snap.items()) == [("b", 2), ("a", 1), ("c", 0)]
        counter.reset()
        counter["a"] += 1
        assert list(counter.snapshot()) == ["a"]  # order restarts too

    def test_record_max_on_an_idle_gauge_keeps_reading_zero(self):
        counter = Counter()
        assert counter["peak"] == 0  # a look before the first record
        counter.record_max("peak", -2)
        assert counter.snapshot() == {"peak": -2}

    def test_the_registry_still_takes_it_for_a_counter(self):
        from repro.obs import MetricsRegistry

        counter = Counter()
        registry = MetricsRegistry()
        registry.register("layer", counter)
        assert registry.collect() == {}
        counter["ops"] += 3
        assert registry.collect() == {"layer.ops": 3}
        assert "# TYPE kvdirect_layer counter" in registry.to_prometheus()


class TestRunningStats:
    def test_mean_min_max(self):
        stats = RunningStats()
        for v in (2.0, 4.0, 6.0):
            stats.record(v)
        assert stats.mean == pytest.approx(4.0)
        assert stats.minimum == 2.0
        assert stats.maximum == 6.0
        assert stats.count == 3

    def test_variance(self):
        stats = RunningStats()
        for v in (1.0, 2.0, 3.0, 4.0):
            stats.record(v)
        assert stats.variance == pytest.approx(1.25)

    def test_empty(self):
        stats = RunningStats()
        assert stats.mean == 0.0
        assert stats.variance == 0.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    def test_mean_matches_naive(self, values):
        stats = RunningStats()
        for v in values:
            stats.record(v)
        assert stats.mean == pytest.approx(sum(values) / len(values), abs=1e-6)


class TestHistogram:
    def test_percentiles_on_known_data(self):
        hist = Histogram()
        hist.extend(range(1, 101))  # 1..100
        assert hist.percentile(0) == 1
        assert hist.percentile(100) == 100
        assert hist.percentile(50) == pytest.approx(50.5)
        assert hist.percentile(95) == pytest.approx(95.05)

    def test_single_sample(self):
        hist = Histogram()
        hist.record(7.0)
        assert hist.percentile(0) == 7.0
        assert hist.percentile(50) == 7.0
        assert hist.percentile(100) == 7.0

    def test_empty_errors(self):
        hist = Histogram()
        with pytest.raises(ValueError):
            hist.percentile(50)
        with pytest.raises(ValueError):
            hist.mean()

    def test_empty_min_max_raise_value_error(self):
        # Regression: these used to leak a bare IndexError from the
        # underlying list instead of the ValueError the rest of the
        # empty-histogram surface raises.
        hist = Histogram()
        with pytest.raises(ValueError, match="empty histogram"):
            hist.min()
        with pytest.raises(ValueError, match="empty histogram"):
            hist.max()

    def test_out_of_range_pct(self):
        hist = Histogram()
        hist.record(1.0)
        with pytest.raises(ValueError):
            hist.percentile(101)
        with pytest.raises(ValueError):
            hist.percentile(-1)

    def test_record_after_percentile(self):
        hist = Histogram()
        hist.extend([3.0, 1.0])
        assert hist.min() == 1.0
        hist.record(0.5)
        assert hist.min() == 0.5

    def test_recording_after_a_percentile_read_re_sorts(self):
        hist = Histogram()
        for value in (5.0, 1.0, 3.0):
            hist.record(value)
        assert hist.percentile(50) == 3.0
        hist.record(0.0)
        hist.record(9.0)
        assert hist.min() == 0.0 and hist.max() == 9.0
        assert hist.percentile(50) == 3.0
        assert hist.samples().tolist() == [0.0, 1.0, 3.0, 5.0, 9.0]

    def test_samples_keep_insertion_order(self):
        hist = Histogram()
        for value in (4.0, 2.0, 8.0):
            hist.record(value)
        assert hist.samples().tolist() == [4.0, 2.0, 8.0]
        hist.record(1.0)
        hist.extend([6.0, 0.5])
        assert hist.samples().tolist() == [4.0, 2.0, 8.0, 1.0, 6.0, 0.5]
        assert hist.count == 6
        # Left fold in insertion order, before any sort.
        assert hist.mean() == sum([4.0, 2.0, 8.0, 1.0, 6.0, 0.5]) / 6

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy])
    @pytest.mark.parametrize("materialized", [False, True])
    def test_a_copy_is_an_independent_histogram(self, copier, materialized):
        """``record`` is the staging list's bound ``append``: a copy must
        record into its own list, not the original's."""
        original = Histogram()
        original.extend([3.0, 1.0, 2.0])
        expected = [3.0, 1.0, 2.0]
        if materialized:
            assert original.percentile(50) == 2.0  # sorts the array in place
            original.record(7.0)
            expected = [1.0, 2.0, 3.0, 7.0]
        clone = copier(original)
        clone.record(100.0)
        original.record(50.0)
        assert original.samples().tolist() == expected + [50.0]
        assert clone.samples().tolist() == expected + [100.0]
        # Sorting one in place leaves the other's order alone.
        assert clone.min() == 1.0
        assert original.samples().tolist() == expected + [50.0]

    @given(
        st.lists(
            st.floats(0, 1e9, allow_subnormal=False),
            min_size=1,
            max_size=300,
        )
    )
    def test_percentile_bounds(self, values):
        hist = Histogram()
        hist.extend(values)
        p50 = hist.percentile(50)
        assert min(values) <= p50 <= max(values)

    @given(
        st.lists(
            st.floats(0, 1e6, allow_subnormal=False),
            min_size=2,
            max_size=100,
        ),
        st.floats(0, 100),
    )
    @example(values=[524289.0, 524290.0], pct=9.90280672211611e-15)
    def test_percentile_monotone_in_pct(self, values, pct):
        hist = Histogram()
        hist.extend(values)
        assert hist.percentile(pct) <= hist.percentile(100)
        assert hist.percentile(0) <= hist.percentile(pct)

    def test_an_interpolation_that_rounds_below_its_bracket_is_clamped(self):
        hist = Histogram()
        hist.extend([524289.0, 524290.0])
        assert hist.percentile(9.90280672211611e-15) == 524289.0
        assert hist.percentile(50) == 524289.5

    def test_nan_samples_sort_last(self):
        hist = Histogram()
        hist.extend([3.0, math.nan, 1.0, 2.0])
        assert hist.min() == 1.0
        assert hist.samples()[:3].tolist() == [1.0, 2.0, 3.0]
        assert math.isnan(hist.samples()[3]) and math.isnan(hist.max())

    def test_a_sample_takes_eight_bytes(self):
        hist = Histogram()
        hist.extend(float(i) for i in range(1000))
        assert hist._samples.itemsize == 8 and hist.count == 1000


#: Samples: non-negative (numpy's sort may swap -0.0 and 0.0, which
#: compare equal), with the odd NaN to check it sorts last.
_SAMPLE = st.one_of(
    st.floats(0, 1e9, allow_subnormal=False), st.just(math.nan)
)
_GRID = (0, 1e-9, 0.5, 1, 5, 25, 50, 75, 95, 99, 99.9, 100)
_READS = (
    lambda h: [h.percentile(pct) for pct in _GRID],
    lambda h: h.mean(),
    lambda h: h.min(),
    lambda h: h.max(),
)


def _actions(sample, bulk):
    """Up to 40 records, bulk records (of up to ``bulk`` samples), reads
    and copies."""
    return st.lists(
        st.one_of(
            st.tuples(st.just("record"), sample),
            st.tuples(st.just("extend"), st.lists(sample, max_size=bulk)),
            st.tuples(st.just("record_many"), st.lists(sample, max_size=bulk)),
            st.tuples(st.just("read"), st.sampled_from(range(len(_READS)))),
            st.tuples(
                st.just("copy"), st.sampled_from((copy.copy, copy.deepcopy))
            ),
        ),
        max_size=40,
    )


_ACTIONS = _actions(_SAMPLE, 8)


def _bits(value):
    """A read as comparable bytes: floats bit for bit, NaN included."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    return value


def _read(hist, read):
    try:
        return _bits(read(hist))
    except ValueError as exc:
        return str(exc)


def _play(reference, actions, targets):
    """Run ``actions`` on a :class:`Histogram` and on a ``reference`` one,
    each copy beside its reference's copy, and check that the samples
    (in their order, bit for bit) and every read agree throughout."""
    pairs = [(Histogram(), reference())]
    for (action, arg), target in zip(actions, targets):
        live, ref = pairs[target % len(pairs)]
        if action == "record":
            live.record(arg)
            ref.record(arg)
        elif action == "copy":
            pairs.append((arg(live), arg(ref)))
        elif action == "read":
            assert _bits(list(live.samples())) == _bits(list(ref.samples()))
            assert _read(live, _READS[arg]) == _read(ref, _READS[arg])
        else:
            getattr(live, action)(arg)
            getattr(ref, action)(arg)
        for live, ref in pairs:
            assert live.count == ref.count
            assert _bits(list(live.samples())) == _bits(list(ref.samples()))
    for live, ref in pairs:
        for read in _READS:
            assert _read(live, read) == _read(ref, read)
        assert _bits(list(live.samples())) == _bits(list(ref.samples()))
    return pairs


_TARGETS = st.lists(st.integers(0, 7), min_size=40, max_size=40)


class TestHistogramMatchesTheNumpyReference:
    """The array-backed histogram answers every read as the staging-list
    and numpy one did, bit for bit, across records, bulk records, copies
    and reads that sort in between."""

    @given(_ACTIONS, _TARGETS)
    def test_every_read_matches(self, actions, targets):
        pytest.importorskip("numpy")
        _play(RefHistogram, actions, targets)


#: A NaN with its sign bit set and a payload.
_NEGATIVE_NAN = struct.unpack("<d", b"\x01\0\0\0\0\0\xf8\xff")[0]
#: Equal samples of both signs, in an order a right-first merge changes.
_SIGNED_ZEROS = [
    0.0, -0.0, 1.0, -0.0, math.nan, 0.0, -1.0, 0.0, _NEGATIVE_NAN,
    -0.0, 0.0, -0.0, 2.0, 0.0,
]
#: Any float: signed zeros, infinities, NaNs of either sign, subnormals,
#: and a few small integers, so that many samples tie.
_ANY_SAMPLE = st.one_of(
    st.sampled_from(
        (0.0, -0.0, math.inf, -math.inf, math.nan, _NEGATIVE_NAN, 5e-324)
    ),
    st.floats(-1e-307, 1e-307),
    st.integers(-3, 3).map(float),
    st.floats(),
)


class TestTheBlockSortIsTheListSort:
    """The in-place block sort leaves the array as ``list.sort()`` of its
    non-NaN samples followed by its NaNs in their order, byte for byte,
    and every read as the list-sorting histogram gave it.  Blocks of 1 to
    8 samples make small inputs merge across many blocks."""

    @pytest.mark.parametrize("block", [1, 2, 3, 8])
    @given(actions=_actions(_ANY_SAMPLE, 24), targets=_TARGETS)
    @example(
        actions=[("extend", _SIGNED_ZEROS), ("read", 2), ("record", -0.0)],
        targets=[0] * 40,
    )
    def test_every_read_and_every_byte_matches(self, block, actions, targets):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stats, "_BLOCK", block)
            # The closing reads sorted every pair that holds samples.
            for live, ref in _play(ListSortHistogram, actions, targets):
                assert live._samples.tobytes() == ref._samples.tobytes()


class TestRates:
    def test_mops(self):
        # 1000 ops in 1000 ns = 1 Gops = 1000 Mops
        assert mops(1000, 1000.0) == pytest.approx(1000.0)
        # 180 ops in 1000 ns = 180 Mops
        assert mops(180, 1000.0) == pytest.approx(180.0)

    def test_mops_zero_time(self):
        assert mops(100, 0.0) == 0.0

    def test_gbps(self):
        # 64 bytes in 8 ns = 8 GB/s
        assert gbps(64, 8.0) == pytest.approx(8.0)
