"""The verdict rule of ``tools/ab_pairs.py`` (choosing-metrics, section 8)."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parent.parent


@pytest.fixture(scope="module")
def ab_pairs():
    spec = importlib.util.spec_from_file_location(
        "ab_pairs", ROOT / "tools" / "ab_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [1000, 1040, 980, 1010, 1030, 990, 1020, 1000, 1015, 1005]


def judge(ab_pairs, change, parent=PARENT, bound=0.25):
    return ab_pairs.verdict(parent, change, bound)


class TestVerdict:
    def test_gain_needs_nine_of_ten_pairs_and_a_gap_beyond_the_iqr(self, ab_pairs):
        result = judge(ab_pairs, [p * 1.3 for p in PARENT])
        assert result["verdict"] == "GAIN"
        assert result["wins"] == 10 and result["losses"] == 0
        assert result["ratio"] == pytest.approx(1.3)

    def test_nine_wins_and_one_loss_is_still_a_gain(self, ab_pairs):
        change = [p * 1.3 for p in PARENT]
        change[3] = PARENT[3] - 1
        assert judge(ab_pairs, change)["verdict"] == "GAIN"

    def test_eight_wins_is_not(self, ab_pairs):
        change = [p * 1.3 for p in PARENT]
        change[3] = PARENT[3] - 1
        change[4] = PARENT[4] - 1
        assert judge(ab_pairs, change)["verdict"] == "NO CHANGE"

    def test_a_tie_counts_for_neither_side(self, ab_pairs):
        change = [p * 1.3 for p in PARENT]
        change[0] = PARENT[0]
        change[1] = PARENT[1]
        result = judge(ab_pairs, change)
        assert (result["wins"], result["losses"]) == (8, 0)
        assert result["verdict"] == "NO CHANGE"

    def test_a_gap_inside_the_parents_own_spread_is_not_a_gain(self, ab_pairs):
        # Ahead in every pair, but by less than the parent's runs differ
        # from each other.
        result = judge(ab_pairs, [p + 5 for p in PARENT])
        assert result["wins"] == 10
        assert result["parent_iqr"] > 5
        assert result["verdict"] == "NO CHANGE"

    def test_regressed_beyond_the_bound(self, ab_pairs):
        assert judge(ab_pairs, [p * 0.7 for p in PARENT])["verdict"] == "REGRESSED"
        assert judge(ab_pairs, [p * 0.8 for p in PARENT])["verdict"] == "NO CHANGE"

    def test_unresolved_when_the_parent_spreads_wider_than_the_bound(self, ab_pairs):
        noisy = [1000, 400, 1600, 700, 1300, 1000, 500, 1500, 900, 1100]
        change = [p - 10 for p in noisy]
        assert judge(ab_pairs, change, parent=noisy)["verdict"] == "UNRESOLVED"
        # ... unless the change never reads worse.
        change = [p + 10 for p in noisy]
        assert judge(ab_pairs, change, parent=noisy)["verdict"] == "NO CHANGE"

    def test_fewer_than_ten_pairs_never_claim_a_gain(self, ab_pairs):
        result = judge(ab_pairs, [1300.0], parent=[1000.0])
        assert result["parent_iqr"] == 0 and result["verdict"] == "UNRESOLVED"
        nine = PARENT[:9]
        assert judge(
            ab_pairs, [p * 1.3 for p in nine], parent=nine
        )["verdict"] == "UNRESOLVED"

    def test_unpaired_runs_are_rejected(self, ab_pairs):
        with pytest.raises(ValueError):
            judge(ab_pairs, [1.0, 2.0], parent=[1.0])
        with pytest.raises(ValueError):
            judge(ab_pairs, [], parent=[])
