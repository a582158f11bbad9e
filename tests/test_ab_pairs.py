"""The verdict rule of ``tools/ab_pairs.py`` (choosing-metrics, section 8)."""

import importlib.util
import pathlib
import shutil
import subprocess

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

    def test_lower_is_better_turns_the_verdict_round(self, ab_pairs):
        """``setup_s`` and ``peak_rss_mib`` are better lower: a drop is a
        gain, a rise beyond the bound a regression."""
        assert ab_pairs.verdict(
            PARENT, [p * 0.6 for p in PARENT], 0.1, "lower"
        )["verdict"] == "GAIN"
        result = ab_pairs.verdict(PARENT, [p * 1.2 for p in PARENT], 0.1,
                                  "lower")
        assert (result["verdict"], result["losses"]) == ("REGRESSED", 10)
        assert ab_pairs.verdict(
            PARENT, [p * 1.05 for p in PARENT], 0.1, "lower"
        )["verdict"] == "NO CHANGE"
        with pytest.raises(ValueError):
            ab_pairs.verdict(PARENT, PARENT, 0.1, "sideways")

    def test_unpaired_runs_are_rejected(self, ab_pairs):
        with pytest.raises(ValueError):
            judge(ab_pairs, [1.0, 2.0], parent=[1.0])
        with pytest.raises(ValueError):
            judge(ab_pairs, [], parent=[])


@pytest.fixture
def checkouts(tmp_path):
    """Two checkouts with no bytecode caches; the parent only supplies
    BENCHMARK.json, since the runs are faked."""
    for side in ("parent", "change"):
        (tmp_path / side / "src").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "parent")
    return tmp_path / "parent", tmp_path / "change"


def _result(ab_pairs, calls, **host_rows):
    """A run.py result line with every row the tool reads."""
    rows = dict.fromkeys(ab_pairs.EXACT_ROWS, 1.0)
    rows.update(
        sim_ops_per_wall_s=1000.0, host_calls_per_op=calls,
        setup_s=1.0, peak_rss_mib=100.0,
    )
    rows.update(host_rows)
    return {
        "correct": True, "failed": 0,
        "metrics": {name: {"value": value} for name, value in rows.items()},
    }


class TestCountRule:
    """``host_calls_per_op`` repeats exactly per seed, so it is judged per
    pair against its BENCHMARK.json bound, not by medians."""

    def test_count_worse_only_beyond_the_bound(self, ab_pairs):
        assert not ab_pairs.count_worse(366.29, 336.34, 0.08)
        assert not ab_pairs.count_worse(366.29, 366.29, 0.08)
        assert not ab_pairs.count_worse(100.0, 108.0, 0.08)
        assert ab_pairs.count_worse(100.0, 108.1, 0.08)

    @pytest.fixture(autouse=True)
    def sides(self, checkouts):
        self.parent, self.change = map(str, checkouts)

    def _main(self, ab_pairs, monkeypatch, capsys, change_calls, argv=(),
              change_rows=lambda workload: {}):
        def fake_run(checkout, workload, seed, seconds):
            if checkout == self.change:
                return _result(
                    ab_pairs, change_calls(workload), **change_rows(workload)
                )
            return _result(ab_pairs, 100.0)

        monkeypatch.setattr(ab_pairs, "run_once", fake_run)
        code = ab_pairs.main([self.parent, self.change, "--pairs", "3", *argv])
        return code, capsys.readouterr().out

    def test_every_workload_is_judged_by_default(
        self, ab_pairs, monkeypatch, capsys
    ):
        code, out = self._main(ab_pairs, monkeypatch, capsys, lambda w: 90.0)
        assert code == 0
        verdicts = [
            line.split()[0] for line in out.splitlines()
            if "sim_ops_per_wall_s: " in line
        ]
        assert verdicts == [
            "point-direct", "net-sharded", "scan-ordered", "cluster-failover",
        ]
        assert "ABOVE" not in out

    def test_more_calls_on_one_workload_fails_the_run(
        self, ab_pairs, monkeypatch, capsys
    ):
        code, out = self._main(
            ab_pairs, monkeypatch, capsys,
            lambda w: 120.0 if w == "scan-ordered" else 100.0,
        )
        assert code == 1
        above = [line for line in out.splitlines() if "ABOVE" in line]
        assert len(above) == 1 and above[0].startswith("scan-ordered ")

    def test_one_named_workload(self, ab_pairs, monkeypatch, capsys):
        code, out = self._main(
            ab_pairs, monkeypatch, capsys, lambda w: 100.0,
            argv=("--workload", "net-sharded"),
        )
        assert code == 0
        assert out.count("sim_ops_per_wall_s: ") == 1
        assert "point-direct" not in out

    @pytest.mark.parametrize("row,value,code,word", [
        ("peak_rss_mib", 120.0, 1, "REGRESSED"),
        ("setup_s", 1.3, 1, "REGRESSED"),
        ("peak_rss_mib", 60.0, 0, "UNRESOLVED"),
        ("setup_s", 1.05, 0, "NO CHANGE"),
    ])
    def test_setup_and_rss_are_judged_in_their_direction(
        self, ab_pairs, monkeypatch, capsys, row, value, code, word
    ):
        """Regression: a setup or RSS rise only printed a median and the
        run exited 0.  Three pairs cannot claim the drop they show."""
        got, out = self._main(
            ab_pairs, monkeypatch, capsys, lambda w: 100.0,
            argv=("--workload", "net-sharded"),
            change_rows=lambda w: {row: value},
        )
        assert got == code
        assert f"net-sharded {row}: {word} " in out
        assert "net-sharded sim_ops_per_wall_s: NO CHANGE " in out


class TestLikeWithLike:
    """Both sides import ``repro`` from source: cached bytecode took its
    import from 4.1 to 3.0 MiB, so a cache on one side only moved
    ``peak_rss_mib`` by about as much as a footprint change does."""

    def test_runs_write_no_bytecode(self, ab_pairs, monkeypatch):
        seen = {}

        def fake_run(argv, cwd, env, **kwargs):
            seen.update(cwd=cwd, env=env)
            return subprocess.CompletedProcess(argv, 0, 'table\n{"a": 1}\n')

        monkeypatch.setattr(ab_pairs.subprocess, "run", fake_run)
        assert ab_pairs.run_once("there", "net-sharded", 7, 1.0) == {"a": 1}
        assert seen["cwd"] == "there"
        assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"

    @pytest.mark.parametrize("side,where", [
        ("change", "src/repro/dram"), ("parent", "benchmarks/e2e"),
    ])
    def test_a_checkout_holding_cached_bytecode_is_refused(
        self, ab_pairs, monkeypatch, capsys, checkouts, side, where
    ):
        """Refused before any run, naming the directory: exit 2."""
        parent, change = checkouts
        cache = (parent if side == "parent" else change) / where / "__pycache__"
        cache.mkdir(parents=True)
        monkeypatch.setattr(ab_pairs, "run_once", None)  # any run raises
        code = ab_pairs.main([str(parent), str(change), "--pairs", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert str(cache) in captured.err
