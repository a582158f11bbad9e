"""Unit tests for the power model and report rendering."""

import pytest

from repro.analysis import (
    PowerModel,
    SystemComparison,
    TABLE3_SYSTEMS,
    format_series,
    format_table,
)
from repro.analysis.power import kvdirect_row


class TestPowerModel:
    def test_peak_watts_matches_paper(self):
        model = PowerModel()
        assert model.peak_watts == pytest.approx(121.0, abs=1.0)

    def test_efficiency_milestone(self):
        """Section 5.2.3: 'the first general-purpose KVS system to achieve
        1 million KV operations per watt on commodity servers.'"""
        model = PowerModel()
        kops_per_watt = model.efficiency_kops_per_watt(180e6, wall=True)
        assert kops_per_watt > 1000.0

    def test_incremental_efficiency_10x(self):
        model = PowerModel()
        wall = model.efficiency_kops_per_watt(180e6, wall=True)
        incremental = model.efficiency_kops_per_watt(180e6, wall=False)
        assert incremental > 3 * wall

    def test_multi_nic_watts(self):
        model = PowerModel()
        assert model.multi_nic_watts(10) == pytest.approx(87.0 + 340.0)


class TestTable3:
    def test_rows_present(self):
        names = {row.name for row in TABLE3_SYSTEMS}
        assert "MemC3" in names
        assert "MICA" in names
        assert "FaRM" in names

    def test_kvdirect_beats_cpu_efficiency_3x(self):
        """The paper's 3x power-efficiency claim against CPU systems."""
        kvd = kvdirect_row(throughput_ops=180e6)
        mica = next(r for r in TABLE3_SYSTEMS if r.name == "MICA")
        assert kvd.kops_per_watt > 3 * mica.kops_per_watt

    def test_ten_nics_order_of_magnitude(self):
        """1.22 GOps with 10 NICs is ~9x MICA's 137 Mops."""
        kvd10 = kvdirect_row(throughput_ops=1.22e9, nic_count=10)
        mica = next(r for r in TABLE3_SYSTEMS if r.name == "MICA")
        assert kvd10.throughput_ops / mica.throughput_ops > 8.0

    def test_comparison_row_math(self):
        row = SystemComparison("X", 1e6, 100.0)
        assert row.kops_per_watt == pytest.approx(10.0)


class TestReportRendering:
    def test_format_table(self):
        out = format_table(
            "Table T", ["a", "b"], [[1, 2.5], ["x", 1234.0]]
        )
        assert "Table T" in out
        assert "2.500" in out
        assert "1,234" in out

    def test_format_series(self):
        out = format_series(
            "Figure F",
            "size",
            [10, 20],
            [("get", [1.0, 2.0]), ("put", [3.0])],
        )
        assert "Figure F" in out
        assert "size" in out
        assert "get" in out and "put" in out

    def test_alignment_no_crash_on_empty(self):
        out = format_table("Empty", ["col"], [])
        assert "col" in out
