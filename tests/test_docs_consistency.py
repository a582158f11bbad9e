"""Documentation-to-code consistency checks.

DESIGN.md's per-experiment index and the benchmark suite must stay in
sync, and so must its config table and ``KVDirectConfig``; the README's
architecture tree must list real packages.
"""

import dataclasses
import pathlib
import re

import pytest

from repro import constants
from repro.core.config import KVDirectConfig

ROOT = pathlib.Path(__file__).parent.parent


def read(name):
    return (ROOT / name).read_text()


class TestDesignIndex:
    def test_every_referenced_bench_exists(self):
        design = read("DESIGN.md")
        referenced = set(re.findall(r"bench_\w+\.py", design))
        assert referenced, "DESIGN.md lost its experiment index"
        for name in referenced:
            assert (ROOT / "benchmarks" / name).exists(), name

    def test_every_bench_is_indexed(self):
        design = read("DESIGN.md")
        on_disk = {
            p.name for p in (ROOT / "benchmarks").glob("bench_*.py")
        }
        referenced = set(re.findall(r"bench_\w+\.py", design))
        assert on_disk <= referenced, on_disk - referenced

    def test_every_figure_and_table_covered(self):
        """All evaluation figures (3, 6, 9-17) and tables (2-4) have a
        bench file."""
        on_disk = {p.name for p in (ROOT / "benchmarks").glob("bench_*.py")}
        needed = {
            "bench_fig03_pcie.py",
            "bench_fig06_inline.py",
            "bench_fig09_hashratio.py",
            "bench_fig10_tuning.py",
            "bench_fig11_tables.py",
            "bench_fig12_merge.py",
            "bench_fig13_ooo.py",
            "bench_fig14_dispatch.py",
            "bench_fig15_batching.py",
            "bench_fig16_ycsb.py",
            "bench_fig17_latency.py",
            "bench_tab2_vector.py",
            "bench_tab3_comparison.py",
            "bench_tab4_cpu_impact.py",
            "bench_multinic.py",
        }
        assert needed <= on_disk


def _table_names(markdown, heading):
    """The backticked first-column names of the table under ``heading``."""
    section = markdown.split(heading, 1)[1].split("\n#", 1)[0]
    return re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)


class TestDesignConfigTable:
    def test_config_table_names_exactly_the_fields(self):
        """A field added, removed or renamed without its row fails here."""
        names = _table_names(read("DESIGN.md"), "### `KVDirectConfig` fields")
        fields = [f.name for f in dataclasses.fields(KVDirectConfig)]
        assert sorted(names) == sorted(fields)

    def test_retired_fields_name_their_constants(self):
        design = read("DESIGN.md")
        retired = _table_names(design, "### Retired fields")
        fields = {f.name for f in dataclasses.fields(KVDirectConfig)}
        assert retired and not fields & set(retired)
        section = design.split("### Retired fields", 1)[1].split("\n#", 1)[0]
        for name in re.findall(r"`([A-Z][A-Z0-9_]+)`", section):
            assert hasattr(constants, name), name


class TestReadme:
    def test_architecture_tree_lists_real_packages(self):
        readme = read("README.md")
        for package in (
            "sim", "pcie", "dram", "network", "memory", "core",
            "baselines", "workloads", "client", "multi", "analysis",
        ):
            assert f"{package}/" in readme
            assert (ROOT / "src" / "repro" / package / "__init__.py").exists()

    def test_examples_table_matches_disk(self):
        readme = read("README.md")
        for example in (ROOT / "examples").glob("*.py"):
            assert example.name in readme, example.name

    def test_headline_claims_reference_experiments(self):
        readme = read("README.md")
        assert "EXPERIMENTS.md" in readme
        assert "DESIGN.md" in readme


class TestExperimentsRecord:
    def test_every_figure_section_present(self):
        experiments = read("EXPERIMENTS.md")
        for figure in (3, 6, 9, 10, 11, 12, 13, 14, 15, 16, 17):
            assert f"Figure {figure}" in experiments, figure
        for table in (2, 3, 4):
            assert f"Table {table}" in experiments, table

    def test_divergences_documented(self):
        experiments = read("EXPERIMENTS.md")
        assert "Known divergences" in experiments
