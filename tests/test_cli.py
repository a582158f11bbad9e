"""Tests for the command-line interface."""

import gc
import io
import warnings

import pytest

from repro.cli import main
from repro.core.hashtable import MAX_KV_SIZE
from repro.core.operations import KVOperation
from repro.workloads.trace import TraceWriter


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestInfo:
    def test_info_lists_constants(self):
        code, output = run_cli("info")
        assert code == 0
        assert "180 MHz" in output
        assert "Gen3 x8" in output
        assert "64 B, 10 slots" in output


class TestYCSB:
    def test_small_run(self):
        code, output = run_cli(
            "ycsb", "--kv-size", "13", "--ops", "300", "--corpus", "500",
            "--memory-mib", "4", "--concurrency", "64",
        )
        assert code == 0
        assert "throughput" in output
        assert "Mops" in output

    def test_zipf_put_mix(self):
        code, output = run_cli(
            "ycsb", "--distribution", "zipf", "--put-ratio", "0.5",
            "--ops", "300", "--corpus", "500", "--memory-mib", "4",
        )
        assert code == 0
        assert "long-tail/50%PUT" in output

    def test_ablation_flags(self):
        code, output = run_cli(
            "ycsb", "--no-ooo", "--no-nic-dram", "--ops", "200",
            "--corpus", "300", "--memory-mib", "4",
        )
        assert code == 0
        assert "cache hit rate" in output


class TestAtomics:
    def test_with_ooo(self):
        code, output = run_cli("atomics", "--keys", "2", "--ops", "400")
        assert code == 0
        assert "out-of-order" in output

    def test_without_ooo(self):
        code, output = run_cli(
            "atomics", "--keys", "1", "--ops", "100", "--no-ooo"
        )
        assert code == 0
        assert "stalling" in output


class TestPCIe:
    def test_read(self):
        code, output = run_cli("pcie", "--payload", "64", "--ops", "500")
        assert code == 0
        assert "DMA read" in output
        assert "p99 latency" in output

    def test_write(self):
        code, output = run_cli(
            "pcie", "--payload", "64", "--ops", "500", "--write"
        )
        assert code == 0
        assert "DMA write" in output


class TestTune:
    def test_tune(self):
        code, output = run_cli(
            "tune", "--kv-size", "30", "--utilization", "0.1",
            "--memory-mib", "1",
        )
        assert code == 0
        assert "optimal hash index ratio" in output

    @pytest.mark.parametrize("value", ["nan", "0", "-1", "1", "1.5"])
    def test_utilization_must_be_a_fraction(self, value, capsys):
        """Regression: each escaped as a ``KVDirectError`` traceback."""
        with pytest.raises(SystemExit) as exited:
            run_cli("tune", "--kv-size", "30", "--utilization", value)
        assert exited.value.code == 2
        assert "fraction between 0 and 1" in capsys.readouterr().err

    def test_an_unreachable_target_is_one_line_and_exit_1(self, capsys):
        """Regression: it escaped as a ``CapacityError`` traceback."""
        code, output = run_cli(
            "tune", "--kv-size", "30", "--utilization", "0.9",
            "--memory-mib", "1",
        )
        assert (code, output) == (1, "")
        assert capsys.readouterr().err == (
            "repro tune: no hash index ratio reaches utilization 0.9 for "
            "30 B KVs\n"
        )


class TestErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            run_cli("nonsense")

    def test_missing_required(self):
        with pytest.raises(SystemExit):
            run_cli("tune", "--kv-size", "30")

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("argv", [
        ("timeline", "--window-ns"),
        ("bench", "run", "--window-ns"),
        ("overload", "--deadline-us"),
        ("soak", "--deadline-us"),
    ])
    def test_time_spans_must_be_finite_and_positive(self, argv, value, capsys):
        """Regression: ``--deadline-us nan`` silently disabled every
        deadline and ``--window-ns nan`` ended the run as a "deadlock";
        ``0`` / ``-1`` windows died in a traceback, not a usage error."""
        with pytest.raises(SystemExit) as exited:
            run_cli(*argv, value)
        assert exited.value.code == 2
        assert "finite number above zero" in capsys.readouterr().err


    @pytest.mark.parametrize("value", ["0", "-3", "2.5", "nan", "x"])
    @pytest.mark.parametrize("command", ["ycsb", "tune", "overload", "range"])
    def test_memory_mib_takes_a_positive_integer(self, command, value, capsys):
        """Regression: ``--memory-mib 0`` and ``-3`` ended in a
        ``ConfigurationError`` traceback."""
        with pytest.raises(SystemExit) as exited:
            run_cli(command, "--memory-mib", value)
        assert exited.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ycsb", "range"])
    def test_a_store_the_os_cannot_reserve_is_one_line_and_exit_1(
        self, command, capsys
    ):
        """Regression: a huge ``--memory-mib`` ended in a MemoryError
        traceback.  2**40 MiB is more than any address space holds."""
        code, output = run_cli(command, "--memory-mib", str(1 << 40))
        assert (code, output) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith(f"repro {command}: host_kvs: cannot reserve ")
        assert str(1 << 60) in err and err.count("\n") == 1


    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        ("pcie", "--ops"),
        ("pcie", "--payload"),
        ("atomics", "--keys"),
        ("atomics", "--ops"),
        ("overload", "--ops"),
        ("ycsb", "--ops"),
        ("ycsb", "--corpus"),
        ("range", "--scans"),
        ("range", "--max-count"),
        ("multinic", "--nics"),
        ("multinic", "--ops"),
        ("multinic", "--corpus"),
        ("multinic", "--concurrency-per-nic"),
        ("timeline", "--shards"),
        ("profile", "--shards"),
        ("range", "--shards"),
        ("range", "--batch-size"),
        ("replay", "unused.kvdt", "--concurrency"),
        ("soak", "--shards"),
        ("soak", "--queue-depth"),
        ("soak", "--slots"),
    ])
    def test_counts_and_sizes_take_a_positive_integer(
        self, argv, value, capsys
    ):
        """Regression: ``pcie --ops 0`` raised "percentile of empty
        histogram", ``atomics --keys 0`` and ``overload --ops 0`` a
        ZeroDivisionError, ``atomics --keys -2`` ran and reported "keys
        -2", ``range --max-count 0`` raised a ValueError from ``randrange``
        and ``multinic --corpus 0`` a ZeroDivisionError.  The shard,
        batch, concurrency, queue and slot counts reached a constructor
        and exited 1."""
        with pytest.raises(SystemExit) as exited:
            run_cli(*argv, value)
        assert exited.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "x"])
    @pytest.mark.parametrize("argv", [
        ("bench", "diff", "a.json", "b.json", "--tolerance"),
        ("profile", "--tolerance"),
    ])
    def test_a_tolerance_is_finite_and_not_negative(
        self, argv, value, capsys
    ):
        """Regression: ``bench diff --tolerance nan`` or ``inf`` passed a
        10x throughput drop, ``-1`` marked unchanged metrics REGRESSED,
        and ``profile --tolerance -1`` failed the audit."""
        with pytest.raises(SystemExit) as exited:
            run_cli(*argv, value)
        assert exited.value.code == 2
        assert "finite number of at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "abc", "nan", "inf",
                                       "1.0,0", ","])
    def test_multipliers_are_finite_and_positive(self, value, capsys):
        """Regression: ``0`` raised a ZeroDivisionError, ``-1`` a
        "deadlock?" SimulationError and ``abc`` a ValueError."""
        with pytest.raises(SystemExit) as exited:
            run_cli("overload", f"--multipliers={value}")
        assert exited.value.code == 2
        assert "--multipliers" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "8"])
    @pytest.mark.parametrize("argv", [
        ("ycsb",),
        ("record", "unused.kvdt"),
        ("tune", "--utilization", "0.5"),
    ])
    def test_a_kv_size_must_exceed_the_key(self, argv, value, capsys):
        """Regression: ``tune --kv-size 0`` raised a KVDirectError and
        ``ycsb --kv-size 0`` a ValueError, after building the store."""
        with pytest.raises(SystemExit) as exited:
            run_cli(*argv, "--kv-size", value)
        assert exited.value.code == 2
        assert "above the 8 B key" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["510", "600"])
    @pytest.mark.parametrize("argv", [
        ("ycsb",),
        ("record", "unused.kvdt"),
        ("tune", "--utilization", "0.5"),
        ("cluster",),
        ("metrics",),
    ])
    def test_a_kv_size_must_fit_the_largest_slab(self, argv, value, capsys):
        """Regression: ``ycsb --kv-size 510`` raised "record of 513 B
        exceeds the 512 B slab" as a KeyTooLargeError traceback, and
        ``record`` wrote a trace that ``replay`` then crashed on."""
        with pytest.raises(SystemExit) as exited:
            run_cli(*argv, "--kv-size", value)
        assert exited.value.code == 2
        assert f"at most {MAX_KV_SIZE} B" in capsys.readouterr().err

    def test_the_largest_slab_kv_runs(self):
        code, output = run_cli(
            "ycsb", "--kv-size", str(MAX_KV_SIZE), "--ops", "200",
            "--corpus", "100", "--put-ratio", "1",
        )
        assert code == 0 and "Mops" in output

    def test_a_traced_kv_no_slab_holds_is_one_line_and_exit_1(
        self, tmp_path, capsys
    ):
        path = str(tmp_path / "big.kvdt")
        with TraceWriter(path) as writer:
            writer.append(KVOperation.put(b"k" * 8, b"v" * 100))
            writer.append(KVOperation.put(b"j" * 8, b"v" * 600, seq=1))
        assert run_cli("replay", path) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("repro replay: record of 611 B exceeds ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", ["1.5", "-0.1", "nan", "x"])
    @pytest.mark.parametrize("argv", [
        ("ycsb",), ("trace",), ("timeline",), ("metrics",),
        ("bench", "run"), ("profile",), ("cluster",),
        ("record", "unused.kvdt"),
    ])
    def test_a_put_ratio_lies_in_0_to_1(self, argv, value, capsys):
        """Regression: ``ycsb --put-ratio 1.5`` (or ``-0.1``, ``nan``)
        raised "put ratio must be in [0, 1]" as a ValueError traceback."""
        with pytest.raises(SystemExit) as exited:
            run_cli(*argv, "--put-ratio", value)
        assert exited.value.code == 2
        assert "put ratio in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_a_put_ratio_of_0_or_1_runs(self, value):
        code, output = run_cli(
            "ycsb", "--put-ratio", value, "--ops", "100", "--corpus", "50"
        )
        assert code == 0 and "Mops" in output

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("option", ["--nodes", "--slots"])
    def test_a_cluster_has_nodes_and_slots(self, option, value, capsys):
        """Regression: ``cluster --nodes 0`` built no cluster and died in
        ``ClusterRouter.perform`` with an AttributeError on ``None``."""
        with pytest.raises(SystemExit) as exited:
            run_cli("cluster", option, value)
        assert exited.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_a_missing_trace_is_one_line_and_exit_1(self, tmp_path, capsys):
        path = str(tmp_path / "absent.kvdt")
        assert run_cli("replay", path) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("repro replay: [Errno 2] ")
        assert path in err and err.count("\n") == 1

    def test_a_truncated_trace_is_one_line_and_exit_1(self, tmp_path, capsys):
        path = tmp_path / "w.kvdt"
        run_cli("record", str(path), "--ops", "50", "--corpus", "20")
        path.write_bytes(path.read_bytes()[:40])
        assert run_cli("replay", str(path)) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("repro replay: trace file truncated")
        assert err.count("\n") == 1


class TestRecordReplay:
    def test_record_then_replay(self, tmp_path):
        path = str(tmp_path / "w.kvdt")
        code, output = run_cli(
            "record", path, "--ops", "200", "--corpus", "100",
            "--load-phase",
        )
        assert code == 0
        assert "Trace recorded" in output
        code, output = run_cli("replay", path, "--memory-mib", "4")
        assert code == 0
        assert "final keys" in output
        assert "100" in output  # the whole corpus survives

    def test_replay_timed(self, tmp_path):
        path = str(tmp_path / "w.kvdt")
        run_cli("record", path, "--ops", "150", "--corpus", "80")
        code, output = run_cli(
            "replay", path, "--timed", "--memory-mib", "4",
            "--concurrency", "32",
        )
        assert code == 0
        assert "Mops" in output


    @pytest.mark.parametrize("timed", [(), ("--timed",)])
    def test_an_empty_trace_is_refused_on_both_paths(
        self, tmp_path, capsys, timed
    ):
        """An empty trace has one meaning: the untimed replay printed
        ``operations 0`` where ``--timed`` refused it."""
        path = str(tmp_path / "empty.kvdt")
        TraceWriter(path).close()
        assert run_cli("replay", path, "--memory-mib", "4", *timed) == (1, "")
        err = capsys.readouterr().err
        assert err == "repro replay: no operations to run\n"

    def test_a_store_the_os_cannot_reserve_leaves_the_trace_closed(
        self, tmp_path, capsys
    ):
        """The trace is opened after the store is built, so a store that
        cannot be reserved leaks no open file."""
        path = str(tmp_path / "w.kvdt")
        run_cli("record", path, "--ops", "20", "--corpus", "10")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, output = run_cli(
                "replay", path, "--memory-mib", str(1 << 40)
            )
            gc.collect()
        assert (code, output) == (1, "")
        assert "cannot reserve" in capsys.readouterr().err
        assert not [
            w for w in caught if issubclass(w.category, ResourceWarning)
        ]


class TestStandardWorkloads:
    def test_ycsb_f(self):
        code, output = run_cli(
            "ycsb", "--standard", "F", "--ops", "300", "--corpus", "200",
            "--memory-mib", "4",
        )
        assert code == 0
        assert "YCSB-F" in output

    def test_ycsb_d(self):
        code, output = run_cli(
            "ycsb", "--standard", "D", "--ops", "300", "--corpus", "200",
            "--memory-mib", "4",
        )
        assert code == 0
        assert "YCSB-D" in output


class TestMetrics:
    _FAST = ("--ops", "200", "--corpus", "150", "--memory-mib", "4")

    def test_json_export_covers_the_stack(self):
        import json

        code, output = run_cli("metrics", "--format", "json", *self._FAST)
        assert code == 0
        flat = json.loads(output)
        prefixes = {name.split(".")[0] for name in flat}
        assert {"processor", "station", "pcie", "dram", "eth",
                "client"} <= prefixes

    def test_prom_export_and_output_file(self, tmp_path):
        path = str(tmp_path / "m.prom")
        code, output = run_cli(
            "metrics", "--format", "prom", "--output", path, *self._FAST
        )
        assert code == 0
        assert output.startswith("# TYPE kvdirect_")
        with open(path) as handle:
            assert handle.read() == output

    def test_ycsb_export_metrics(self, tmp_path):
        path = str(tmp_path / "ycsb.prom")
        code, output = run_cli(
            "ycsb", "--ops", "200", "--corpus", "150", "--memory-mib", "4",
            "--export-metrics", path,
        )
        assert code == 0
        assert "metrics export" in output
        with open(path) as handle:
            assert "# TYPE kvdirect_processor counter" in handle.read()


class TestOverload:
    _FAST = ("--ops", "600", "--multipliers", "0.5,3.0")

    def test_sweep_prints_both_curves(self):
        code, output = run_cli("overload", *self._FAST)
        assert code == 0
        assert "shed x3" in output
        assert "no-shed x3" in output
        assert "Mops" in output

    def test_export_writes_both_curves_as_json(self, tmp_path):
        import json

        path = str(tmp_path / "curves.json")
        code, output = run_cli("overload", *self._FAST, "--export", path)
        assert code == 0
        assert path in output
        with open(path) as handle:
            curves = json.load(handle)
        assert len(curves["with_shedding"]) == 2
        assert len(curves["without_shedding"]) == 2
        assert curves["capacity_mops"] > 0
        at3 = curves["with_shedding"][1]
        assert at3["multiplier"] == 3.0
        assert at3["shed"] > 0


class TestSoak:
    _FAST = ("--keys", "8", "--ops-per-key", "10")

    def test_passing_soak_exits_zero(self):
        code, output = run_cli("soak", "--seed", "7", *self._FAST)
        assert code == 0
        assert "PASS" in output
        assert "digest" in output

    @pytest.mark.parametrize("value", ["-1", "1.5", "nan", "x"])
    def test_chaos_is_an_intensity_in_0_to_1(self, value, capsys):
        """Regression: ``--chaos -1`` and ``--chaos nan`` ran a soak
        without faults."""
        with pytest.raises(SystemExit) as exited:
            run_cli("soak", "--chaos", value, *self._FAST)
        assert exited.value.code == 2
        assert "fault intensity in [0, 1]" in capsys.readouterr().err

    def test_chaos_flag_drives_fault_injection(self):
        import json

        code, output = run_cli(
            "soak", "--chaos", "0.05", "--json", *self._FAST
        )
        assert code == 0
        assert json.loads(output)["faults_fired"] > 0


class TestCluster:
    _FAST = ("--nodes", "3", "--ops", "400", "--corpus", "128")

    def test_run_reports_placement_and_replication(self):
        code, output = run_cli("cluster", *self._FAST)
        assert code == 0
        assert "3/3 alive" in output
        assert "replication records" in output

    def test_kill_node_promotes_and_bumps_epoch(self):
        import json

        code, output = run_cli(
            "cluster", *self._FAST, "--kill-node", "--json"
        )
        assert code == 0
        stats = json.loads(output)
        assert stats["alive_nodes"] == 2
        assert stats["epoch"] == 1.0
        assert stats["counters"]["failovers"] == 1
        assert stats["completed"] == 400.0
        assert stats["robustness"]["node_down_retries"] > 0

    def test_snapshot_lints_clean(self, tmp_path):
        from repro.obs import bench_history

        path = tmp_path / "BENCH_cluster.json"
        code, __ = run_cli(
            "cluster", *self._FAST, "--snapshot", str(path)
        )
        assert code == 0
        snapshot = bench_history.load_snapshot(str(path))
        assert snapshot.extra["nodes"] == 3
        assert snapshot.wall_clock_s > 0
        assert snapshot.sim_ops_per_wall_s > 0


class TestTrace:
    _FAST = ("--ops", "120", "--corpus", "100", "--memory-mib", "4")

    def test_sampling_zero_emits_summary_only(self):
        code, output = run_cli(
            "trace", "--sample", "0.0", *self._FAST
        )
        assert code == 0
        assert output.startswith("# spans=0 ")

    def test_span_lines_are_well_formed(self):
        import re

        code, output = run_cli("trace", "--seed", "3", *self._FAST)
        assert code == 0
        lines = output.splitlines()
        assert len(lines) > 10
        span_re = re.compile(
            r"^\d{6} seq=-?\d+ at=-?\d+\.\d{3} [a-z]"
        )
        for line in lines[:-1]:
            assert span_re.match(line), line
        assert lines[-1].startswith("# spans=")


class TestProfile:
    _FAST = ("--ops", "400", "--corpus", "200", "--memory-mib", "4")

    def test_table_reports_identity_and_audit(self):
        code, output = run_cli("profile", "--seed", "7", *self._FAST)
        assert code == 0
        assert "exact for 400/400 ops" in output
        assert "accesses per GET" in output
        assert "audit verdict: PASS" in output

    def test_folded_lines(self):
        code, output = run_cli(
            "profile", "--seed", "7", "--format", "folded", *self._FAST
        )
        assert code == 0
        for line in output.splitlines():
            frame, count = line.rsplit(" ", 1)
            assert len(frame.split(";")) == 3
            assert int(count) > 0

    def test_sharded_profile(self):
        code, output = run_cli(
            "profile", "--seed", "7", "--shards", "4",
            "--format", "folded", *self._FAST
        )
        assert code == 0
        assert any(line.startswith("nic0;") for line in output.splitlines())


class TestBench:
    _FAST = ("--ops", "400", "--corpus", "200", "--memory-mib", "4")

    def test_run_writes_valid_snapshot(self, tmp_path):
        import json

        from repro.obs.bench_history import validate

        out = tmp_path / "BENCH_unit.json"
        code, output = run_cli(
            "bench", "run", "--name", "unit", "--seed", "7",
            "--output", str(out), *self._FAST
        )
        assert code == 0
        assert validate(json.loads(out.read_text())) == []

    def test_diff_identical_passes(self, tmp_path):
        out = tmp_path / "BENCH_unit.json"
        run_cli(
            "bench", "run", "--name", "unit", "--seed", "7",
            "--output", str(out), *self._FAST
        )
        code, output = run_cli("bench", "diff", str(out), str(out))
        assert code == 0
        assert "PASS" in output

    def test_diff_flags_regression(self, tmp_path):
        import json

        out = tmp_path / "BENCH_unit.json"
        run_cli(
            "bench", "run", "--name", "unit", "--seed", "7",
            "--output", str(out), *self._FAST
        )
        worse_path = tmp_path / "BENCH_worse.json"
        worse = json.loads(out.read_text())
        worse["throughput_mops"] *= 0.5
        worse_path.write_text(json.dumps(worse))
        code, output = run_cli(
            "bench", "diff", str(out), str(worse_path)
        )
        assert code == 1
        assert "REGRESSED" in output

    def test_diff_refuses_a_non_finite_snapshot(self, tmp_path, capsys):
        """Regression: a current snapshot whose throughput and p99 were
        NaN read ``verdict: PASS``."""
        from repro.obs.bench_history import BenchSnapshot

        fields = dict(
            name="unit", operations=100, throughput_mops=50.0,
            latency_p50_ns=900.0, latency_p95_ns=1500.0,
            latency_p99_ns=2000.0, dma_per_op=0.9, cache_hit_rate=0.5,
            git_rev="abc1234", config_digest="0123456789abcdef",
        )
        good, bad = tmp_path / "BENCH_good.json", tmp_path / "BENCH_nan.json"
        BenchSnapshot(**fields).save(str(good))
        fields.update(throughput_mops=float("nan"),
                      latency_p99_ns=float("nan"))
        BenchSnapshot(**fields).save(str(bad))
        assert run_cli("bench", "diff", str(good), str(bad)) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("repro bench diff: ") and err.count("\n") == 1
        assert "'throughput_mops' is non-finite" in err
