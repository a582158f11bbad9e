"""Command-line interface: run KV-Direct experiments without writing code.

::

    python -m repro info
    python -m repro ycsb --kv-size 13 --put-ratio 0.5 --distribution zipf
    python -m repro atomics --keys 1 --no-ooo
    python -m repro pcie --payload 64
    python -m repro tune --kv-size 30 --utilization 0.2
    python -m repro metrics --ops 2000 --format prom
    python -m repro trace --seed 7 --ops 200
    python -m repro timeline --seed 7 --shards 4 --format jsonl
    python -m repro profile --seed 7 --ops 2000
    python -m repro ycsb -w E --ops 2000
    python -m repro range --seed 7 --scans 64 --shards 4
    python -m repro bench run --name small-ycsb
    python -m repro bench diff BENCH_a.json BENCH_b.json --tolerance 0.15
"""

from __future__ import annotations

import argparse
import json
import math
import random
import struct
import sys
import time
from typing import List, Optional

from repro import constants, scenario, __version__
from repro.analysis.report import format_table
from repro.chaos import SoakConfig, run_soak, sweep_offered_load
from repro.client.router import ClusterRouter
from repro.core.admission import SHED_POLICIES, OverloadPolicy
from repro.core.hashtable import MAX_KV_SIZE
from repro.core.operations import (KVOperation, decode_scan_payload,
                                   nonempty)
from repro.core.tuning import optimal_hash_index_ratio
from repro.core.vector import FETCH_ADD
from repro.driver import run_closed_loop
from repro.errors import (CapacityError, ConfigurationError, KeyTooLargeError,
                          ProtocolError)
from repro.faults import FaultPlan
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    TimelineSampler,
    Tracer,
    bench_history,
)
from repro.obs.attribution import audit
from repro.obs.profiler import STAGE_ORDER, merge_folded, merged_dict
from repro.obs.timeline import sparkline
from repro.pcie import DMAEngine, PCIeLinkConfig
from repro.sim import Simulator
from repro.sim.stats import mops
from repro.workloads.trace import TraceReader, TraceWriter


def _latency_rows(stats, pcts=(50, 99)) -> List[List[str]]:
    """Throughput + latency table rows shared by every run summary.

    ``stats`` is a mapping with ``throughput_mops`` and
    ``latency_p<pct>_ns`` keys (a :func:`~repro.driver.run_closed_loop`
    result or a dataclass ``as_dict()``); latency fields that are missing
    or None - a run where every op was shed or deadline-expired - render
    as ``n/a`` instead of crashing.
    """
    rows = [["throughput", f"{stats['throughput_mops']:.2f} Mops"]]
    for pct in pcts:
        value = stats.get(f"latency_p{pct}_ns")
        rows.append(
            [f"p{pct} latency",
             "n/a" if value is None else f"{value / 1e3:.2f} us"]
        )
    return rows


def _plain(parser, **defaults) -> None:
    """Add ``--name`` options that carry only a typed default (``ops=5000``
    adds ``--ops``), in the order given: a count or a size must be above
    zero, a KV size must fit a slab and a put ratio lie in [0, 1];
    anything else takes the default's type."""
    for name, default in defaults.items():
        kind = _KINDS.get(name, type(default))
        parser.add_argument(
            "--" + name.replace("_", "-"), type=kind, default=default
        )


def _number_in(low: float, high: float, what: str, kind=float):
    """argparse type of a ``kind`` in the open interval (``low``,
    ``high``), so that ``nan``, ``low`` and below, and ``high`` itself are
    usage errors (exit 2) that say the value must be ``what``."""

    def parse(text: str) -> float:
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not {what}: {text!r}"
            ) from None
        if not low < value < high:  # NaN fails this too
            raise argparse.ArgumentTypeError(f"must be {what}: {text!r}")
        return value

    return parse


#: A span of time.
_positive_float = _number_in(0, float("inf"), "a finite number above zero")
#: A share of something, such as a target memory utilization.
_fraction = _number_in(0, 1, "a fraction between 0 and 1, exclusive")
#: A count or a size, such as every ``--ops`` and ``--memory-mib``.
_positive_int = _number_in(0, float("inf"), "a positive integer", int)
#: A count where 0 means "none", such as ``soak --nodes``.
_non_negative_int = _number_in(-1, float("inf"), "a non-negative integer",
                               int)
#: A relative tolerance: a finite number, zero or above.
_tolerance = _number_in(math.nextafter(0, -1), float("inf"),
                        "a finite number of at least 0")
#: A KV size: more than the 8 B keys every workload and the tuner draw, and
#: no more than the largest slab holds.
_kv_size = _number_in(8, MAX_KV_SIZE + 1, "a KV size above the 8 B key and "
                      f"at most {MAX_KV_SIZE} B", int)


def _unit_interval(what: str):
    """argparse type of a float in [0, 1]: no float lies strictly between
    0 and the next one down, or 1 and the next one up, so the open interval
    between them is exactly [0, 1]."""
    return _number_in(math.nextafter(0, -1), math.nextafter(1, 2), what)


#: The share of ops a tracer samples (``--sample``).
_sample_rate = _unit_interval("a sample rate in [0, 1]")

#: The ``_plain`` options that are counts, sizes or shares.
_KINDS = {
    "kv_size": _kv_size,
    "put_ratio": _unit_interval("a put ratio in [0, 1]"),
    **dict.fromkeys(
        ("ops", "corpus", "keys", "payload", "memory_mib", "concurrency",
         "queue_depth", "ops_per_key", "batch_size", "nodes", "slots",
         "scans", "max_count", "nics"),
        _positive_int,
    ),
}


def _multipliers(text: str):
    """argparse type of ``--multipliers``: comma-separated offered-load
    multiples, each a finite number above zero."""
    values = tuple(_positive_float(m) for m in text.split(",") if m.strip())
    if not values:
        raise argparse.ArgumentTypeError(f"no multipliers in {text!r}")
    return values


def _timeline_args(parser, what: str) -> None:
    """``--timeline PATH`` / ``--window-ns`` for a run that can carry a
    windowed timeline (``what`` finishes the ``--timeline`` help)."""
    parser.add_argument("--timeline", metavar="PATH", help=what)
    parser.add_argument(
        "--window-ns", type=_positive_float, default=2000.0,
        help="timeline window in simulated nanoseconds",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="KV-Direct (SOSP 2017) reproduction experiments",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="show the modelled hardware constants")

    ycsb = sub.add_parser("ycsb", help="run a YCSB workload (Figures 16/17)")
    _plain(ycsb, kv_size=13, put_ratio=0.0)
    ycsb.add_argument(
        "--distribution", choices=("uniform", "zipf"), default="uniform"
    )
    _plain(ycsb, ops=5000, corpus=5000, memory_mib=8, concurrency=250)
    ycsb.add_argument(
        "--no-ooo", action="store_true", help="disable out-of-order execution"
    )
    ycsb.add_argument(
        "--no-nic-dram", action="store_true", help="disable the DRAM cache"
    )
    ycsb.add_argument(
        "-w", "--standard",
        choices=("A", "B", "C", "D", "E", "F"),
        help="use a standard YCSB core workload instead of put-ratio/"
             "distribution (E enables the ordered index for its scans)",
    )
    ycsb.add_argument(
        "--export-metrics", metavar="PATH",
        help="write the metrics registry (Prometheus text) to PATH",
    )

    metrics = sub.add_parser(
        "metrics",
        help="run a short batched workload and export the metrics registry",
    )
    _plain(
        metrics, kv_size=13, put_ratio=0.5, ops=2000, corpus=1000,
        memory_mib=8, seed=0,
    )
    metrics.add_argument(
        "--format", choices=("json", "prom", "both"), default="both",
        help="export format(s) to print (default: both)",
    )
    metrics.add_argument(
        "--output", metavar="PATH",
        help="also write the Prometheus export to PATH",
    )

    trace = sub.add_parser(
        "trace",
        help="emit the deterministic per-op span log of a seeded workload",
    )
    _plain(
        trace, seed=0, ops=200, corpus=500, kv_size=13, put_ratio=0.5,
        memory_mib=8,
    )
    trace.add_argument(
        "--sample", type=_sample_rate, default=1.0,
        help="fraction of ops traced (deterministic hash sampling)",
    )

    timeline = sub.add_parser(
        "timeline",
        help="windowed simulated-time telemetry of a seeded run: "
             "deterministic JSONL series, sparkline table, or Chrome "
             "trace-event JSON for Perfetto (docs/OBSERVABILITY.md)",
    )
    _plain(
        timeline, seed=0, ops=2000, corpus=1000, kv_size=13, put_ratio=0.5,
        memory_mib=8,
    )
    timeline.add_argument(
        "--window-ns", type=_positive_float, default=2000.0,
        help="sampling window in simulated nanoseconds",
    )
    timeline.add_argument(
        "--shards", type=_positive_int, default=1,
        help="run an N-shard server (per-nic<i> series + an 'all' "
             "aggregate)",
    )
    timeline.add_argument(
        "--format", choices=("table", "jsonl", "chrome"), default="table",
        help="sparkline table, canonical JSONL (+ digest trailer), or "
             "Chrome trace-event JSON (load in Perfetto / about:tracing)",
    )
    timeline.add_argument(
        "--sample", type=_sample_rate, default=1.0,
        help="tracer sample rate for --format chrome span events",
    )
    timeline.add_argument(
        "--output", metavar="PATH",
        help="also write the selected format to PATH",
    )

    profile = sub.add_parser(
        "profile",
        help="per-stage latency attribution + DMA cost audit of a seeded "
             "YCSB run (docs/OBSERVABILITY.md)",
    )
    _plain(
        profile, seed=0, ops=2000, corpus=1000, kv_size=13, put_ratio=0.5,
        memory_mib=8,
    )
    profile.add_argument(
        "--shards", type=_positive_int, default=1,
        help="profile an N-shard server (per-nic<i> prefixed profiles)",
    )
    profile.add_argument(
        "--tolerance", type=_tolerance, default=0.2,
        help="relative tolerance for the paper's ~1/GET ~2/PUT predictions",
    )
    profile.add_argument(
        "--format", choices=("table", "json", "folded"), default="table",
        help="terminal table, hierarchical JSON, or flamegraph folded "
             "stacks (json/folded are byte-identical for a fixed seed)",
    )
    profile.add_argument(
        "--workload", choices=("ycsb", "ycsb-e"), default="ycsb",
        help="ycsb = the seeded GET/PUT mix; ycsb-e = standard YCSB-E "
             "(95%% RANGE / 5%% insert, ordered index enabled) with "
             "per-RANGE attribution rows",
    )

    bench = sub.add_parser(
        "bench",
        help="benchmark snapshot history: emit and diff BENCH_*.json "
             "(docs/OBSERVABILITY.md)",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_run = bench_sub.add_parser(
        "run", help="run a small seeded bench and write a snapshot"
    )
    bench_run.add_argument("--name", default="small-ycsb")
    _plain(
        bench_run, seed=0, ops=2000, corpus=1000, kv_size=13, put_ratio=0.5,
        memory_mib=8, concurrency=128,
    )
    bench_run.add_argument(
        "--workload", choices=("ycsb", "ycsb-e"), default="ycsb",
        help="ycsb = the seeded GET/PUT mix; ycsb-e = standard YCSB-E "
             "(ordered index enabled, RANGE-dominated)",
    )
    bench_run.add_argument(
        "--output", metavar="PATH",
        help="snapshot path (default: BENCH_<name>.json)",
    )
    _timeline_args(
        bench_run,
        "sample a windowed timeline during the bench and write the "
        "JSONL (+ digest trailer) to PATH; the snapshot records "
        "timeline_windows / timeline_digest (schema 3)",
    )
    bench_diff = bench_sub.add_parser(
        "diff",
        help="compare two snapshots direction-aware; exit 1 on regression",
    )
    bench_diff.add_argument("baseline", help="baseline BENCH_*.json")
    bench_diff.add_argument("current", help="current BENCH_*.json")
    bench_diff.add_argument(
        "--tolerance", type=_tolerance, default=0.15,
        help="relative tolerance before a metric counts as regressed",
    )

    range_cmd = sub.add_parser(
        "range",
        help="ordered RANGE/SCAN end-to-end through checksummed clients at "
             "N shards; deterministic JSON with a merged-results digest",
    )
    range_cmd.add_argument("--seed", type=int, default=0)
    # --scans RANGE/SCANs, every 4th keys-only, of lengths uniform in
    # [1, --max-count].
    _plain(range_cmd, scans=64, corpus=512, kv_size=13, memory_mib=8,
           max_count=16)
    range_cmd.add_argument(
        "--shards", type=_positive_int, default=1,
        help="replicate each scan to N shards and k-way merge the partial "
             "results (the digest is shard-count invariant)",
    )
    range_cmd.add_argument("--batch-size", type=_positive_int, default=8)

    atomics = sub.add_parser(
        "atomics", help="single/multi-key atomics (Figure 13a)"
    )
    _plain(atomics, keys=1, ops=3000)
    atomics.add_argument("--no-ooo", action="store_true")

    pcie = sub.add_parser("pcie", help="PCIe DMA microbenchmark (Figure 3)")
    _plain(pcie, payload=64, ops=3000)
    pcie.add_argument("--write", action="store_true")

    tune = sub.add_parser(
        "tune", help="optimal hash index ratio (Figure 10)"
    )
    tune.add_argument("--kv-size", type=_kv_size, required=True)
    tune.add_argument("--utilization", type=_fraction, required=True)
    _plain(tune, inline_threshold=20, memory_mib=2)

    record = sub.add_parser(
        "record", help="generate a YCSB workload and save it as a trace"
    )
    record.add_argument("output", help="trace file to write (.kvdt)")
    _plain(record, kv_size=13, put_ratio=0.5)
    record.add_argument(
        "--distribution", choices=("uniform", "zipf"), default="uniform"
    )
    _plain(record, ops=5000, corpus=5000)
    record.add_argument(
        "--load-phase", action="store_true",
        help="prepend PUTs inserting the whole corpus",
    )

    replay = sub.add_parser(
        "replay", help="replay a trace against a fresh store"
    )
    replay.add_argument("input", help="trace file to replay")
    replay.add_argument("--memory-mib", type=_positive_int, default=8)
    replay.add_argument(
        "--timed", action="store_true",
        help="run through the cycle-level simulation (slower)",
    )
    replay.add_argument("--concurrency", type=_positive_int, default=250)

    overload = sub.add_parser(
        "overload",
        help="sweep offered load with and without shedding: goodput, p99 "
             "and shed-rate curves (docs/ROBUSTNESS.md)",
    )
    overload.add_argument(
        "--multipliers", type=_multipliers, default="0.5,1.0,2.0,3.0",
        help="comma-separated offered-load multiples of probed capacity",
    )
    _plain(overload, ops=3000, seed=0, memory_mib=4, queue_depth=64)
    overload.add_argument(
        "--shed-policy", choices=SHED_POLICIES, default="reject-new"
    )
    overload.add_argument(
        "--deadline-us", type=_positive_float,
        help="per-op deadline budget in microseconds (default: none)",
    )
    overload.add_argument(
        "--export", metavar="PATH",
        help="write both curves as JSON to PATH",
    )

    soak = sub.add_parser(
        "soak",
        help="chaos soak: seeded faults + overload bursts, checked against "
             "a differential model (docs/ROBUSTNESS.md)",
    )
    _plain(soak, seed=0, keys=16, ops_per_key=40)
    soak.add_argument(
        "--chaos", type=_unit_interval("a fault intensity in [0, 1]"),
        default=0.02,
        help="fault intensity for FaultPlan.chaos (0 disables faults)",
    )
    soak.add_argument(
        "--deadline-us", type=_positive_float,
        help="per-op deadline budget in microseconds (default: none)",
    )
    soak.add_argument(
        "--shed-policy", choices=SHED_POLICIES, default="reject-new"
    )
    soak.add_argument("--queue-depth", type=_positive_int, default=4)
    soak.add_argument(
        "--shards", type=_positive_int, default=1,
        help="shard the soak across N server stacks (key-hash routed; "
             "default 1 = the original single-stack soak)",
    )
    soak.add_argument(
        "--nodes", type=_non_negative_int, default=0,
        help="soak a replicated cluster of N nodes instead of plain "
             "shards (routes through the epoch-aware ClusterRouter)",
    )
    soak.add_argument(
        "--slots", type=_positive_int, default=8,
        help="placement-directory slots in cluster mode",
    )
    soak.add_argument(
        "--kill-node", action="store_true",
        help="kill one primary mid-soak and fail over to its backup "
             "(cluster mode, needs --nodes >= 2)",
    )
    soak.add_argument(
        "--json", action="store_true",
        help="emit the canonical JSON report (byte-identical across runs "
             "of the same arguments)",
    )
    _timeline_args(
        soak,
        "sample a windowed timeline during the soak and write the "
        "JSONL (+ digest trailer) to PATH; flight-recorder dumps, "
        "if any, land at PATH.flight.json",
    )

    cluster = sub.add_parser(
        "cluster",
        help="fault-tolerant cluster: replicated nodes behind a placement "
             "directory, optional mid-run primary kill + failover "
             "(docs/ARCHITECTURE.md)",
    )
    _plain(
        cluster, nodes=3, slots=8, ops=2000, corpus=512, kv_size=13,
        put_ratio=0.5, seed=0, concurrency=64,
    )
    cluster.add_argument(
        "--kill-node", action="store_true",
        help="kill the first key's primary mid-run (deterministic, "
             "count-based) and report the failover",
    )
    cluster.add_argument(
        "--json", action="store_true",
        help="emit run statistics + cluster counters as JSON",
    )
    cluster.add_argument(
        "--snapshot", metavar="PATH",
        help="write a BENCH_*.json snapshot of the run to PATH",
    )
    _timeline_args(
        cluster,
        "sample a windowed timeline (per-node + cluster gauges: "
        "epoch, alive nodes, migrating slots) and write the JSONL "
        "(+ digest trailer) to PATH",
    )

    multinic = sub.add_parser(
        "multinic",
        help="multi-NIC scaling, end-to-end: key-hash routed clients "
             "drive N full server stacks (section 1, Table 3)",
    )
    # --nics server stacks, --ops GETs across them all, over --corpus
    # distinct keys preloaded before the run.
    _plain(multinic, nics=4, ops=4000, corpus=512, batch_size=16, seed=0)
    multinic.add_argument(
        "--direct", action="store_true",
        help="direct-submit closed loop (no client/wire layer): reports "
             "aggregate latency percentiles over the merged per-shard "
             "histograms",
    )
    multinic.add_argument(
        "--concurrency-per-nic", type=_positive_int, default=128,
        help="outstanding ops per shard in --direct mode",
    )
    multinic.add_argument(
        "--json", action="store_true",
        help="emit the aggregate and per-shard statistics as JSON",
    )
    return parser


def _cmd_info(args, out) -> int:
    rows = [
        ["KV processor clock", f"{constants.KV_CLOCK_HZ / 1e6:.0f} MHz"],
        ["PCIe links", f"{constants.PCIE_LINK_COUNT}x Gen3 x8"],
        ["PCIe link bandwidth", f"{constants.PCIE_GEN3_X8_BANDWIDTH / 1e9:.2f} GB/s"],
        ["PCIe DMA tags", str(constants.PCIE_DMA_TAGS)],
        ["TLP overhead", f"{constants.PCIE_TLP_OVERHEAD} B"],
        ["NIC DRAM", f"{constants.NIC_DRAM_SIZE >> 30} GiB @ "
                     f"{constants.NIC_DRAM_BANDWIDTH / 1e9:.1f} GB/s"],
        ["network", f"{constants.NETWORK_BANDWIDTH_BPS / 1e9:.0f} Gbps, "
                    f"{constants.RDMA_PACKET_OVERHEAD} B packet overhead"],
        ["bucket", f"{constants.BUCKET_SIZE} B, "
                   f"{constants.SLOTS_PER_BUCKET} slots"],
        ["slab classes", ", ".join(f"{s}B" for s in constants.SLAB_SIZES)],
        ["reservation station", f"{constants.RESERVATION_STATION_SLOTS} slots, "
                                f"{constants.MAX_INFLIGHT_OPS} in-flight"],
    ]
    print(format_table("Modelled hardware (paper constants)",
                       ["parameter", "value"], rows), file=out)
    return 0


def _cmd_ycsb(args, out) -> int:
    built = scenario.build(
        memory_size=args.memory_mib << 20,
        corpus=args.corpus,
        kv_size=args.kv_size,
        put_ratio=args.put_ratio,
        distribution=args.distribution,
        workload=args.standard or "ycsb",
        out_of_order=not args.no_ooo,
        use_nic_dram=not args.no_nic_dram,
    )
    workload_name = (
        f"YCSB-{args.standard}" if args.standard
        else built.generator.spec.name
    )
    processor = built.processor
    stats = run_closed_loop(
        processor, built.generator.stream(args.ops),
        concurrency=args.concurrency,
    )
    rows = [
        ["workload", workload_name],
        ["KV size", f"{args.kv_size} B"],
        *_latency_rows(stats),
        ["DMA reads", str(processor.dma.reads)],
        ["DMA writes", str(processor.dma.writes)],
        ["cache hit rate", f"{processor.engine.hit_rate():.1%}"],
        ["forwarded ops", str(processor.counters['forwarded'])],
    ]
    if args.export_metrics:
        registry = processor.register_metrics()
        with open(args.export_metrics, "w") as handle:
            handle.write(registry.to_prometheus())
        rows.append(["metrics export", args.export_metrics])
    print(format_table("YCSB result", ["metric", "value"], rows), file=out)
    return 0


def _build(args, **topology) -> scenario.Scenario:
    """The scenario behind the seeded subcommands' shared options
    (``--workload ycsb-e`` is standard YCSB-E, ordered index on)."""
    return scenario.build(
        seed=args.seed,
        memory_size=args.memory_mib << 20,
        corpus=args.corpus,
        kv_size=args.kv_size,
        put_ratio=getattr(args, "put_ratio", 0.0),
        workload=(
            "E" if getattr(args, "workload", "") == "ycsb-e" else "ycsb"
        ),
        **topology,
    )


def _write_timeline(path: str, sampler) -> None:
    with open(path, "w") as handle:
        handle.write(timeline_text(sampler))


def _seeded_run(args, timeline=None, **topology):
    """One batched client run over a seeded corpus/workload/topology.

    Shared by ``repro metrics``, ``repro trace``, ``repro profile`` and
    ``repro timeline``: everything (store config, corpus, workload,
    latency distributions) is derived from ``args.seed``, so two
    invocations with identical arguments replay the identical
    simulation.  ``args.shards`` (profile/timeline) sizes the server;
    ``args.workload`` (profile) switches the op stream to standard YCSB-E
    and enables the ordered index the scans need; ``topology`` adds
    :func:`~repro.scenario.build` options (a tracer, profilers).  A
    ``timeline`` sampler, when given, is attached per NIC and finished
    after the run.  Returns ``(server, router, ops)``.
    """
    built = _build(args, shards=getattr(args, "shards", 1), **topology)
    ops = built.operations(args.ops)
    router = built.server.router(batch_size=16)
    if timeline is not None:
        built.server.attach_timeline(timeline)
        timeline.start()
    router.run(ops)
    if timeline is not None:
        timeline.finish()
    return built.server, router, ops


def _cmd_metrics(args, out) -> int:
    server, router, __ = _seeded_run(args)
    registry = server.register_metrics(MetricsRegistry())
    router.clients[0].register_metrics(registry)
    if args.format in ("json", "both"):
        print(registry.to_json(), file=out)
    if args.format in ("prom", "both"):
        print(registry.to_prometheus(), file=out, end="")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(registry.to_prometheus())
    return 0


def _cmd_trace(args, out) -> int:
    tracer = Tracer(sample_rate=args.sample, seed=args.seed)
    _seeded_run(args, tracer=tracer)
    for line in tracer.render_lines():
        print(line, file=out)
    print(f"# spans={len(tracer)} digest={tracer.digest()}", file=out)
    return 0


def timeline_text(sampler) -> str:
    """Canonical JSONL + digest trailer (what ``--timeline PATH`` writes)."""
    return (
        sampler.dumps()
        + f"# windows={sampler.windows} digest={sampler.digest()}\n"
    )


def _cmd_timeline(args, out) -> int:
    sampler = TimelineSampler(window_ns=args.window_ns)
    tracer = None
    if args.format == "chrome":
        tracer = Tracer(sample_rate=args.sample, seed=args.seed)
    server, __, ops = _seeded_run(args, tracer=tracer, timeline=sampler)

    if args.format == "chrome":
        shard_map = {op.seq: server.shard_of(op.key) for op in ops}
        text = tracer.export_chrome(
            shard_for_seq=lambda seq: shard_map.get(seq, 0),
            shard_names=[stack.name for stack in server.stacks],
        ) + "\n"
        print(text, file=out, end="")
    elif args.format == "jsonl":
        text = timeline_text(sampler)
        print(text, file=out, end="")
    else:
        rows = []
        for name in sampler.shard_names + (
            ["all"] if len(sampler.shard_names) > 1 else []
        ):
            thr = sampler.series(name, "throughput_mops")
            p99 = sampler.series(name, "latency_p99_ns")
            peak = max((v for v in thr if v is not None), default=0.0)
            p99s = [v for v in p99 if v is not None]
            rows.append([name, "throughput", sparkline(thr),
                         f"peak {peak:.2f} Mops"])
            rows.append([name, "p99 latency", sparkline(p99),
                         "n/a" if not p99s
                         else f"worst {max(p99s) / 1e3:.2f} us"])
        table = format_table(
            f"Timeline ({sampler.windows} windows x "
            f"{sampler.window_ns:.0f} ns)",
            ["shard", "metric", "sparkline", "extreme"], rows,
        )
        print(table, file=out)
        print(f"# windows={sampler.windows} digest={sampler.digest()}",
              file=out)
        text = timeline_text(sampler)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    return 0


def _latency_identity(profilers):
    """(checked, exact) per-op latency-identity counts across shards."""
    checked = exact = 0
    for profiler in profilers:
        for record in profiler.records:
            checked += 1
            total = 0.0
            for __, queue, service in record.segments:
                total += queue + service
            exact += total == record.latency_ns
    return checked, exact


def _cmd_profile(args, out) -> int:
    server, __, __ = _seeded_run(args, profile=True)
    profilers = server.profilers
    allocators = [stack.store.allocator for stack in server.stacks]
    checked, exact = _latency_identity(profilers)
    report = audit(profilers, allocators=allocators,
                   tolerance=args.tolerance,
                   ordered=getattr(args, "workload", "ycsb") == "ycsb-e")
    ok = report.passed and checked == exact

    if args.format == "folded":
        for line in merge_folded(profilers):
            print(line, file=out)
        return 0 if ok else 1
    if args.format == "json":
        payload = {
            "profile": merged_dict(profilers),
            "audit": report.as_dict(),
            "latency_identity": {"ops": checked, "exact": exact},
        }
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return 0 if ok else 1

    # Per-class stage breakdown, aggregated across shards.
    classes = {}
    for profiler in profilers:
        for cname, profile in profiler.classes.items():
            entry = classes.setdefault(
                cname, {"completed": 0, "latency_ns": 0.0, "stages": {}}
            )
            entry["completed"] += profile.completed
            entry["latency_ns"] += profile.latency_total_ns
            for sname, breakdown in profile.stages.items():
                stage = entry["stages"].setdefault(sname, [0, 0.0, 0.0])
                stage[0] += breakdown.ops
                stage[1] += breakdown.queue_ns
                stage[2] += breakdown.service_ns
    rows = []
    for cname in sorted(classes):
        entry = classes[cname]
        if not entry["completed"]:
            continue
        for sname in STAGE_ORDER:
            if sname not in entry["stages"]:
                continue
            ops, queue, service = entry["stages"][sname]
            rows.append([
                cname, sname, str(ops),
                f"{queue / 1e3:.2f}", f"{service / 1e3:.2f}",
                f"{(queue + service) / ops / 1e3:.3f}",
            ])
        rows.append([
            cname, "= total", str(entry["completed"]), "", "",
            f"{entry['latency_ns'] / entry['completed'] / 1e3:.3f}",
        ])
    print(format_table(
        "Per-stage latency attribution (simulated time)",
        ["class", "stage", "ops", "queue us", "service us", "mean/op us"],
        rows,
    ), file=out)
    identity = (
        f"exact for {exact}/{checked} ops" if checked else "no completed ops"
    )
    print(f"latency identity (queue+service == e2e): {identity}", file=out)
    print(file=out)
    print(format_table(
        "DMA cost audit vs. paper predictions",
        ["check", "predicted", "measured", "status", "source"],
        report.rows(),
    ), file=out)
    for key, value in sorted(report.info.items()):
        shown = "n/a" if value is None else f"{value:.3f}"
        print(f"info: {key} = {shown}", file=out)
    print(f"audit verdict: {report.verdict}", file=out)
    return 0 if ok else 1


def _cmd_bench(args, out) -> int:
    if args.bench_command == "diff":
        try:
            baseline = bench_history.load_snapshot(args.baseline)
            current = bench_history.load_snapshot(args.current)
        except ValueError as exc:  # not JSON, or not a valid snapshot
            print(f"repro bench diff: {exc}", file=sys.stderr)
            return 1
        result = bench_history.diff(baseline, current,
                                    tolerance=args.tolerance)
        print(format_table(
            f"Bench diff ({result.baseline} -> {result.current}, "
            f"tolerance {result.tolerance:.0%})",
            ["metric", "baseline", "current", "change", "status"],
            result.rows(),
        ), file=out)
        for note in result.notes:
            print(f"note: {note}", file=out)
        print("verdict:", "PASS" if result.passed else "FAIL", file=out)
        return 0 if result.passed else 1

    built = _build(args, profile=True)
    processor = built.processor
    profiler = processor.profiler
    sampler = None
    if args.timeline:
        sampler = TimelineSampler(window_ns=args.window_ns)
        built.server.attach_timeline(sampler)
    stats = run_closed_loop(
        processor, built.generator.stream(args.ops),
        concurrency=args.concurrency, timeline=sampler,
    )
    if sampler is not None:
        _write_timeline(args.timeline, sampler)
    extra = {
        "seed": args.seed,
        "corpus": args.corpus,
        "kv_size": args.kv_size,
        "put_ratio": args.put_ratio,
        "accesses_per_get": profiler.accesses_per_op("get"),
        "accesses_per_put": profiler.accesses_per_op("put"),
    }
    if args.workload == "ycsb-e":
        # Only the YCSB-E bench carries the ordered-op rows, so existing
        # snapshots (and their diffs) keep their exact key set.
        extra["workload"] = "ycsb-e"
        extra["accesses_per_range"] = profiler.accesses_per_op("range")
    snapshot = bench_history.snapshot_from_run(
        args.name, processor, stats, extra=extra,
    )
    path = args.output or f"BENCH_{args.name}.json"
    snapshot.save(path)
    rows = [
        ["name", snapshot.name],
        *_latency_rows(stats, pcts=(50, 95, 99)),
        ["DMA per op", f"{snapshot.dma_per_op:.3f}"],
        ["cache hit rate", f"{snapshot.cache_hit_rate:.1%}"],
        ["wall clock", f"{snapshot.wall_clock_s:.3f} s"],
        ["sim ops per wall s", f"{snapshot.sim_ops_per_wall_s:.0f}"],
        ["config digest", snapshot.config_digest],
        ["git rev", snapshot.git_rev],
        ["snapshot", path],
    ]
    if sampler is not None:
        rows.append([
            "timeline",
            f"{sampler.windows} windows -> {args.timeline}",
        ])
    print(format_table("Bench snapshot", ["metric", "value"], rows),
          file=out)
    return 0


def _cmd_range(args, out) -> int:
    """Ordered scans end-to-end, with a shard-count-invariant digest.

    Drives a seeded RANGE/SCAN stream through checksummed batched
    clients against an ordered-index server at ``--shards`` shards: each
    scan is replicated to every shard and the partial payloads are
    k-way merged by key.  The report is canonical JSON whose
    ``results_digest`` hashes every merged payload in seq order - the
    same corpus scanned at 1 and at 4 shards must produce the same
    digest (the golden-trace CI job compares exactly that).
    """
    built = _build(args, shards=args.shards, ordered_index=True)
    keyspace = built.keyspace
    rng = random.Random(args.seed ^ 0x5CA)
    ops = []
    for seq in range(args.scans):
        start = keyspace.key(rng.randrange(args.corpus))
        count = rng.randint(1, args.max_count)
        if seq % 4 == 3:
            ops.append(KVOperation.scan(start, count, seq=seq))
        else:
            ops.append(KVOperation.range(start, count, seq=seq))
    router = built.server.router(batch_size=args.batch_size, checksum=True)
    stats = router.run(ops)
    merged = router.scan_results(ops)
    import hashlib

    digest = hashlib.sha256()
    entries = 0
    for seq in sorted(merged):
        payload = merged[seq]
        digest.update(seq.to_bytes(8, "big"))
        digest.update(payload)
        entries += len(decode_scan_payload(
            payload, with_values=ops[seq].op.name == "RANGE"
        ))
    report = {
        "schema": 1,
        "seed": args.seed,
        "shards": args.shards,
        "corpus": args.corpus,
        "scans": args.scans,
        "merged": len(merged),
        "entries": entries,
        "elapsed_ns": stats.elapsed_ns,
        "throughput_mops": stats.throughput_mops,
        "results_digest": digest.hexdigest(),
    }
    print(json.dumps(report, indent=2, sort_keys=True), file=out)
    return 0 if len(merged) == args.scans else 1


def _cmd_atomics(args, out) -> int:
    built = scenario.build(
        memory_size=4 << 20, out_of_order=not args.no_ooo
    )
    for k in range(args.keys):
        built.store.put(b"ctr%06d" % k, struct.pack("<q", 0))
    ops = [
        KVOperation.update(
            b"ctr%06d" % (i % args.keys), FETCH_ADD,
            struct.pack("<q", 1), seq=i,
        )
        for i in range(args.ops)
    ]
    stats = run_closed_loop(built.processor, ops, concurrency=200)
    mode = "stalling (no OoO)" if args.no_ooo else "out-of-order"
    rows = [
        ["keys", str(args.keys)],
        ["mode", mode],
        *_latency_rows(stats, pcts=(99,)),
    ]
    print(format_table("Atomics result", ["metric", "value"], rows), file=out)
    return 0


def _cmd_pcie(args, out) -> int:
    sim = Simulator()
    engine = DMAEngine(sim, PCIeLinkConfig.gen3_x8())
    issue = engine.write if args.write else engine.read
    for __ in range(args.ops):  # all at once; nothing waits on one DMA
        issue(args.payload, -1, lambda _entry: None)
    sim.run()
    rows = [
        ["operation", "DMA write" if args.write else "DMA read"],
        ["payload", f"{args.payload} B"],
        ["throughput", f"{mops(args.ops, sim.now):.1f} Mops"],
    ]
    if not args.write:
        rows.append(
            ["p99 latency",
             f"{engine.read_latency_hist.percentile(99):.0f} ns"]
        )
    print(format_table("PCIe DMA result", ["metric", "value"], rows),
          file=out)
    return 0


def _cmd_tune(args, out) -> int:
    try:
        ratio, accesses = optimal_hash_index_ratio(
            args.kv_size,
            args.utilization,
            args.inline_threshold,
            memory_size=args.memory_mib << 20,
        )
    except CapacityError as exc:  # an unreachable target: say so, exit 1
        print(f"repro tune: {exc}", file=sys.stderr)
        return 1
    rows = [
        ["KV size", f"{args.kv_size} B"],
        ["required utilization", f"{args.utilization:.2f}"],
        ["optimal hash index ratio", f"{ratio:.2f}"],
        ["mean accesses/op", f"{accesses:.3f}"],
    ]
    print(format_table("Tuning result", ["metric", "value"], rows), file=out)
    return 0


def _cmd_record(args, out) -> int:
    __, generator = scenario.make_workload(
        corpus=args.corpus,
        kv_size=args.kv_size,
        put_ratio=args.put_ratio,
        distribution=args.distribution,
    )
    with TraceWriter(args.output) as writer:
        if args.load_phase:
            writer.extend(generator.load_phase())
        writer.extend(generator.stream(args.ops))
        total = writer.operations
    rows = [
        ["trace", args.output],
        ["workload", generator.spec.name],
        ["operations", str(total)],
    ]
    print(format_table("Trace recorded", ["metric", "value"], rows),
          file=out)
    return 0


def _cmd_replay(args, out) -> int:
    built = scenario.build(memory_size=args.memory_mib << 20)
    store = built.store
    with TraceReader(args.input) as reader:
        # An empty trace is refused on both paths, as every driver
        # refuses an empty stream.
        ops = nonempty(reader)
        if args.timed:
            stats = run_closed_loop(built.processor, ops,
                                    concurrency=args.concurrency)
            count = int(stats["operations"])
            rows = _latency_rows(stats, pcts=(99,))
        else:
            count = hits = 0
            for op in ops:
                result = store.execute(op)
                count += 1
                hits += result.ok
            rows = [
                ["ok responses", str(hits)],
                ["final keys", str(len(store))],
                ["mem accesses",
                 str(int(store.dma_stats()['memory_accesses']))],
            ]
    rows = [["trace", args.input], ["operations", str(count)], *rows]
    print(format_table("Trace replayed", ["metric", "value"], rows),
          file=out)
    return 0


def _cmd_overload(args, out) -> int:
    curves = sweep_offered_load(
        multipliers=args.multipliers,
        seed=args.seed,
        num_ops=args.ops,
        memory_size=args.memory_mib << 20,
        queue_depth=args.queue_depth,
        shed_policy=args.shed_policy,
        deadline_budget_ns=(
            args.deadline_us * 1e3 if args.deadline_us is not None else None
        ),
    )
    rows = [["capacity", f"{curves['capacity_mops']:.1f} Mops"],
            ["shed policy", args.shed_policy]]
    for name, label in (
        ("with_shedding", "shed"), ("without_shedding", "no-shed")
    ):
        for point in curves[name]:
            detail = (
                f"goodput {point['goodput_mops']:.1f} Mops, "
                f"shed {point['shed_rate']:.0%}"
            )
            if "latency_p99_ns" in point:
                detail += f", p99 {point['latency_p99_ns'] / 1e3:.1f} us"
            rows.append([f"{label} x{point['multiplier']:g}", detail])
    if args.export:
        with open(args.export, "w") as handle:
            json.dump(curves, handle, indent=2, sort_keys=True)
            handle.write("\n")
        rows.append(["export", args.export])
    print(format_table("Offered-load sweep", ["point", "result"], rows),
          file=out)
    return 0


def _cmd_soak(args, out) -> int:
    config = SoakConfig(
        seed=args.seed,
        num_shards=args.shards,
        num_keys=args.keys,
        ops_per_key=args.ops_per_key,
        overload=OverloadPolicy(
            queue_depth=args.queue_depth, shed_policy=args.shed_policy
        ),
        fault_plan=(
            FaultPlan.chaos(args.chaos) if args.chaos > 0 else None
        ),
        deadline_budget_ns=(
            args.deadline_us * 1e3 if args.deadline_us is not None else None
        ),
        cluster_nodes=args.nodes,
        cluster_slots=args.slots,
        kill_node=args.kill_node,
    )
    sampler = None
    if args.timeline:
        sampler = TimelineSampler(window_ns=args.window_ns,
                                  recorder=FlightRecorder())
    report = run_soak(config, timeline=sampler)
    if sampler is not None:
        _write_timeline(args.timeline, sampler)
        if sampler.recorder.dumps:
            with open(args.timeline + ".flight.json", "w") as handle:
                handle.write(sampler.recorder.dump_json() + "\n")
    problems = report.check()
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True),
              file=out)
    else:
        rows = [
            ["submitted", str(report.submitted)],
            ["completed", str(report.completed)],
            ["shed", str(report.shed)],
            ["deadline expired", str(report.expired)],
            ["failed", str(report.failed)],
            ["goodput", f"{report.goodput:.1%} "
                        f"(floor {report.goodput_floor:.0%})"],
            ["faults fired", str(report.faults_fired)],
            ["divergences", str(len(report.divergences))],
            ["digest", report.digest[:16]],
        ]
        if report.cluster:
            rows += [
                ["cluster", f"{report.cluster['alive_nodes']}/"
                            f"{report.cluster['nodes']} nodes alive, "
                            f"epoch {report.cluster['epoch']}"],
                ["failovers", str(report.cluster["failovers"])],
                ["retries", f"{report.robustness['node_down_retries']} "
                            f"node-down, "
                            f"{report.robustness['wrong_epoch_retries']} "
                            f"wrong-epoch"],
            ]
        rows.append(
            ["verdict", "PASS" if not problems else
             "FAIL: " + "; ".join(problems)]
        )
        print(format_table("Chaos soak", ["metric", "value"], rows),
              file=out)
    return 0 if not problems else 1


def _cmd_cluster(args, out) -> int:
    built = scenario.build(
        seed=args.seed,
        memory_size=4 << 20,
        corpus=args.corpus,
        kv_size=args.kv_size,
        put_ratio=args.put_ratio,
        nodes=args.nodes,
        slots=args.slots,
    )
    sim, cluster = built.sim, built.cluster
    ops = built.operations(args.ops)
    if args.kill_node:
        if args.nodes < 2:
            raise ConfigurationError("--kill-node needs --nodes >= 2 (a "
                                     "backup must exist to promote)")
        target = cluster.map.primary(cluster.map.slot_of(ops[0].key))
        cluster.kill_after_accepts(
            target, max(1, int(0.4 * len(ops) / args.nodes))
        )
    sampler = None
    if args.timeline:
        sampler = TimelineSampler(window_ns=args.window_ns)
        cluster.attach_timeline(sampler)
        sampler.start()
    router = ClusterRouter(sim, cluster, seed=args.seed)
    wall_start = time.perf_counter()
    stats = router.run(ops, concurrency=args.concurrency)
    wall_clock_s = time.perf_counter() - wall_start
    if sampler is not None:
        sampler.finish()
        _write_timeline(args.timeline, sampler)
    payload = dict(stats)
    payload["counters"] = dict(sorted(cluster.counters.snapshot().items()))
    payload["robustness"] = router.robustness_snapshot()
    payload["alive_nodes"] = cluster.alive_nodes
    if sampler is not None:
        # Only when --timeline is given: the default payload stays
        # byte-identical to pre-timeline builds.
        payload["timeline"] = {
            "windows": sampler.windows,
            "digest": sampler.digest(),
            "path": args.timeline,
        }
    if args.snapshot:
        snapshot = bench_history.snapshot_from_run(
            f"cluster-{args.nodes}n", cluster.nodes[0].stack.processor,
            # Wall-clock fields go to the snapshot only: the JSON payload
            # stays deterministic.
            {**stats, "wall_clock_s": wall_clock_s,
             "sim_ops_per_wall_s": len(ops) / wall_clock_s},
            extra={
                "seed": args.seed,
                "nodes": args.nodes,
                "slots": args.slots,
                "corpus": args.corpus,
                "put_ratio": args.put_ratio,
                "kill_node": bool(args.kill_node),
                "epoch": cluster.map.epoch,
                "failovers": cluster.counters.get("failovers"),
                "replication_records": cluster.counters.get(
                    "replication_records"
                ),
            },
        )
        snapshot.save(args.snapshot)
        payload["snapshot"] = args.snapshot
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return 0
    rows = [
        ["nodes", f"{cluster.alive_nodes}/{args.nodes} alive"],
        ["slots", str(args.slots)],
        ["epoch", str(cluster.map.epoch)],
        ["operations", str(int(stats["operations"]))],
        ["completed", str(int(stats["completed"]))],
        ["failed", str(int(stats["failed"]))],
        *_latency_rows(stats, pcts=(50, 99)),
        ["replication records",
         str(cluster.counters.get("replication_records"))],
        ["failovers", str(cluster.counters.get("failovers"))],
    ]
    if cluster.failover_time_ns.count:
        rows.append([
            "failover time",
            f"{cluster.failover_time_ns.mean() / 1e3:.2f} us",
        ])
    if args.snapshot:
        rows.append(["snapshot", args.snapshot])
    if sampler is not None:
        rows.append(
            ["timeline", f"{sampler.windows} windows -> {args.timeline}"]
        )
    print(format_table("Cluster run", ["metric", "value"], rows), file=out)
    return 0


def _cmd_multinic(args, out) -> int:
    built = scenario.build(
        seed=args.seed, memory_size=4 << 20, corpus=args.corpus,
        shards=args.nics,
    )
    server = built.server
    keys = [built.keyspace.key(i) for i in range(args.corpus)]
    ops = [
        KVOperation.get(keys[i % len(keys)], seq=i) for i in range(args.ops)
    ]
    if args.direct:
        stats = run_closed_loop(
            server, ops, concurrency=args.concurrency_per_nic
        )
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True), file=out)
            return 0
        mean = stats.get("latency_mean_ns")
        rows = [
            ["NICs", str(int(stats["nics"]))],
            ["operations", str(int(stats["operations"]))],
            ["elapsed", f"{stats['elapsed_ns'] / 1e3:.1f} us"],
            *_latency_rows(stats, pcts=(50, 95, 99)),
            ["mean latency",
             "n/a" if mean is None else f"{mean / 1e3:.2f} us"],
            ["per-NIC throughput", f"{stats['per_nic_mops']:.2f} Mops"],
        ]
        print(format_table("Multi-NIC scaling (direct submit)",
                           ["metric", "value"], rows), file=out)
        return 0
    stats = server.router(
        batch_size=args.batch_size, max_outstanding_batches=8
    ).run(ops)
    if args.json:
        payload = stats.as_dict()
        payload["per_shard"] = [s.as_dict() for s in stats.per_shard]
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return 0
    rows = [
        ["NICs", str(stats.shards)],
        ["operations", str(stats.operations)],
        ["elapsed", f"{stats.elapsed_ns / 1e3:.1f} us"],
        ["aggregate throughput", f"{stats.throughput_mops:.2f} Mops"],
        ["per-NIC throughput", f"{stats.per_shard_mops:.2f} Mops"],
    ]
    for index, shard in enumerate(stats.per_shard):
        rows.append([f"nic{index} operations", str(shard.operations)])
        for label, value in _latency_rows(shard.as_dict(), pcts=(99,)):
            rows.append([f"nic{index} {label}", value])
    print(format_table("Multi-NIC scaling (end-to-end)",
                       ["metric", "value"], rows), file=out)
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # Subcommand ``x`` is implemented by ``_cmd_x``.
        return globals()[f"_cmd_{args.command}"](args, out or sys.stdout)
    except BrokenPipeError:
        # Downstream consumer (head, less) closed the pipe: not an error.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0
    except (ConfigurationError, KeyTooLargeError, ProtocolError,
            OSError) as exc:
        # A store too large to reserve, a missing or truncated trace or a
        # KV in it no slab holds, an unwritable export: one line, exit 1.
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
