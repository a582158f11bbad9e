"""Resident memory follows the bytes a run writes, not the size it models.

The host image, the NIC-DRAM cache tags and the slab free pool take no
memory until an operation touches them, so building a store is cheap at
any modelled size.  The host image is resident by the 512 B chunk, not by
the 4 KiB page, so scattered 64 B buckets do not each cost a page.  A
latency sample takes 8 bytes, and no run imports numpy, whether it draws
uniform or Zipf keys, nor OpenSSL (``hashlib``) unless it asks for a
digest.  Linux only: the footprint is ``VmRSS`` from
``/proc/self/status``.  The import and sample checks run in a fresh
interpreter, since this one has imported numpy through other tests and
holds their freed memory.
"""

import ctypes
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import constants
from repro.core.config import KVDirectConfig
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.errors import ConfigurationError
from repro.sim import Simulator

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="reads VmRSS from /proc/self/status",
)

#: Growth allowed while a store and its processor are built, whatever
#: their modelled size.
BUDGET_MIB = 64


def vm_rss_mib() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise AssertionError("no VmRSS line")  # pragma: no cover


def test_a_1_gib_store_and_its_processor_stay_small():
    before = vm_rss_mib()
    store = KVDirectStore.create(memory_size=1 << 30)
    processor = KVProcessor(Simulator(), store)
    grown = vm_rss_mib() - before
    assert grown < BUDGET_MIB, f"+{grown:.0f} MiB to build a 1 GiB store"
    # Written pages, and only they, become resident; the store works.
    assert store.put(b"key", b"v" * 200)
    assert store.get(b"key") == b"v" * 200
    assert processor.cache.stats.accesses == 0
    assert vm_rss_mib() - before < BUDGET_MIB


def test_paper_scale_builds_or_is_refused_as_a_configuration_error():
    """64 GiB of host KVS: built if the OS grants the reservation, and if
    not, a ConfigurationError that names the size - never an OSError or a
    MemoryError."""
    before = vm_rss_mib()
    try:
        store = KVDirectStore(KVDirectConfig.paper_scale())
    except ConfigurationError as exc:
        assert str(constants.HOST_KVS_SIZE) in str(exc)
        return
    grown = vm_rss_mib() - before
    assert grown < BUDGET_MIB, f"+{grown:.0f} MiB to build 64 GiB"
    assert store.put(b"key", b"value") and store.get(b"key") == b"value"


SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this checkout; its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_point_scan_cluster_kill_and_zipf_runs_never_import_numpy_or_openssl():
    """Nor do the Zipf runs: a 4-shard wire run shaped like the benchmark's
    ``net-sharded`` (ranks unshuffled) and a shuffled ``repro ycsb
    --distribution zipf``.  ``_hashlib`` is OpenSSL's ``libcrypto``, 3.5
    MiB that only a digest needs."""
    out = run_fresh("""
        import io, sys
        from repro import cli, scenario
        from repro.client.router import ClusterRouter
        from repro.core.operations import KVOperation
        from repro.driver import run_closed_loop
        from repro.workloads.zipf import ZipfSampler

        point = scenario.build(seed=7, corpus=400, put_ratio=0.5)
        stats = run_closed_loop(point.processor, point.operations(300))
        assert stats["latency_p99_ns"] > 0
        scan = scenario.build(seed=7, corpus=400, ordered_index=True)
        ranges = [KVOperation.range(scan.keyspace.key(i), 5, seq=i)
                  for i in range(0, 400, 4)]
        run_closed_loop(scan.processor, ranges)
        multi = scenario.build(seed=7, corpus=300, put_ratio=0.5, nodes=3)
        cluster = multi.cluster
        cluster.kill_after_accepts(cluster.map.primary(0), 30)
        ClusterRouter(multi.sim, cluster, seed=7).run(
            multi.operations(300), concurrency=16
        )
        assert cluster.alive_nodes == 2
        print("numpy" in sys.modules, "_hashlib" in sys.modules)
        sharded = scenario.build(
            seed=7, memory_size=2 << 20, corpus=1000, kv_size=254,
            put_ratio=0.05, distribution="zipf", shards=4,
        )
        sharded.generator.sampler = ZipfSampler(1000, seed=7, shuffle=False)
        ops = sharded.operations(600)
        stats = sharded.server.router(batch_size=32, seed=7).run(ops)
        assert stats.operations == 600
        assert not any(shard.failed_ops for shard in stats.per_shard)
        out = io.StringIO()
        assert cli.main([
            "ycsb", "--ops", "500", "--corpus", "500",
            "--put-ratio", "0.5", "--distribution", "zipf",
        ], out) == 0
        assert "long-tail" in out.getvalue(), out.getvalue()
        print("numpy" in sys.modules, "_hashlib" in sys.modules)
    """)
    assert out.split() == ["False"] * 4


def test_hashlib_loads_at_the_first_trace_digest_and_matches_the_golden():
    """The 200-op run behind ``tests/goldens/trace_seed7_ops200.log``
    (``repro trace --seed 7 --ops 200``) imports no ``hashlib`` until
    ``Tracer.digest()`` is called, and that call returns the pinned
    digest."""
    out = run_fresh("""
        import sys
        from repro import scenario
        from repro.obs.tracer import Tracer

        tracer = Tracer(sample_rate=1.0, seed=7)
        built = scenario.build(
            seed=7, memory_size=8 << 20, corpus=500, kv_size=13,
            put_ratio=0.5, shards=1, tracer=tracer,
        )
        built.server.router(batch_size=16).run(built.operations(200))
        print("hashlib" in sys.modules, "_hashlib" in sys.modules)
        print(tracer.digest())
        print("hashlib" in sys.modules)
    """)
    golden = (
        Path(__file__).resolve().parent / "goldens" / "trace_seed7_ops200.log"
    ).read_text().splitlines()[-1]
    assert golden.startswith("# spans=1908 digest="), golden
    before, digest, after = out.splitlines()
    assert before == "False False"
    assert digest == golden.rsplit("digest=", 1)[1]
    assert after == "True"


def test_a_million_latency_samples_take_8_bytes_each():
    """A Python float in a list took 32 bytes: 31 MiB for a million."""
    out = run_fresh("""
        from repro.sim import Histogram

        def vm_rss_kib():
            with open("/proc/self/status") as status:
                for line in status:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1])

        hist = Histogram()
        record = hist.record
        before = vm_rss_kib()
        for i in range(1_000_000):
            record(i * 0.5)
        print((vm_rss_kib() - before) / 1024)
        assert hist.percentile(50) == 249999.75
    """)
    grown = float(out)
    assert grown < 12, f"+{grown:.1f} MiB for a million samples"


#: ``vm_rss_kib()`` for a :func:`run_fresh` program, indented as its body is.
VM_RSS_KIB = """
        def vm_rss_kib():
            with open("/proc/self/status") as status:
                for line in status:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1])
"""


def test_scattered_buckets_cost_a_chunk_each_not_a_page():
    """5,000 random 64 B buckets over the 8 MiB index half of a 16 MiB
    image land on about 1,870 of its 2,048 pages (7.3 MiB), but on only
    about 4,300 chunks of 512 B (2.1 MiB)."""
    out = run_fresh(VM_RSS_KIB + """
        import random
        from repro.dram.host import MemoryImage

        size = 16 << 20
        mem = MemoryImage(size)
        rng = random.Random(7)
        addrs = [rng.randrange(size // 2 // 64) * 64 for _ in range(5000)]
        line = b"b" * 64
        before = vm_rss_kib()
        for addr in addrs:
            mem.write(addr, line)
        print((vm_rss_kib() - before) / 1024)
        assert all(mem.read(addr, 64) == line for addr in addrs)
    """)
    grown = float(out)
    assert grown < 4, f"+{grown:.1f} MiB for 5,000 scattered buckets"


def test_a_1_gib_store_holding_20_000_inline_keys_stays_small():
    """Before the chunk table, the buckets these keys land in made 78 MiB
    of the 512 MiB index resident."""
    out = run_fresh(VM_RSS_KIB + """
        from repro.core.store import KVDirectStore

        keys = [i.to_bytes(8, "big") for i in range(20_000)]
        before = vm_rss_kib()
        store = KVDirectStore.create(memory_size=1 << 30)
        for key in keys:
            assert store.put(key, b"v" * 5)
        print((vm_rss_kib() - before) / 1024)
        assert store.get(keys[123]) == b"v" * 5 and len(store) == 20_000
    """)
    grown = float(out)
    assert grown < 24, f"+{grown:.1f} MiB for 20,000 inline keys in 1 GiB"


#: A ``point-direct``-shaped run fed 30,000 ops from a generator: 20,000
#: inline 13 B keys, half PUTs, 250 in flight; prints its VmRSS at the
#: 5,000th and at the 30,000th (last) result, before the run's closing
#: percentile read.
POINT_RUN = VM_RSS_KIB + """
        from repro.core.processor import KVProcessor
        from repro.core.store import KVDirectStore
        from repro.driver import run_closed_loop
        from repro.sim import Simulator
        from repro.workloads.keyspace import KeySpace
        from repro.workloads.ycsb import WorkloadSpec, YCSBGenerator

        keyspace = KeySpace(count=20_000, kv_size=13, seed=7)
        store = KVDirectStore.create(memory_size=8 << 20, seed=7)
        for key, value in keyspace.pairs():
            store.put(key, value)
        store.reset_measurements()
        processor = KVProcessor(Simulator(), store)
        generator = YCSBGenerator(
            keyspace, WorkloadSpec(put_ratio=0.5, seed=7)
        )
        results = [0]

        def sink(op, result):
            results[0] += 1
            if results[0] in (5_000, 30_000):
                print(vm_rss_kib())

        run_closed_loop(processor, generator.stream(30_000),
                        concurrency=250, sink=sink)
"""


def test_a_generator_fed_run_grows_by_its_histograms_not_its_ops():
    """Between its 5,000th and 30,000th result a generator-fed run keeps
    its latency, memory-time and PCIe read-latency samples (8 B each) and
    nothing else per op: at most 48 B per extra op, so keeping one more
    float per op (32 B) fails.  Fed a list, the op objects and their
    key-hash caches made that 414 B per op.  Both readings are taken
    mid-run: the closing percentile read sorts the samples through one
    float object each, a transient whose pages stay resident only when no
    freed memory is left to hold them."""
    grown = [int(line) for line in run_fresh(POINT_RUN).split()]
    per_op = (grown[1] - grown[0]) * 1024 / 25_000
    assert per_op <= 48, f"{per_op:.0f} B per extra op ({grown} KiB)"


#: Three small generator-fed runs, one per driver, each with a counting
#: sink: prints, per driver, the bytes the run left allocated and the
#: samples it added to the live histograms.  The bytes are the
#: allocators' own counts - pymalloc's allocated blocks, which
#: ``sys._debugmallocstats`` writes to the C stderr, plus what glibc's
#: ``malloc`` has handed out - so the run is not slowed as tracemalloc
#: slows it, about sixfold.
RETAINED = """
        import ctypes, gc, os, re, sys, tempfile
        from repro import scenario
        from repro.client.router import ClusterRouter
        from repro.driver import run_closed_loop
        from repro.sim.stats import Histogram
        from repro.workloads.zipf import ZipfSampler

        class MallInfo2(ctypes.Structure):
            _fields_ = [(name, ctypes.c_size_t) for name in (
                "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
                "fsmblks", "uordblks", "fordblks", "keepcost",
            )]

        mallinfo2 = ctypes.CDLL(None).mallinfo2
        mallinfo2.restype = MallInfo2

        def allocated():
            with tempfile.TemporaryFile() as stats:
                stderr = os.dup(2)
                os.dup2(stats.fileno(), 2)
                try:
                    sys._debugmallocstats()
                finally:
                    os.dup2(stderr, 2)
                    os.close(stderr)
                stats.seek(0)
                small = re.search(
                    rb"# bytes in allocated blocks *= *([0-9,]+)",
                    stats.read(),
                )
            info = mallinfo2()
            return (int(small[1].replace(b",", b"")) + info.uordblks
                    + info.hblkhd)

        def samples():
            return sum(
                obj.count for obj in gc.get_objects()
                if isinstance(obj, Histogram)
            )

        def retained(run):
            gc.collect()
            before = samples()
            base = allocated()
            run()
            gc.collect()
            print(allocated() - base, samples() - before)

        count = [0]

        def sink(op, result):
            count[0] += 1

        point = scenario.build(seed=7, memory_size=8 << 20, corpus=4000,
                               put_ratio=0.5)
        retained(lambda: run_closed_loop(
            point.processor, point.generator.stream(6000),
            concurrency=250, sink=sink,
        ))
        sharded = scenario.build(
            seed=7, memory_size=4 << 20, corpus=2000, kv_size=254,
            put_ratio=0.05, distribution="zipf", shards=4,
        )
        sharded.generator.sampler = ZipfSampler(2000, seed=7, shuffle=False)
        router = sharded.server.router(batch_size=32, seed=7, sink=sink)
        retained(lambda: router.run(sharded.generator.stream(6000)))
        multi = scenario.build(seed=7, memory_size=2 << 20, corpus=1000,
                               put_ratio=0.5, nodes=3)
        cluster = multi.cluster
        cluster.kill_after_accepts(cluster.map.primary(0), 600)
        router = ClusterRouter(multi.sim, cluster, seed=7, sink=sink)
        retained(lambda: router.run(multi.generator.stream(6000),
                                    concurrency=64))
        print(count[0])
"""


def test_after_a_run_only_the_histograms_hold_memory():
    """``run_closed_loop``, a ``ShardRouter`` over the wire and a
    ``ClusterRouter`` through a failover, each fed 6,000 ops from a
    generator into a counting sink: what the run leaves allocated is the
    samples it added to its histograms at 8 B each, plus at most 256 KiB.
    A run that kept one float per op (32 B in pymalloc, 8 B in a list)
    leaves at least 240 KB more, over the bound on every driver."""
    if not hasattr(ctypes.CDLL(None), "mallinfo2"):
        pytest.skip("needs glibc's mallinfo2")
    lines = run_fresh(RETAINED).split()
    assert int(lines[-1]) >= 3 * 6000 - 10  # the sinks saw the results
    for driver, (grown, samples) in zip(
        ("run_closed_loop", "ShardRouter", "ClusterRouter"),
        zip(map(int, lines[0:6:2]), map(int, lines[1:6:2])),
    ):
        assert grown <= 8 * samples + (256 << 10), (driver, grown, samples)
