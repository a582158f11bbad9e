"""Tests for the observability layer: metrics registry + tracer."""

import json

import pytest

from repro import scenario
from repro.client.client import KVClient
from repro.client.router import ClusterRouter
from repro.core.operations import KVOperation
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.dram.cache import CacheStats
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, Tracer
from repro.obs.tracer import UNTIMED, Span
from repro.sim import Counter, Histogram, Simulator
from repro.workloads import KeySpace, WorkloadSpec, YCSBGenerator


class TestRegistryRegistration:
    def test_register_infers_kinds(self):
        registry = MetricsRegistry()
        registry.register("pipe", Counter())
        registry.register("pipe.latency_ns", Histogram())
        registry.register("cache", CacheStats())
        registry.register_gauge("depth", lambda: 3)
        assert "pipe" in registry
        assert list(registry._sources) == [
            "pipe", "pipe.latency_ns", "cache", "depth",
        ]

    def test_callable_registers_as_gauge(self):
        registry = MetricsRegistry()
        registry.register("util", lambda: 0.5)
        assert registry.collect() == {"util": 0.5}

    def test_bad_name_rejected(self):
        registry = MetricsRegistry()
        for bad in ("Pipe", "1x", "a..b", "a.", ".a", "a b"):
            with pytest.raises(ConfigurationError):
                registry.register(bad, Counter())

    def test_duplicate_rejected(self):
        registry = MetricsRegistry()
        registry.register("x", Counter())
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("x", Counter())

    def test_unknown_source_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError, match="cannot register"):
            registry.register("x", object())


class TestRegistryExport:
    def _small_registry(self):
        registry = MetricsRegistry()
        counter = registry.register("station", Counter())
        counter.add("issued", 3)
        counter.add("queued", 1)
        hist = registry.register("station.wait_ns", Histogram())
        hist.extend([10.0, 20.0, 30.0, 40.0])
        cache = registry.register("dram.cache", CacheStats())
        cache.hits, cache.misses = 3, 1
        registry.register_gauge("station.occupancy", lambda: 2)
        return registry

    def test_collect_is_flat_and_sorted(self):
        flat = self._small_registry().collect()
        assert list(flat) == sorted(flat)
        assert flat["station.issued"] == 3
        assert flat["station.wait_ns.count"] == 4
        assert flat["station.wait_ns.mean"] == 25.0
        assert flat["station.wait_ns.min"] == 10.0
        assert flat["station.wait_ns.max"] == 40.0
        assert flat["dram.cache.hit_rate"] == 0.75
        assert flat["station.occupancy"] == 2.0

    def test_live_values(self):
        registry = MetricsRegistry()
        counter = registry.register("c", Counter())
        assert registry.collect() == {}
        counter.add("events", 2)
        assert registry.collect() == {"c.events": 2}

    def test_json_round_trips(self):
        registry = self._small_registry()
        data = json.loads(registry.to_json())
        assert data == registry.collect()

    def test_prometheus_golden(self):
        """Exact exposition text for a small, fully controlled registry."""
        registry = MetricsRegistry()
        counter = registry.register("eth", Counter())
        counter.add("rx_packets", 2)
        counter.add("rx_bytes", 128)
        hist = registry.register("lat_ns", Histogram())
        hist.record(2.0)  # one sample: every quantile is exactly 2
        registry.register_gauge("util", lambda: 0.25)
        assert registry.to_prometheus() == (
            "# TYPE kvdirect_eth counter\n"
            "kvdirect_eth_rx_bytes 128\n"
            "kvdirect_eth_rx_packets 2\n"
            "# TYPE kvdirect_lat_ns summary\n"
            'kvdirect_lat_ns{quantile="0.5"} 2\n'
            'kvdirect_lat_ns{quantile="0.95"} 2\n'
            'kvdirect_lat_ns{quantile="0.99"} 2\n'
            "kvdirect_lat_ns_sum 2\n"
            "kvdirect_lat_ns_count 1\n"
            "# TYPE kvdirect_util gauge\n"
            "kvdirect_util 0.25\n"
        )

    def test_empty_histogram_exports_count_only(self):
        registry = MetricsRegistry()
        registry.register("h", Histogram())
        assert registry.collect() == {"h.count": 0}
        assert "kvdirect_h_count 0" in registry.to_prometheus()

    def test_prometheus_sanitizes_dots(self):
        registry = MetricsRegistry()
        registry.register_gauge("a.b.c", lambda: 1)
        text = registry.to_prometheus()
        assert "kvdirect_a_b_c 1" in text
        assert "a.b.c" not in text

    def test_prometheus_sanitizes_derived_hit_rate_family(self):
        # The cache's derived `<name>.hit_rate` gauge family must be
        # sanitized like every other family name.
        registry = MetricsRegistry()
        cache = registry.register("dram.cache", CacheStats())
        cache.hits, cache.misses = 3, 1
        text = registry.to_prometheus()
        assert "# TYPE kvdirect_dram_cache_hit_rate gauge" in text
        assert "kvdirect_dram_cache_hit_rate 0.75" in text
        assert "dram.cache" not in text

    def test_prometheus_dedupes_colliding_type_lines(self):
        # A cache named `x` derives a `x.hit_rate` gauge family; a
        # user-registered gauge of the same name must not produce a
        # second `# TYPE` line for it.
        registry = MetricsRegistry()
        cache = registry.register("x", CacheStats())
        cache.hits, cache.misses = 1, 1
        registry.register_gauge("x.hit_rate", lambda: 0.5)
        text = registry.to_prometheus()
        assert text.count("# TYPE kvdirect_x_hit_rate gauge") == 1
        type_lines = [
            line for line in text.splitlines() if line.startswith("# TYPE")
        ]
        assert len(type_lines) == len(set(type_lines))


class TestTracerUnit:
    def test_invalid_rate_rejected(self):
        for rate in (-0.1, 1.1, 2.0):
            with pytest.raises(ConfigurationError):
                Tracer(sample_rate=rate)

    def test_rate_zero_emits_nothing(self):
        tracer = Tracer(sample_rate=0.0)
        tracer.emit(1, "ingress")
        tracer.emit(-1, "eth.rx")
        assert len(tracer) == 0
        assert tracer.dumps() == ""

    def test_rate_one_emits_everything(self):
        tracer = Tracer(sample_rate=1.0)
        for seq in range(5):
            tracer.emit(seq, "ingress")
        assert len(tracer) == 5

    def test_partial_rate_is_seed_stable(self):
        a = Tracer(sample_rate=0.3, seed=42)
        b = Tracer(sample_rate=0.3, seed=42)
        decisions_a = [a.sampled(s) for s in range(500)]
        decisions_b = [b.sampled(s) for s in range(500)]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_sampled_fraction_tracks_the_rate(self):
        """Regression: raw FNV-1a of short "seed:seq" strings clustered
        in [0.17, 0.21], making rates outside that band all-or-nothing;
        the avalanche finalizer spreads draws over [0, 1)."""
        for rate in (0.1, 0.3, 0.7):
            tracer = Tracer(sample_rate=rate, seed=7)
            hits = sum(tracer.sampled(s) for s in range(2000))
            assert abs(hits / 2000 - rate) < 0.05, (rate, hits)

    def test_different_seeds_sample_differently(self):
        a = Tracer(sample_rate=0.3, seed=1)
        b = Tracer(sample_rate=0.3, seed=2)
        assert [a.sampled(s) for s in range(500)] != [
            b.sampled(s) for s in range(500)
        ]

    def test_untimed_without_clock(self):
        tracer = Tracer()
        tracer.emit(0, "ingress")
        assert tracer.spans[0].at_ns == UNTIMED

    def test_the_simulator_stamps_its_tracers_spans(self):
        tracer = Tracer()
        sim = Simulator(tracer=tracer)
        assert sim.tracer is tracer
        sim.now = 123.5
        tracer.emit(0, "ingress", "op=GET")
        tracer.annotate("cluster.failover", "node1")
        span = tracer.spans[0]
        assert span == Span(0, 0, "ingress", 123.5, "op=GET")
        assert span.render() == "000000 seq=0 at=123.500 ingress op=GET"
        assert tracer.annotations == [("cluster.failover", 123.5, "node1")]

    def test_a_tracer_belongs_to_one_simulator(self):
        """A second simulator would stamp the first one's span log with
        its own clock."""
        tracer = Tracer()
        Simulator(tracer=tracer)
        with pytest.raises(ConfigurationError, match="another simulator"):
            Simulator(tracer=tracer)

    def test_stage_counters(self):
        tracer = Tracer()
        tracer.emit(0, "ingress")
        tracer.emit(1, "ingress")
        tracer.emit(0, "complete")
        assert tracer.counters["ingress"] == 2
        assert tracer.counters["complete"] == 1


def _traced_run(seed: int, ops: int = 120, sample: float = 1.0):
    """A small seeded client workload with a tracer attached."""
    tracer = Tracer(sample_rate=sample, seed=seed)
    sim = Simulator(tracer=tracer)
    store = KVDirectStore.create(memory_size=4 << 20, seed=seed)
    keyspace = KeySpace(count=200, kv_size=13, seed=seed)
    for key, value in keyspace.pairs():
        store.put(key, value)
    store.reset_measurements()
    processor = KVProcessor(sim, store)
    client = KVClient(sim, processor, batch_size=16)
    generator = YCSBGenerator(
        keyspace, WorkloadSpec(put_ratio=0.5, seed=seed)
    )
    client.run(generator.operations(ops))
    return processor, client, tracer


class TestTraceDeterminism:
    def test_two_seeded_runs_byte_identical(self):
        __, __, first = _traced_run(seed=7)
        __, __, second = _traced_run(seed=7)
        assert first.dumps() == second.dumps()
        assert first.digest() == second.digest()
        assert len(first) > 0

    def test_different_seeds_diverge(self):
        __, __, first = _traced_run(seed=7)
        __, __, second = _traced_run(seed=8)
        assert first.digest() != second.digest()

    def test_spans_are_time_ordered_per_index(self):
        __, __, tracer = _traced_run(seed=3)
        indices = [span.index for span in tracer.spans]
        assert indices == list(range(len(tracer)))
        timed = [s.at_ns for s in tracer.spans if s.at_ns != UNTIMED]
        assert timed == sorted(timed)

    def test_full_pipeline_stages_present(self):
        __, __, tracer = _traced_run(seed=5)
        stages = {span.stage for span in tracer.spans}
        for expected in (
            "ingress", "decode", "pipeline.start", "pipeline.done",
            "mem.route", "complete", "eth.rx", "eth.tx",
            "client.batch.send", "client.batch.done",
        ):
            assert expected in stages, f"missing stage {expected}"
        # At least one execute/queue decision happened.
        assert stages & {"station.execute", "station.queued"}

    def test_one_tracer_sees_every_layer_of_a_cluster_run(self):
        """The simulator's one tracer collects the spans of every model on
        every node - processor stages, PCIe, NIC DRAM, a wire client's
        Ethernet and batch spans - and the failover's annotations."""
        tracer = Tracer(seed=3)
        built = scenario.build(
            seed=3, memory_size=2 << 20, corpus=200, put_ratio=0.5,
            nodes=3, tracer=tracer,
        )
        cluster = built.cluster
        ops = built.operations(600)
        target = cluster.map.primary(cluster.map.slot_of(ops[0].key))
        reads = [
            KVOperation.get(op.key, seq=seq) for seq, op in enumerate(ops[:40])
        ]
        built.server.stacks[(target + 1) % 3].client(batch_size=8).run(reads)
        cluster.kill_after_accepts(target, 60)
        ClusterRouter(built.sim, cluster, seed=3).run(ops)
        assert cluster.counters.get("failovers") == 1

        families = {span.stage.split(".")[0] for span in tracer.spans}
        assert {
            "ingress", "decode", "station", "pipeline", "complete", "mem",
            "pcie", "dram", "eth", "client",
        } <= families
        # Every node's admissions are in the one log, stamped by one clock.
        admitted = [p.counters["admitted"] for p in built.server.processors]
        assert min(admitted) > 0
        ingress = [span for span in tracer.spans if span.stage == "ingress"]
        assert len(ingress) == sum(admitted)
        indices = [span.index for span in tracer.spans]
        assert indices == list(range(len(tracer)))
        timed = [span.at_ns for span in tracer.spans if span.at_ns != UNTIMED]
        assert timed == sorted(timed)

        events = json.loads(tracer.export_chrome())["traceEvents"]
        marks = {
            e["name"]: e["ts"] for e in events if e.get("cat") == "annotation"
        }
        assert {
            "cluster.node_kill", "cluster.failover_start",
            "cluster.epoch_bump", "cluster.slot_migrated",
        } <= set(marks)
        assert marks["cluster.node_kill"] > 0


class TestTraceSampling:
    def test_rate_zero_traces_no_ops(self):
        __, __, tracer = _traced_run(seed=2, sample=0.0)
        assert len(tracer) == 0

    def test_rate_zero_digest_is_stable_and_empty(self):
        # An entirely unsampled run still has a well-defined digest (of
        # the empty log) and it is identical across runs and seeds.
        __, __, first = _traced_run(seed=2, sample=0.0)
        __, __, second = _traced_run(seed=9, sample=0.0)
        assert first.dumps() == ""
        assert first.digest() == second.digest()
        assert first.digest() == Tracer(sample_rate=0.0).digest()

    def test_sampled_sets_nest_as_rate_rises(self):
        # Raising the rate only ever adds operations: the hash draw per
        # seq is fixed, so sampled(0.2) <= sampled(0.5) <= sampled(0.8).
        sets = {}
        for rate in (0.2, 0.5, 0.8):
            tracer = Tracer(sample_rate=rate, seed=7)
            sets[rate] = {s for s in range(2000) if tracer.sampled(s)}
        assert sets[0.2] < sets[0.5] < sets[0.8]
        for rate, seqs in sets.items():
            assert abs(len(seqs) / 2000 - rate) < 0.05

    def test_rate_one_traces_every_op(self):
        __, __, tracer = _traced_run(seed=2, ops=60, sample=1.0)
        completed = {
            span.seq for span in tracer.spans if span.stage == "complete"
        }
        assert completed == set(range(60))

    def test_partial_rate_subset_of_full(self):
        __, __, full = _traced_run(seed=2, sample=1.0)
        __, __, part = _traced_run(seed=2, sample=0.4)
        full_seqs = {s.seq for s in full.spans}
        part_seqs = {s.seq for s in part.spans}
        assert part_seqs <= full_seqs
        assert 0 < len(part.spans) < len(full.spans)
        # Sampled ops carry their complete stage sequence, not fragments.
        for seq in part_seqs - {-1}:
            assert [s.stage for s in part.spans if s.seq == seq] == [
                s.stage for s in full.spans if s.seq == seq
            ]


class TestProcessorRegistry:
    def test_register_metrics_covers_every_layer(self):
        processor, client, __ = _traced_run(seed=11)
        registry = processor.register_metrics()
        client.register_metrics(registry)
        flat = registry.collect()
        prefixes = {name.split(".")[0] for name in flat}
        for layer in (
            "processor", "station", "pcie", "mem", "dram", "eth", "client",
        ):
            assert layer in prefixes, f"missing layer {layer}"
        assert flat["eth.rx_packets"] > 0
        assert flat["processor.completed_ops"] > 0
        assert "trace" in prefixes  # tracer was attached

    def test_exports_parse(self):
        processor, __, __ = _traced_run(seed=11)
        registry = processor.register_metrics()
        data = json.loads(registry.to_json())
        assert data
        text = registry.to_prometheus()
        assert text.startswith("# TYPE kvdirect_")
        assert text.endswith("\n")

    def test_registering_twice_on_same_registry_fails(self):
        processor, __, __ = _traced_run(seed=11)
        registry = processor.register_metrics()
        with pytest.raises(ConfigurationError, match="already registered"):
            processor.register_metrics(registry)
