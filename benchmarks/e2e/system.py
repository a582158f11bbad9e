"""The system under test: every ``repro`` import of the benchmark is here.

Four workloads, each a fresh topology per repetition.  A workload object
goes through ``build()`` (set-up: topology, corpus, op stream), ``run()``
(the timed section, nothing else), ``measure()`` (simulated end-to-end and
per-layer numbers, read from the system's public counters after the run)
and ``check()`` (the output oracle).  Caches start empty in every
repetition: the corpus is loaded functionally, bypassing the timed NIC
path, so the NIC-DRAM cache sees its first access inside the timed section.

Only public ``repro`` API is used, so a rename there is a one-file change.
"""

from __future__ import annotations

import os
import random
import sys
from bisect import bisect_left
from typing import Dict, List, Optional

from spec import ROOT

sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402
from repro.client.router import ClusterRouter  # noqa: E402
from repro.core.config import KVDirectConfig  # noqa: E402
from repro.core.operations import (  # noqa: E402
    KVOperation,
    OpType,
    decode_scan_payload,
)
from repro.core.processor import KVProcessor  # noqa: E402
from repro.core.store import KVDirectStore  # noqa: E402
from repro.driver import run_closed_loop  # noqa: E402
from repro.multi import Cluster, MultiNICServer  # noqa: E402
from repro.obs import MetricsRegistry, StageProfiler  # noqa: E402
from repro.sim import Event, Histogram, Process, Simulator, Timeout  # noqa: E402
from repro.workloads import (  # noqa: E402
    KeySpace,
    WorkloadSpec,
    YCSBGenerator,
    ZipfSampler,
)

#: Where the ``repro`` sources are, for the ledger's path -> layer map.
PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))
if PACKAGE_DIR != str(ROOT / "src" / "repro"):
    raise ImportError(
        f"the benchmark measures this checkout's src/repro, but repro was "
        f"imported from {PACKAGE_DIR}"
    )

#: Kernel ledger: counter -> the function whose exact call count it is.
#: ``Event.__init__`` also runs for every Timeout and Process (they call
#: ``super().__init__``), so ``events`` counts all event objects built.
KERNEL_FUNCTIONS = {
    "sim.events_per_op": Event.__init__.__code__,
    "sim.processes_per_op": Process.__init__.__code__,
    "sim.resumes_per_op": Process._resume.__code__,
    "sim.timeouts_per_op": Timeout.__init__.__code__,
}

#: The issue sized the op counts for 5-8 s per timed repetition; the
#: contract caps 92 runs at 3420 s, so all four are scaled by this one
#: recorded factor (``--scale`` multiplies on top, for smoke tests only).
CAP_SCALE = 0.5

#: Per-layer rows of layers only some workloads have on their path: null
#: (never 0) on the others.
OFF_PATH_ROWS = (
    "network.bytes_per_op",
    "network.ops_per_packet",
    "network.link_utilisation",
    "client.retries_per_op",
    "client.busy_nacks_per_op",
    "client.router.shard_imbalance",
    "client.router.node_down_retries",
    "client.router.wrong_epoch_retries",
    "client.router.retry_give_ups",
    "multi.failover_time_ns",
    "multi.replication_lag_p99_ns",
    "multi.replication_records_per_put",
    "multi.migrated_keys",
    "multi.replication_divergences",
)


def _percentile(histogram, pct: float) -> Optional[float]:
    return histogram.percentile(pct) if histogram.count else None


def _merged(histograms) -> Histogram:
    merged = Histogram()
    for histogram in histograms:
        merged.record_many(histogram.samples())
    return merged


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    """``numerator / denominator``, or null when there is no denominator
    (the thing being normalised did not happen on this workload)."""
    return numerator / denominator if denominator else None


def _load(put, keyspace: KeySpace) -> Dict[bytes, bytes]:
    """Insert the whole corpus through ``put``; returns the dict model."""
    model = {}
    for key, value in keyspace.pairs():
        put(key, value)
        model[key] = value
    return model


def _distinct_put_values(ops: List[KVOperation]) -> List[KVOperation]:
    """Give every PUT a value no other op writes (same length).

    The generators rewrite a key's corpus value, so a stale read would
    equal a fresh one; stamping the op's sequence number into the value's
    tail makes the dict-model oracle see forwarding and ordering errors.
    """
    stamped = []
    for op in ops:
        if op.op is OpType.PUT:
            value = op.value[:-4] + op.seq.to_bytes(4, "big")
            op = KVOperation.put(op.key, value, seq=op.seq)
        stamped.append(op)
    return stamped


class _Recorder:
    """What ``run_closed_loop`` drives: the processor, keeping each op's
    response event so the oracle can read every result afterwards."""

    def __init__(self, processor: KVProcessor) -> None:
        self.sim = processor.sim
        self.latencies = processor.latencies
        self._submit = processor.submit
        self.events: List = []

    def submit(self, op: KVOperation):
        event = self._submit(op)
        self.events.append(event)
        return event


def _replay_point_ops(ops, results, model: Dict[bytes, bytes]) -> List[str]:
    """Replay GET/PUT ``ops`` through the dict model in submission order
    (per-key order is submission order) and compare every GET value.
    ``results`` yields each op's KVResult (None for a failed op)."""
    problems = []
    for op, result in zip(ops, results):
        if result is None:
            problems.append(f"seq {op.seq}: no result")
        elif op.op is OpType.PUT:
            model[op.key] = op.value
        elif result.value != model.get(op.key):
            problems.append(
                f"seq {op.seq}: GET {op.key!r} returned {result.value!r}, "
                f"model has {model.get(op.key)!r}"
            )
    return problems


def _compare_contents(stores, model: Dict[bytes, bytes], owner) -> List[str]:
    """Final store contents against the model: every model key reads back
    its value from the store ``owner(key)`` names, and the stores hold no
    other key (by count)."""
    problems = []
    for key, value in model.items():
        got = stores[owner(key)].get(key)
        if got != value:
            problems.append(f"final {key!r}: store has {got!r}, model {value!r}")
    held = sum(len(store) for store in stores)
    if held != len(model):
        problems.append(f"stores hold {held} keys, model {len(model)}")
    return problems


class Workload:
    """One repetition of one workload on a freshly built topology."""

    name = ""
    #: Op count before :data:`CAP_SCALE` and ``--scale``.
    base_ops = 0

    def __init__(self, seed: int, ops: int, observed: bool) -> None:
        self.seed = seed
        self.op_count = ops
        #: Attach the repo's pure observers (stage profilers).
        self.observed = observed

    # -- the four steps ------------------------------------------------------

    def build(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def measure(self) -> dict:
        """``{"completed", "attempted", "failed", "latency_samples",
        "end_to_end": {...}, "per_layer": {...}}`` on the simulated clock."""
        raise NotImplementedError

    def check(self) -> List[str]:
        """Oracle mismatches (empty when every output is correct).  Call
        after :meth:`measure`: the oracle's reads move access counters."""
        raise NotImplementedError

    # -- shared measurement over the NIC stacks -------------------------------

    def _processors(self) -> List[KVProcessor]:
        raise NotImplementedError

    def _profilers(self) -> List[StageProfiler]:
        return []

    def _stack_metrics(self, completed: int) -> dict:
        """Per-layer simulated metrics every workload has: read from the
        per-NIC registries (summed over NICs) and the stage profilers."""
        processors = self._processors()
        registry = MetricsRegistry()
        for index, processor in enumerate(processors):
            processor.register_metrics(registry, prefix=f"nic{index}")
        flat = registry.collect()

        def total(suffix: str) -> float:
            return sum(v for k, v in flat.items() if k.endswith("." + suffix))

        stores = [processor.store for processor in processors]
        gets = sum(store.table.get_cost.count for store in stores)
        puts = sum(store.table.put_cost.count for store in stores)
        scans = sum(store.index.scan_cost.count for store in stores)
        slab_ops = total("slab.allocs") + total("slab.frees")
        lines = (
            total("mem.pcie_direct")
            + total("mem.cache_hits")
            + total("mem.cache_misses")
        )
        dmas = total("dma_reads") + total("dma_writes")
        pcie_reads = _merged(
            link.read_latency_hist
            for processor in processors
            for link in processor.dma.links
        )
        nic_latency = _merged(p.latencies for p in processors)
        metrics = dict.fromkeys(OFF_PATH_ROWS)
        metrics.update({
            "core.pipeline.nic_latency_p50_ns": _percentile(nic_latency, 50),
            "core.pipeline.nic_latency_p99_ns": _percentile(nic_latency, 99),
            "core.ooo.forwarded_share": total("station.forwarded") / completed,
            "core.ooo.queued_share": total("station.queued") / completed,
            "core.ooo.stall_ns_per_op": sum(
                sum(p.stall_times.samples()) for p in processors
            ) / completed,
            "core.index.accesses_per_get": _ratio(
                sum(s.table.get_cost.mean * s.table.get_cost.count
                    for s in stores), gets),
            "core.index.accesses_per_put": _ratio(
                sum(s.table.put_cost.mean * s.table.put_cost.count
                    for s in stores), puts),
            "core.ordered.accesses_per_range": _ratio(
                sum(s.index.scan_cost.mean * s.index.scan_cost.count
                    for s in stores), scans),
            "core.slab.dma_per_alloc": _ratio(
                total("slab.sync_reads") + total("slab.sync_writes"),
                slab_ops),
            "memory.cache_hit_rate": _ratio(
                total("mem.cache_hits"),
                total("mem.cache_hits") + total("mem.cache_misses")),
            "memory.pcie_direct_share": _ratio(
                total("mem.pcie_direct"), lines),
            "memory.writebacks_per_op": total("mem.writebacks") / completed,
            "dram.nic_bytes_per_op": (
                total("dram.nic.read_bytes") + total("dram.nic.write_bytes")
            ) / completed,
            "pcie.tlps_per_op": dmas / completed,
            "pcie.bytes_per_op": (
                total("dma_read_bytes") + total("dma_write_bytes")
            ) / completed,
            "pcie.read_latency_p50_ns": _percentile(pcie_reads, 50),
            "pcie.read_latency_p99_ns": _percentile(pcie_reads, 99),
        })
        # Stage profilers exist only on the observed run (and never on the
        # cluster, which takes none): null otherwise.
        stages = {"decode": 0.0, "issue": 0.0, "memory": 0.0}
        profiled = 0
        for profiler in self._profilers():
            for entry in profiler.as_dict()["op_classes"].values():
                profiled += entry["completed"]
                for stage in stages:
                    row = entry["stages"].get(stage, {})
                    kind = "service_ns" if stage == "memory" else "queue_ns"
                    stages[stage] += row.get(kind, 0.0)
        metrics["core.pipeline.decode_queue_ns_per_op"] = _ratio(
            stages["decode"], profiled)
        metrics["core.pipeline.issue_queue_ns_per_op"] = _ratio(
            stages["issue"], profiled)
        metrics["core.pipeline.memory_service_ns_per_op"] = _ratio(
            stages["memory"], profiled)
        return metrics

    def _result(
        self,
        completed: int,
        failed: int,
        throughput_mops: float,
        latencies,
        per_layer: dict,
    ) -> dict:
        return {
            "completed": completed,
            "attempted": self.op_count,
            "failed": failed,
            "latency_samples": latencies.count,
            "end_to_end": {
                "sim_throughput_mops": throughput_mops,
                "sim_latency_p50_ns": _percentile(latencies, 50),
                "sim_latency_p99_ns": _percentile(latencies, 99),
                # Every DMA here is one TLP (all fit 256 B), so the pcie
                # layer's count is the paper's DMAs-per-op currency.
                "dma_per_op": per_layer["pcie.tlps_per_op"],
                "completed_op_share": completed / self.op_count,
            },
            "per_layer": per_layer,
        }


class _DirectSubmit(Workload):
    """One NIC, ops submitted straight into the pipeline by the repo's
    closed-loop driver (no client, no wire)."""

    concurrency = 0
    memory_size = 8 << 20
    ordered_index = False

    def _corpus_and_ops(self):
        raise NotImplementedError

    def build(self) -> None:
        keyspace, ops = self._corpus_and_ops()
        self.store = KVDirectStore.create(
            memory_size=self.memory_size,
            seed=self.seed,
            ordered_index=self.ordered_index,
        )
        self.model = _load(self.store.put, keyspace)
        self.store.reset_measurements()
        self.ops = ops
        self.sim = Simulator()
        self.profiler = (
            StageProfiler(keep_records=False) if self.observed else None
        )
        self.processor = KVProcessor(
            self.sim, self.store, profiler=self.profiler
        )
        self.recorder = _Recorder(self.processor)

    def run(self) -> None:
        self.stats = run_closed_loop(
            self.recorder, self.ops, concurrency=self.concurrency
        )

    def _processors(self):
        return [self.processor]

    def _profilers(self):
        return [self.profiler] if self.profiler is not None else []

    def _results(self):
        return [e.value if e.ok else None for e in self.recorder.events]

    def measure(self) -> dict:
        failed = sum(1 for event in self.recorder.events if not event.ok)
        completed = self.op_count - failed
        per_layer = self._stack_metrics(completed)
        return self._result(
            completed, failed, self.stats["throughput_mops"],
            self.processor.latencies, per_layer,
        )


class PointDirect(_DirectSubmit):
    name = "point-direct"
    base_ops = 40_000
    concurrency = 250

    def _corpus_and_ops(self):
        keyspace = KeySpace(count=20_000, kv_size=13, seed=self.seed)
        spec = WorkloadSpec(
            put_ratio=0.5, distribution="uniform", seed=self.seed
        )
        ops = YCSBGenerator(keyspace, spec).operations(self.op_count)
        return keyspace, _distinct_put_values(ops)

    def check(self) -> List[str]:
        problems = _replay_point_ops(self.ops, self._results(), self.model)
        problems += _compare_contents([self.store], self.model, lambda k: 0)
        return problems


class ScanOrdered(_DirectSubmit):
    name = "scan-ordered"
    base_ops = 5_000
    concurrency = 128
    ordered_index = True

    def _corpus_and_ops(self):
        # The YCSB-E mix (95 % RANGE of 1-25 entries, 5 % insert), but with
        # uniform start keys: the repo's StandardYCSB draws them Zipf, and
        # RANGEs on one start key execute serially, so the run's simulated
        # time was one hot key's chain - a single draw per seed (throughput
        # spread 21 % over ten seeds) and not the memory path this workload
        # is here for.
        keyspace = KeySpace(count=4_000, kv_size=13, seed=self.seed)
        rng = random.Random(self.seed)
        insert_value = keyspace.value(0)
        ops = []
        for seq in range(self.op_count):
            if rng.random() < 0.05:
                key = b"new:" + len(ops).to_bytes(8, "big")
                ops.append(KVOperation.put(key, insert_value, seq=seq))
            else:
                start = keyspace.key(rng.randrange(keyspace.count))
                ops.append(
                    KVOperation.range(start, rng.randint(1, 25), seq=seq)
                )
        return keyspace, ops

    def check(self) -> List[str]:
        problems = []
        preloaded = sorted(self.model)
        inserted = {}
        for op in self.ops:
            if op.op is OpType.PUT:
                inserted[op.key] = op.value
        for op, result in zip(self.ops, self._results()):
            if result is None or not result.ok:
                problems.append(f"seq {op.seq}: {op.op.name} failed")
            elif op.op is OpType.RANGE:
                problems += self._check_range(op, result, preloaded, inserted)
        self.model.update(inserted)
        problems += _compare_contents([self.store], self.model, lambda k: 0)
        # The ordered sidecar must hold exactly the model's keys, in order.
        everything = self.store.range_scan(b"", len(self.model) + 1)
        if everything != sorted(self.model.items()):
            problems.append("ordered index differs from the sorted model")
        return problems

    def _check_range(self, op, result, preloaded, inserted) -> List[str]:
        """One RANGE payload: strictly ascending, >= start, <= count, every
        value the model's (values are immutable in YCSB-E), and no
        preloaded key skipped.  Inserted keys sort after the corpus and may
        be in flight, so they may appear or not - but only with their
        value, and only after every preloaded key from the start."""
        entries = decode_scan_payload(result.value, with_values=True)
        keys = [key for key, __ in entries]
        where = f"seq {op.seq}: RANGE {op.key!r}+{op.count}"
        problems = []
        if len(entries) > op.count:
            problems.append(f"{where} returned {len(entries)} entries")
        if any(b <= a for a, b in zip(keys, keys[1:])):
            problems.append(f"{where} not strictly ascending")
        if keys and keys[0] < op.key:
            problems.append(f"{where} starts before its start key")
        for key, value in entries:
            want = self.model.get(key, inserted.get(key))
            if value != want:
                problems.append(f"{where} {key!r}: {value!r} != {want!r}")
        first = bisect_left(preloaded, op.key)
        from_start = preloaded[first: first + op.count]
        if [key for key in keys if key in self.model] != from_start:
            problems.append(f"{where} skipped a preloaded key")
        return problems


class NetSharded(Workload):
    name = "net-sharded"
    base_ops = 24_000
    nics = 4

    def build(self) -> None:
        keyspace = KeySpace(count=20_000, kv_size=254, seed=self.seed)
        self.sim = Simulator()
        self.server = MultiNICServer(
            self.sim,
            self.nics,
            config=KVDirectConfig(memory_size=16 << 20, seed=self.seed),
            profile=self.observed,
        )
        self.model = _load(self.server.put_direct, keyspace)
        for stack in self.server.stacks:
            stack.store.reset_measurements()
        spec = WorkloadSpec(
            put_ratio=0.05, distribution="zipf", seed=self.seed
        )
        generator = YCSBGenerator(keyspace, spec)
        # Rank r is key r for every seed: which shard the few hottest keys
        # hash to decides the imbalance, so a per-seed shuffle made the
        # simulated throughput one draw per seed (spread 9 % over ten).
        generator.sampler = ZipfSampler(
            keyspace.count, seed=self.seed, shuffle=False
        )
        self.ops = _distinct_put_values(generator.operations(self.op_count))
        self.router = self.server.router(batch_size=32, seed=self.seed)

    def run(self) -> None:
        self.stats = self.router.run(self.ops)

    def _processors(self):
        return self.server.processors

    def _profilers(self):
        return self.server.profilers

    def measure(self) -> dict:
        stats = self.stats
        failed = sum(shard.failed_ops for shard in stats.per_shard)
        completed = self.op_count - failed
        per_layer = self._stack_metrics(completed)
        ports = [stack.network.counters for stack in self.server.stacks]
        rx = [port.get("rx_bytes") for port in ports]
        tx = [port.get("tx_bytes") for port in ports]
        packets = sum(port.get("rx_packets") for port in ports)
        # 40 GbE = 5 bytes per simulated nanosecond, per direction.
        line_rate = self.server.stacks[0].config.network_bandwidth / 1e9
        shard_ops = [shard.operations for shard in stats.per_shard]
        per_layer.update({
            "network.bytes_per_op": (sum(rx) + sum(tx)) / completed,
            "network.ops_per_packet": completed / packets,
            "network.link_utilisation": (
                max(rx + tx) / (stats.elapsed_ns * line_rate)
            ),
            "client.retries_per_op": sum(
                shard.retries for shard in stats.per_shard) / completed,
            "client.busy_nacks_per_op": sum(
                shard.busy_nacks for shard in stats.per_shard) / completed,
            "client.router.shard_imbalance": (
                max(shard_ops) / (sum(shard_ops) / self.nics)
            ),
        })
        # RouterStats carries no aggregate latency (known gap): merge the
        # per-shard clients' histograms here.
        latencies = _merged(c.latencies for c in self.router.clients)
        return self._result(
            completed, failed, stats.throughput_mops, latencies, per_layer
        )

    def check(self) -> List[str]:
        responses = {}
        for client in self.router.clients:
            responses.update(client.responses)
        results = [responses.get(op.seq) for op in self.ops]
        problems = _replay_point_ops(self.ops, results, self.model)
        stores = [stack.store for stack in self.server.stacks]
        problems += _compare_contents(stores, self.model, self.server.shard_of)
        return problems


class ClusterFailover(Workload):
    name = "cluster-failover"
    base_ops = 12_000
    nodes = 3
    slots = 8
    memory_size = 2 << 20
    workers = 64

    def build(self) -> None:
        keyspace = KeySpace(count=2_000, kv_size=13, seed=self.seed)
        self.sim = Simulator()
        self.cluster = Cluster(
            self.sim,
            num_nodes=self.nodes,
            num_slots=self.slots,
            config=KVDirectConfig(memory_size=self.memory_size, seed=self.seed),
        )
        # PUT values are the corpus values (a pure function of the key),
        # so the final state does not depend on completion order.
        self.model = _load(self.cluster.preload, keyspace)
        for node in self.cluster.nodes:
            node.store.reset_measurements()
        spec = WorkloadSpec(
            put_ratio=0.5, distribution="uniform", seed=self.seed
        )
        self.ops = YCSBGenerator(keyspace, spec).operations(self.op_count)
        # The victim is slot 0's primary for every seed: which node dies
        # fixes how many slots fail over and how many keys migrate, so a
        # seed-dependent victim would make the simulated rows bimodal.
        self.cluster.kill_after_accepts(
            self.cluster.map.primary(0), max(1, self.op_count // 9)
        )
        self.router = ClusterRouter(self.sim, self.cluster, seed=self.seed)

    def run(self) -> None:
        self.stats = self.router.run(self.ops, concurrency=self.workers)

    def _processors(self):
        return [node.stack.processor for node in self.cluster.nodes]

    def measure(self) -> dict:
        stats = self.stats
        completed = int(stats["completed"])
        per_layer = self._stack_metrics(completed)
        cluster = self.cluster
        robustness = self.router.robustness_snapshot()
        puts = sum(1 for op in self.ops if op.op is OpType.PUT)
        self._divergences = self._replica_mismatches()
        per_layer.update({
            "client.router.node_down_retries": robustness["node_down_retries"],
            "client.router.wrong_epoch_retries":
                robustness["wrong_epoch_retries"],
            "client.router.retry_give_ups": robustness["retry_give_ups"],
            "multi.failover_time_ns": _percentile(cluster.failover_time_ns, 50),
            "multi.replication_lag_p99_ns":
                _percentile(cluster.replication_lag_ns, 99),
            "multi.replication_records_per_put": _ratio(
                cluster.counters.get("replication_records"), puts),
            "multi.migrated_keys": cluster.counters.get("migrated_keys"),
            "multi.replication_divergences": len(self._divergences),
        })
        return self._result(
            completed, int(stats["failed"]), stats["throughput_mops"],
            self.router.latency_ns, per_layer,
        )

    def _replica_mismatches(self) -> List[str]:
        """Every slot's primary and live backup against the model, key by
        key, and no live node holding a key it should not.

        The same facts as ``Cluster.replication_divergences()`` and
        ``primary_state()``, but read per key: those walk every bucket of
        every store once per slot (~7 s per repetition here).  The reads
        move the stores' access counters, so this runs after they were
        read."""
        cluster = self.cluster
        problems = []
        expected = [0] * self.nodes
        for key, value in self.model.items():
            placement = cluster.map.placements[cluster.map.slot_of(key)]
            for role, index in (("primary", placement.primary),
                                ("backup", placement.backup)):
                if index is None or not cluster.nodes[index].alive:
                    continue
                expected[index] += 1
                got = cluster.nodes[index].store.get(key)
                if got != value:
                    problems.append(
                        f"{role} node{index} has {got!r} for {key!r}, "
                        f"model {value!r}"
                    )
        for index, node in enumerate(cluster.nodes):
            if node.alive and len(node.store) != expected[index]:
                problems.append(
                    f"node{index} holds {len(node.store)} keys, "
                    f"its slots have {expected[index]}"
                )
        return problems

    def check(self) -> List[str]:
        stats = self.stats
        problems = list(self._divergences)
        if stats["completed"] != self.op_count:
            problems.append(
                f"completed {stats['completed']:.0f} of {self.op_count}"
            )
        if stats["epoch"] != 1:
            problems.append(f"final epoch {stats['epoch']:.0f}, expected 1")
        failovers = self.cluster.counters.get("failovers")
        if failovers != 1:
            problems.append(f"{failovers} failovers, expected exactly 1")
        return problems


WORKLOADS = {
    cls.name: cls
    for cls in (PointDirect, NetSharded, ScanOrdered, ClusterFailover)
}


def scaled_ops(name: str, scale: float) -> int:
    """The op count of one workload at ``--scale`` (1.0 is the only
    configuration whose numbers count)."""
    return max(32, round(WORKLOADS[name].base_ops * CAP_SCALE * scale))
