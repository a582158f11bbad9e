"""One scenario builder: parameters in, loaded topology + op stream out.

Every experiment in the repo is the same recipe - a seed, a memory
size, a corpus, a workload, and a topology of ``shards`` NICs or
``nodes`` replicated cluster members - so it is written once, here: the
CLI, the chaos harnesses and the figure benchmarks call :func:`build`,
a figure's own config fields going through ``overrides``.  Four figures
build their own stack: ``bench_fig03_pcie`` drives a bare ``DMAEngine``;
``bench_fig14_dispatch`` carries three filled stores from cell to cell;
``bench_ycsb_standard`` and ``bench_ycsb_e`` seed their generator 1 over
a seed-0 store, where :func:`build` ties the two seeds.  So does the
repo benchmark (``benchmarks/e2e``), kept unchanged as the yardstick.
Everything is derived from ``seed`` (store config, corpus values,
workload streams, hardware jitter), so two builds with identical
arguments replay the identical simulation.

The topology is always a :class:`~repro.multi.multinic.MultiNICServer`
(a 1-NIC server is byte-identical to a bare processor + client, so there
is no separate single-NIC path), optionally with a
:class:`~repro.multi.cluster.Cluster` layered over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.core.config import KVDirectConfig
from repro.core.operations import KVOperation
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.errors import ConfigurationError
from repro.multi.cluster import Cluster
from repro.multi.multinic import MultiNICServer
from repro.obs.tracer import Tracer
from repro.sim.engine import Simulator
from repro.workloads.keyspace import KeySpace
from repro.workloads.ycsb import WorkloadSpec, YCSBGenerator
from repro.workloads.ycsb_standard import StandardYCSB

Generator = Union[YCSBGenerator, StandardYCSB]


@dataclass
class Scenario:
    """A built (and, given a corpus, loaded) topology plus its workload."""

    sim: Simulator
    #: The NIC stacks - in cluster mode, the server the cluster gates.
    server: MultiNICServer
    #: The replication layer over :attr:`server` (``nodes`` > 0 only).
    cluster: Optional[Cluster] = None
    #: Corpus and op-stream generator (``corpus`` > 0 only).
    keyspace: Optional[KeySpace] = None
    generator: Optional[Generator] = None

    @property
    def topology(self) -> Union[MultiNICServer, Cluster]:
        """What to observe: ``attach_timeline`` / ``register_metrics``."""
        return self.cluster or self.server

    @property
    def processor(self) -> KVProcessor:
        """NIC 0's processor - the whole server when ``shards == 1``."""
        return self.server.stacks[0].processor

    @property
    def store(self) -> KVDirectStore:
        """NIC 0's store - the whole key space when ``shards == 1``."""
        return self.server.stacks[0].store

    def operations(self, count: int) -> List[KVOperation]:
        """The measurement phase: ``count`` ops of the workload."""
        return self.generator.operations(count)


def make_workload(
    seed: int = 0,
    corpus: int = 1000,
    kv_size: int = 13,
    put_ratio: float = 0.0,
    distribution: str = "uniform",
    workload: str = "ycsb",
) -> Tuple[KeySpace, Generator]:
    """The seeded corpus and its op-stream generator.

    ``workload`` is ``"ycsb"`` (the paper's GET/PUT mix, shaped by
    ``put_ratio`` / ``distribution``) or a standard YCSB core workload
    letter ``"A"``..``"F"``.
    """
    keyspace = KeySpace(count=corpus, kv_size=kv_size, seed=seed)
    if workload == "ycsb":
        return keyspace, YCSBGenerator(
            keyspace,
            WorkloadSpec(
                put_ratio=put_ratio, distribution=distribution, seed=seed
            ),
        )
    return keyspace, StandardYCSB(keyspace, workload, seed=seed)


def build(
    seed: int = 0,
    memory_size: int = 8 << 20,
    corpus: int = 0,
    kv_size: int = 13,
    put_ratio: float = 0.0,
    distribution: str = "uniform",
    workload: str = "ycsb",
    shards: int = 1,
    nodes: int = 0,
    slots: int = 8,
    tracer: Optional[Tracer] = None,
    profile: bool = False,
    **overrides,
) -> Scenario:
    """Build the topology and, when ``corpus`` > 0, load it.

    ``nodes`` > 0 selects a replicated cluster of that many members
    (``slots`` placement slots) instead of ``shards`` plain NICs;
    ``profile`` attaches a stage profiler per NIC; a cluster takes none
    (a ``ConfigurationError``), since its request path has no profile
    yet (item 8 of ROADMAP.md).
    ``overrides`` are further :class:`KVDirectConfig` fields; the
    ordered index is on by default exactly when the workload scans
    (YCSB-E).  The corpus is inserted functionally, bypassing the timed
    path (to primary *and* backup in a cluster), and access counters are
    zeroed afterwards so the run measures only its own operations.
    """
    if nodes and profile:
        raise ConfigurationError(
            "a cluster build takes no stage profiler: profiling the "
            "replicated request path is item 8 of ROADMAP.md"
        )
    sim = Simulator()
    overrides.setdefault("ordered_index", workload == "E")
    config = KVDirectConfig(memory_size=memory_size, seed=seed, **overrides)
    cluster = (
        Cluster(sim, nodes, slots, config, tracer=tracer) if nodes else None
    )
    server = cluster.server if cluster else MultiNICServer(
        sim, shards, config, tracer=tracer, profile=profile
    )
    scenario = Scenario(sim, server, cluster)
    if corpus:
        scenario.keyspace, scenario.generator = make_workload(
            seed, corpus, kv_size, put_ratio, distribution, workload
        )
        load = cluster.preload if cluster else server.put_direct
        for op in scenario.generator.load_phase():
            load(op.key, op.value)
        server.reset_measurements()
    return scenario
