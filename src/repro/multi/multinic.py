"""Multi-NIC single-server scaling (section 1, Table 3 bottom row).

"KV-Direct can achieve near linear scalability with multiple NICs.  With
10 programmable NIC cards in a commodity server, we achieve 1.22 billion
KV operations per second."

:class:`MultiNICServer` is the one place that builds, names, seeds,
loads and observes N :class:`~repro.multi.stack.ServerStack` bundles -
each NIC owns its ethernet port, batch decoder, admission queue, KV
processor, and a disjoint shard of host memory (its own hash index and
slab area) plus its own PCIe links, so NICs share nothing.  Operations
go to the NIC owning the key, by key hash
(:func:`repro.core.hashing.shard_of`); :meth:`router` drives the whole
stack end-to-end through the client/batching/wire layer, while
:func:`repro.driver.run_closed_loop` (one pump lane per NIC) is the
direct-submit measurement loop for the processor-bound scaling figures.
The replicated
:class:`~repro.multi.cluster.Cluster` is a placement directory layered
over one of these, not a second way to build stacks.

A 1-NIC server *is* the single-NIC server: its metrics, profile and
fault-digest exports carry no ``nic<i>`` namespace, so they are
byte-identical to a bare processor's.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.client.router import ShardRouter
from repro.core.config import KVDirectConfig
from repro.core.hashing import fnv1a64, shard_of, shard_of_hash
from repro.core.operations import KVOperation
from repro.core.processor import KVProcessor
from repro.errors import ConfigurationError, UnsupportedOperation
from repro.multi.stack import ServerStack
from repro.obs.profiler import StageProfiler
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Event, Simulator


class MultiNICServer:
    """A server with N programmable NICs, each running a full stack."""

    def __init__(
        self,
        sim: Simulator,
        nic_count: int,
        config: Optional[KVDirectConfig] = None,
        profile: bool = False,
    ) -> None:
        if nic_count <= 0:
            raise ConfigurationError("need at least one NIC")
        self.sim = sim
        self.nic_count = nic_count
        #: The base configuration; stack i runs it with seed ``base + i``.
        self.config = config or KVDirectConfig(memory_size=4 << 20)
        base = self.config
        #: The per-NIC stacks; stack i is named ``nic<i>`` and gets a
        #: distinct seed so the shards' hardware jitter is independent.
        #: With ``profile=True`` each stack gets its own
        #: :class:`~repro.obs.profiler.StageProfiler`, named ``nic<i>``
        #: (the prefix in merged exports) when there is more than one.
        self.stacks: List[ServerStack] = [
            ServerStack(
                sim,
                replace(base, seed=base.seed + i),
                name=f"nic{i}",
                profiler=(
                    StageProfiler(name=f"nic{i}" if nic_count > 1 else "")
                    if profile else None
                ),
            )
            for i in range(nic_count)
        ]

    @property
    def profilers(self) -> List[StageProfiler]:
        """The per-NIC stage profilers (empty unless ``profile=True``)."""
        return [
            stack.profiler
            for stack in self.stacks
            if stack.profiler is not None
        ]

    @property
    def processors(self) -> List[KVProcessor]:
        """The per-NIC KV processors (stack views)."""
        return [stack.processor for stack in self.stacks]

    # -- data path ---------------------------------------------------------

    def shard_of(self, key: bytes) -> int:
        """The NIC owning a key.  Uses high hash bits so sharding stays
        independent of each shard's bucket index."""
        return shard_of(key, self.nic_count)

    def owner(self, key: bytes) -> ServerStack:
        """The stack authoritative for a key."""
        return self.stacks[shard_of(key, self.nic_count)]

    def submit(
        self, op: KVOperation, deadline_ns: Optional[float] = None
    ) -> Event:
        """Direct submission to the owning NIC (bypasses the wire).  A
        RANGE or SCAN spans every NIC, so on more than one it is refused:
        one shard's part of it would read as the whole."""
        if op.carries_count and self.nic_count > 1:
            raise UnsupportedOperation(
                f"{op.op.name} spans all {self.nic_count} NICs: fan it out "
                "with run_closed_loop(server, ...) or server.router()"
            )
        return self.owner(op.key).processor.submit(
            op, deadline_ns=deadline_ns
        )

    def put_direct(self, key: bytes, value: bytes) -> None:
        """Functional insert bypassing timing (benchmark preparation):
        ``store.put``, with the key hashed once for the shard and the
        index both."""
        h = fnv1a64(key)
        stack = self.stacks[shard_of_hash(h, self.nic_count)]
        stack.store.index.insert(key, value, h)

    def reset_measurements(self) -> None:
        """Zero every store's access counters (after loading a corpus)."""
        for stack in self.stacks:
            stack.store.reset_measurements()

    def primary_state(self) -> Dict[bytes, bytes]:
        """The whole key space: shard ownership is disjoint, so the union
        of the per-NIC stores."""
        merged: Dict[bytes, bytes] = {}
        for stack in self.stacks:
            merged.update(stack.store.items())
        return merged

    def router(self, **client_kwargs) -> ShardRouter:
        """A shard-aware client router over this server's stacks."""
        return ShardRouter(self.sim, self.stacks, **client_kwargs)

    # -- faults ------------------------------------------------------------

    @property
    def faults_fired(self) -> int:
        """Hardware faults injected so far, over every NIC."""
        return sum(
            stack.store.injector.fired
            for stack in self.stacks
            if stack.store.injector is not None
        )

    def fault_digest_lines(self) -> List[str]:
        """Canonical per-NIC fault-schedule digests (``<i>|<digest>``;
        bare for a 1-NIC server) for folding into a soak digest."""
        return [
            (f"{index}|" if self.nic_count > 1 else "")
            + stack.store.injector.schedule_digest()
            for index, stack in enumerate(self.stacks)
            if stack.store.injector is not None
        ]

    # -- observability -----------------------------------------------------

    def attach_timeline(self, sampler) -> None:
        """Attach every stack to a timeline sampler (``nic<i>`` series)."""
        for stack in self.stacks:
            sampler.attach_processor(stack.name, stack.processor)

    def register_metrics(
        self, registry: Optional[MetricsRegistry] = None
    ) -> MetricsRegistry:
        """One registry over every shard, namespaced per NIC
        (``nic0.processor.deadline.*``, ``nic3.eth.*``, ...; a 1-NIC
        server keeps the unnamespaced single-NIC names)."""
        registry = registry if registry is not None else MetricsRegistry()
        for stack in self.stacks:
            stack.processor.register_metrics(
                registry, prefix=stack.name if self.nic_count > 1 else ""
            )
        return registry
