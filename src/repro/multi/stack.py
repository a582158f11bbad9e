"""One complete per-NIC server stack, instantiable N ways.

The paper's multi-NIC scaling (section 1, Table 3) is share-nothing:
each programmable NIC owns its ethernet port, batch decoder, admission
queue, KV processor, hash index + slab area, and PCIe/NIC-DRAM memory
substrate.  :class:`ServerStack` is that unit - everything one NIC
needs, bundled so a sharded server is literally ``N`` stacks plus a
key-hash router (:class:`~repro.client.router.ShardRouter`), with no
shared mutable state between stacks.

A single stack is exactly the single-NIC server the rest of the repo
uses: it builds the same :class:`~repro.core.processor.KVProcessor` over
the same :class:`~repro.core.store.KVDirectStore`, so single-shard
behaviour (metrics, traces) is unchanged.
"""

from __future__ import annotations

from typing import Optional

from repro.client.client import KVClient
from repro.core.config import KVDirectConfig
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.obs.profiler import StageProfiler
from repro.sim.engine import Simulator


class ServerStack:
    """Ethernet port + batch decoder + admission + processor + store +
    memory substrate for one NIC."""

    def __init__(
        self,
        sim: Simulator,
        config: Optional[KVDirectConfig] = None,
        name: str = "nic0",
        profiler: Optional[StageProfiler] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.store = KVDirectStore(config)
        self.profiler = profiler
        self.processor = KVProcessor(sim, self.store, profiler=profiler)

    @property
    def config(self) -> KVDirectConfig:
        return self.store.config

    @property
    def network(self):
        """This stack's ethernet port."""
        return self.processor.network

    def client(self, **kwargs) -> KVClient:
        """A network client wired to this stack (full batching + wire
        path); kwargs forward to :class:`~repro.client.client.KVClient`."""
        return KVClient(self.sim, self.processor, **kwargs)
