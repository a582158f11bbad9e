"""Table 2: throughput of vector operations vs alternatives.

Rows: vector update with/without returning the old vector, versus the two
client-side alternatives - one key per element (network-bound on op
headers) and fetch-the-vector-to-client (network-bound on 2x vector
bytes).  Paper: NIC-side vector update wins by an order of magnitude and
is the only option that keeps the vector consistent.
"""

import struct

import pytest

from repro.analysis.report import format_series
from repro import constants
from repro.client import KVClient
from repro.core.operations import KVOperation, OpType
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.core.vector import FETCH_ADD
from repro.network.rdma import wire_bytes
from repro.sim import Simulator
from repro.sim.stats import gbps

VECTOR_SIZES = [64, 128, 256, 496]  # 496: largest whole-element vector fitting the 512 B slab
OPS = 400


def q(*values):
    return struct.pack("<%dq" % len(values), *values)


def _vector_update_throughput(vector_bytes: int) -> float:
    """GB/s of vector payload updated via NIC-side scalar2vector ops."""
    sim = Simulator()
    store = KVDirectStore.create(memory_size=8 << 20)
    elements = vector_bytes // 8
    keys = [b"vec%04d" % i for i in range(64)]
    for key in keys:
        store.put(key, q(*([1] * elements)))
    store.reset_measurements()
    processor = KVProcessor(sim, store)
    ops = [
        KVOperation(
            OpType.UPDATE_SCALAR2VECTOR,
            keys[i % len(keys)],
            func_id=FETCH_ADD,
            param=q(1),
            seq=i,
        )
        for i in range(OPS)
    ]
    client = KVClient(sim, processor, batch_size=16,
                      max_outstanding_batches=16)
    stats = client.run(ops)
    return gbps(OPS * vector_bytes, stats.elapsed_ns)


def _one_key_per_element_bound(vector_bytes: int) -> float:
    """GB/s if every element is its own KV operation.

    Each 8 B element costs an encoded UPDATE of ~21 B (lead byte, key
    length, 8 B key, func id, param length, 8 B param) on the wire, and
    one op through the 180 MHz KV processor - whichever is scarcer.
    """
    per_op_bytes = 21.0
    ops_per_sec = min(
        constants.NETWORK_BANDWIDTH / per_op_bytes, constants.KV_CLOCK_HZ
    )
    return ops_per_sec * 8 / 1e9

def _fetch_to_client_bound(vector_bytes: int) -> float:
    """Network-bound GB/s when the client fetches, updates, writes back."""
    round_trip_bytes = wire_bytes(vector_bytes) * 2  # fetch + write back
    vectors_per_sec = constants.NETWORK_BANDWIDTH / round_trip_bytes
    return vectors_per_sec * vector_bytes / 1e9


@pytest.fixture(scope="module")
def table2():
    update = [_vector_update_throughput(size) for size in VECTOR_SIZES]
    one_key = [_one_key_per_element_bound(size) for size in VECTOR_SIZES]
    fetch = [_fetch_to_client_bound(size) for size in VECTOR_SIZES]
    return update, one_key, fetch


def test_tab2_vector_update_wins(benchmark, table2, emit):
    update, one_key, fetch = table2
    benchmark.pedantic(
        lambda: _vector_update_throughput(64), rounds=1, iterations=1
    )
    emit(
        "tab2_vector_ops",
        format_series(
            "Table 2: vector update throughput (GB/s of vector payload)",
            "vector size (B)",
            VECTOR_SIZES,
            [
                ("NIC vector update", update),
                ("one key per element", one_key),
                ("fetch to client", fetch),
            ],
        ),
    )
    # NIC-side vector update beats both alternatives at every size.
    for i in range(len(VECTOR_SIZES)):
        assert update[i] > one_key[i]
        assert update[i] > fetch[i]
    # Larger vectors amortize per-op cost: throughput grows with size.
    assert update[-1] > update[0]


def test_tab2_update_consistency(benchmark):
    """Unlike the alternatives, NIC-side update is atomic per vector."""
    store = KVDirectStore.create(memory_size=4 << 20)
    store.put(b"v", q(0, 0, 0, 0))

    def updates():
        for __ in range(10):
            store.update_vector(b"v", FETCH_ADD, q(1))
        return store.get(b"v")

    final = benchmark.pedantic(updates, rounds=1, iterations=1)
    assert final == q(10, 10, 10, 10)  # never a torn vector
