#!/usr/bin/env python
"""A distributed sequencer on the *timed* KV-Direct simulation.

Sequencers "in distributed synchronization" (section 2.1) hammer a single
key with atomic fetch-and-add - the worst case for a naive pipeline, and
the showcase for the out-of-order execution engine (Figure 13a): with OoO
the NIC sustains one atomic per clock cycle; without it, every atomic
stalls for a full PCIe round trip.

This example runs both configurations in the cycle-approximate simulator
and prints the throughput gap, plus a consistency check that every client
got a unique, dense ticket.

Run:  python examples/sequencer_service.py
"""

import struct

from repro.core.operations import KVOperation
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.core.vector import FETCH_ADD
from repro.driver import run_closed_loop
from repro.sim import Simulator


def q(value):
    return struct.pack("<q", value)


def run_sequencer(out_of_order: bool, clients: int, tickets_each: int):
    sim = Simulator()
    store = KVDirectStore.create(
        memory_size=16 << 20, out_of_order=out_of_order
    )
    store.put(b"sequencer", q(0))
    processor = KVProcessor(sim, store)

    total = clients * tickets_each
    ops = [
        KVOperation.update(b"sequencer", FETCH_ADD, q(1), seq=i)
        for i in range(total)
    ]
    events = []

    def collect(event):
        events.append(event)

    # Submit through the closed loop; gather tickets from the responses.
    responses = []
    original_submit = processor.submit

    def submit(op):
        ev = original_submit(op)
        ev.add_callback(
            lambda e: responses.append(struct.unpack("<q", e.value.value)[0])
        )
        return ev

    processor.submit = submit
    stats = run_closed_loop(processor, ops, concurrency=min(200, total))
    return stats, responses, store


def main() -> None:
    clients, tickets_each = 20, 100

    with_ooo, tickets, store = run_sequencer(True, clients, tickets_each)
    total = clients * tickets_each
    assert sorted(tickets) == list(range(total)), "tickets not dense!"
    assert store.get(b"sequencer") == q(total)
    print(f"{total} atomic fetch-and-add tickets issued; "
          "all unique and dense (linearizable).")
    print()

    without, __, __s = run_sequencer(False, clients, tickets_each // 4)

    print("single-key atomics throughput (Figure 13a):")
    print(f"  with OoO engine    : {with_ooo['throughput_mops']:8.1f} Mops"
          f"   (paper: 180 Mops, clock bound)")
    print(f"  without (stalling) : {without['throughput_mops']:8.2f} Mops"
          f"   (paper: 0.94 Mops)")
    speedup = with_ooo["throughput_mops"] / without["throughput_mops"]
    print(f"  speedup            : {speedup:8.0f}x  (paper: 191x)")
    print()
    print(f"p99 latency with OoO: {with_ooo['latency_p99_ns'] / 1000:.2f} us")


if __name__ == "__main__":
    main()
