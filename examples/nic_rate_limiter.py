#!/usr/bin/env python
"""A NIC-resident token-bucket rate limiter (section 3.2).

"Update operations with user-defined functions are capable of general
stream processing on a vector value.  For example, a network processing
application may interpret the vector as a stream of packets for network
functions or a bunch of states for packet transactions."

Per-flow token buckets live in the KVS as two-element vectors
``[tokens, last_refill_tick]``.  Admitting a packet is one NIC-side
UPDATE: refill by elapsed ticks, then take a token if available - the
old value tells the client whether the packet passed.  No lock, no
round trip, no CPU: exactly the "states for packet transactions" use.

Run:  python examples/nic_rate_limiter.py
"""

import random
import struct

from repro import KVDirectStore
from repro.core.hls import HLSToolchain
from repro.core.operations import KVOperation
from repro.core.processor import KVProcessor
from repro.core.vector import FuncKind
from repro.sim import Simulator

RATE = 5          # tokens refilled per tick
BURST = 20        # bucket capacity
FLOWS = 8
PACKETS = 4000


def q(*values):
    return struct.pack("<%dq" % len(values), *values)


def unq(data):
    return list(struct.unpack("<%dq" % (len(data) // 8), data))


def token_bucket(state: int, now_tick: int) -> int:
    """λ over one packed element: high 32 bits tokens, low 32 bits tick.

    Refills ``RATE`` tokens per elapsed tick up to ``BURST``, then spends
    one token if available.  Packing both fields into one element keeps
    the update atomic element-wise.
    """
    tokens = state >> 32
    last = state & 0xFFFFFFFF
    elapsed = max(0, now_tick - last)
    tokens = min(BURST, tokens + elapsed * RATE)
    if tokens > 0:
        tokens -= 1  # admit the packet
    return (tokens << 32) | now_tick


def passed(old_state: int, now_tick: int) -> bool:
    """Did the packet that produced this old state get admitted?"""
    tokens = old_state >> 32
    last = old_state & 0xFFFFFFFF
    elapsed = max(0, now_tick - last)
    return min(BURST, tokens + elapsed * RATE) > 0


def main() -> None:
    store = KVDirectStore.create(memory_size=16 << 20)
    limiter = store.register_function(
        FuncKind.UPDATE, token_bucket, name="token_bucket"
    )
    # 'Compile to hardware': check the λ fits the FPGA next to the others.
    toolchain = HLSToolchain()
    compiled = toolchain.compile(store.registry.lookup(limiter))
    print(f"λ 'token_bucket': {compiled.duplication} lanes, "
          f"{compiled.alms} ALMs "
          f"({toolchain.utilization:.1%} of the user logic budget)")

    for flow in range(FLOWS):
        store.put(b"flow:%02d" % flow, q(BURST << 32))

    rng = random.Random(3)
    admitted = {flow: 0 for flow in range(FLOWS)}
    offered = {flow: 0 for flow in range(FLOWS)}
    # Flow 0 floods; the others trickle.
    for tick in range(1, 401):
        for __ in range(10):  # 10 packets per tick from the flood
            old = store.update(b"flow:00", limiter, q(tick))
            offered[0] += 1
            admitted[0] += passed(unq(old)[0], tick)
        victim = rng.randrange(1, FLOWS)
        old = store.update(b"flow:%02d" % victim, limiter, q(tick))
        offered[victim] += 1
        admitted[victim] += passed(unq(old)[0], tick)

    print(f"\n{'flow':>6} {'offered':>8} {'admitted':>9} {'rate':>7}")
    for flow in range(FLOWS):
        if not offered[flow]:
            continue
        rate = admitted[flow] / offered[flow]
        print(f"{flow:>6} {offered[flow]:>8} {admitted[flow]:>9} "
              f"{rate:>6.1%}")

    flood_rate = admitted[0] / offered[0]
    # The flood is clipped to ~RATE tokens/tick over 10 offered.
    assert 0.4 < flood_rate < 0.7, flood_rate
    # Polite flows are never throttled.
    for flow in range(1, FLOWS):
        if offered[flow]:
            assert admitted[flow] == offered[flow]
    print("\nflood clipped to the token rate; polite flows unthrottled -")
    print("per-flow isolation enforced entirely NIC-side.")

    # One more packet through the NIC's timed pipeline: the compiled λ
    # occupies its lanes for the update's cycles.
    sim = Simulator()
    processor = KVProcessor(sim, store, hls=toolchain)
    sim.run(processor.submit(KVOperation.update(b"flow:00", limiter, q(401))))
    print(f"\none update on the pipeline: "
          f"{processor.counters['lambda_cycles']} λ-lane cycle, "
          f"answered at {sim.now:.0f} ns")


if __name__ == "__main__":
    main()
