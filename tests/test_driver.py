"""The one closed-loop pump: 1..N lanes, scan fan-out and merge."""

import pytest

from repro.core.config import KVDirectConfig
from repro.core.operations import (
    KVOperation,
    KVResult,
    OpType,
    decode_scan_payload,
    encode_scan_payload,
)
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.driver import run_closed_loop
from repro.errors import ConfigurationError, KVDirectError
from repro.multi import MultiNICServer
from repro.sim import Simulator
from repro.sim.stats import Histogram
from tests.waiting import idle

SIMULATED = ("operations", "elapsed_ns", "throughput_mops",
             "latency_p50_ns", "latency_p95_ns", "latency_p99_ns",
             "latency_mean_ns")


def _corpus(put, count=128):
    pairs = [(b"key%05d" % i, b"v%04d" % i) for i in range(count)]
    for key, value in pairs:
        put(key, value)
    return pairs


def _mixed_ops(pairs):
    return [
        KVOperation.get(pairs[i][0], seq=i) for i in range(0, 60, 2)
    ] + [
        KVOperation.range(b"key%05d" % (i * 5), 7, seq=100 + i)
        for i in range(8)
    ]


class _FakeLane:
    """A duck-typed lane: answers after ``delay`` ns with ``answer(op)``
    (a KVResult, or an exception to fail the op with).  As a sharded
    server's lane it is also handed the key hash the fan-out routed by."""

    def __init__(self, sim, delay, answer):
        self.sim = sim
        self.delay = delay
        self.answer = answer
        self.latencies = Histogram()
        self.seen = []

    def submit(self, op, deadline_ns=None, key_hash=None):
        self.seen.append(op.seq)
        event = self.sim.event()
        outcome = self.answer(op)

        def settle(_timeout):
            if isinstance(outcome, Exception):
                event.fail(outcome)
            else:
                self.latencies.record(self.delay)
                event.succeed(outcome)

        self.sim.timeout(self.delay).add_callback(settle)
        return event


class _FakeServer:
    def __init__(self, sim, lanes):
        self.sim = sim
        self.processors = lanes


class TestLanes:
    def test_bare_processor_is_one_lane(self):
        """The same run through a bare processor and through a 1-NIC
        server: identical simulated numbers; only the server's stats
        carry the per-NIC fields."""
        config = KVDirectConfig(memory_size=4 << 20, seed=3)
        sim = Simulator()
        store = KVDirectStore(config)
        pairs = _corpus(store.put)
        ops = [KVOperation.get(pairs[i % 128][0], seq=i) for i in range(300)]
        bare = run_closed_loop(KVProcessor(sim, store), ops, concurrency=32)

        server = MultiNICServer(Simulator(), 1, config=config)
        _corpus(server.put_direct)
        one_nic = run_closed_loop(server, ops, concurrency=32)

        assert [one_nic[k] for k in SIMULATED] == [bare[k] for k in SIMULATED]
        assert "nics" not in bare and "per_nic_mops" not in bare
        assert one_nic["nics"] == 1.0
        assert one_nic["per_nic_mops"] == one_nic["throughput_mops"]

    def test_point_ops_go_to_their_owner_and_scans_to_every_lane(self):
        sim = Simulator()
        server = MultiNICServer(
            sim, 3,
            config=KVDirectConfig(memory_size=4 << 20, ordered_index=True),
        )
        pairs = _corpus(server.put_direct)
        ops = _mixed_ops(pairs)
        merged = {}
        stats = run_closed_loop(server, ops, scan_results=merged)
        owned = [0, 0, 0]
        for op in ops[:30]:
            owned[server.shard_of(op.key)] += 1
        assert [p.completed for p in server.processors] == [
            count + 8 for count in owned
        ]
        assert stats["operations"] == float(len(ops))
        assert sorted(merged) == list(range(100, 108))
        for i in range(8):
            assert decode_scan_payload(merged[100 + i], True) == \
                pairs[i * 5:i * 5 + 7]

    def test_scans_merge_in_lane_order_not_completion_order(self):
        """Both lanes answer the scan with the same key; the merge keeps
        the first occurrence in *lane-index* order, so lane 0's value
        must win although lane 1 answers long before it."""
        sim = Simulator()

        def answers(value):
            return lambda op: KVResult(
                OpType.RANGE, ok=True, seq=op.seq,
                value=encode_scan_payload([(b"dup", value)], True),
            )

        slow = _FakeLane(sim, 900.0, answers(b"lane0"))
        fast = _FakeLane(sim, 10.0, answers(b"lane1"))
        merged = {}
        run_closed_loop(
            _FakeServer(sim, [slow, fast]),
            [KVOperation.range(b"a", 4, seq=5)],
            scan_results=merged,
        )
        assert slow.seen == fast.seen == [5]
        assert decode_scan_payload(merged[5], True) == [(b"dup", b"lane0")]

    def test_scan_failed_on_one_lane_is_not_merged(self):
        sim = Simulator()
        good = _FakeLane(sim, 10.0, lambda op: KVResult(
            OpType.RANGE, ok=True, seq=op.seq,
            value=encode_scan_payload([(b"k", b"v")], True),
        ))
        bad = _FakeLane(sim, 10.0, lambda op: KVDirectError("injected"))
        merged = {}
        stats = run_closed_loop(
            _FakeServer(sim, [good, bad]),
            [KVOperation.range(b"a", 4, seq=1)],
            scan_results=merged,
        )
        assert merged == {}
        assert stats["operations"] == 1.0

    def test_empty_lane_does_not_stall_the_run(self):
        """Every op hashes to one NIC: the other lanes get nothing and
        the run still drains."""
        sim = Simulator()
        server = MultiNICServer(sim, 4)
        server.put_direct(b"only", b"v")
        ops = [KVOperation.get(b"only", seq=i) for i in range(40)]
        stats = run_closed_loop(server, ops, concurrency=8)
        completed = [p.completed for p in server.processors]
        assert sorted(completed) == [0, 0, 0, 40]
        assert stats["operations"] == 40.0
        assert stats["latency_p99_ns"] is not None

    def test_all_ops_failed_reports_none_latency(self):
        sim = Simulator()
        lane = _FakeLane(sim, 10.0, lambda op: KVDirectError("shed"))
        stats = run_closed_loop(
            lane, [KVOperation.get(b"k", seq=i) for i in range(5)],
            concurrency=2,
        )
        assert stats["operations"] == 5.0
        assert stats["elapsed_ns"] > 0
        for field in ("latency_p50_ns", "latency_p95_ns",
                      "latency_p99_ns", "latency_mean_ns"):
            assert stats[field] is None

    @pytest.mark.parametrize("concurrency", [0, -1])
    def test_non_positive_concurrency_is_rejected_before_any_submit(
        self, concurrency
    ):
        """Regression: the run was built, nothing was ever submitted, and
        it ended in a "simulation ran out of events (deadlock?)" error."""
        sim = Simulator()
        lane = _FakeLane(sim, 10.0, lambda op: KVResult(OpType.GET, ok=True))
        with pytest.raises(ConfigurationError, match="concurrency"):
            run_closed_loop(
                lane, [KVOperation.get(b"k", seq=0)], concurrency=concurrency
            )
        assert lane.seen == [] and idle(sim)


class TestScanSeqs:
    def test_two_scans_sharing_a_seq_are_refused(self):
        """``scan_results`` keys each scan by its seq: two scans with one
        seq used to merge into one payload mixing both scans' partials."""
        sim = Simulator()
        server = MultiNICServer(
            sim, 2,
            config=KVDirectConfig(memory_size=4 << 20, ordered_index=True),
        )
        _corpus(server.put_direct)
        ops = [KVOperation.range(b"key00000", 3, seq=0),
               KVOperation.range(b"key00010", 3, seq=0)]
        with pytest.raises(ConfigurationError, match="share seq 0"):
            run_closed_loop(server, ops, scan_results={})
        # Without scan_results nothing is keyed by seq, and the run is fine.
        server = MultiNICServer(
            Simulator(), 2,
            config=KVDirectConfig(memory_size=4 << 20, ordered_index=True),
        )
        _corpus(server.put_direct)
        stats = run_closed_loop(server, ops)
        assert stats["operations"] == 2.0
