"""Unit tests for the out-of-order execution engine (section 3.3.3)."""

import struct

import pytest

from repro.core.hashing import fnv1a64
from repro.core.ooo import Admission, ReservationStation
from repro.core.operations import KVOperation, OpType
from repro.core.vector import FETCH_ADD, FunctionRegistry, apply_operation
from repro.errors import ConfigurationError, SimulationError


def q(*values):
    return struct.pack("<%dq" % len(values), *values)


def make_station(**kwargs):
    registry = FunctionRegistry()
    executor = lambda op, current: apply_operation(op, current, registry)
    return ReservationStation(executor, **kwargs)


class TestAdmission:
    def test_first_op_executes(self):
        station = make_station()
        assert station.admit(KVOperation.get(b"a")) is Admission.EXECUTE
        assert station.occupancy == 1

    def test_same_key_queues(self):
        station = make_station()
        station.admit(KVOperation.get(b"a"))
        assert station.admit(KVOperation.get(b"a")) is Admission.QUEUED
        assert station.occupancy == 2

    def test_different_keys_execute_concurrently(self):
        station = make_station()
        assert station.admit(KVOperation.get(b"a")) is Admission.EXECUTE
        assert station.admit(KVOperation.get(b"b")) is Admission.EXECUTE

    def test_hash_collision_conservatively_queues(self):
        station = make_station(num_slots=1)  # everything collides
        station.admit(KVOperation.get(b"a"))
        assert station.admit(KVOperation.get(b"b")) is Admission.QUEUED

    def test_capacity_enforced(self):
        station = make_station(capacity=2)
        station.admit(KVOperation.get(b"a"))
        station.admit(KVOperation.get(b"b"))
        assert station.occupancy == station.capacity  # no room
        with pytest.raises(SimulationError):
            station.admit(KVOperation.get(b"c"))

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            make_station(num_slots=0)
        with pytest.raises(ConfigurationError):
            make_station(capacity=0)


class TestCompletion:
    def test_plain_completion_frees_slot(self):
        """Nothing was parked behind the op, so nothing is released: no
        completion is built at all."""
        station = make_station()
        op = KVOperation.get(b"a")
        station.admit(op)
        assert station.complete(op, b"value") is None
        assert station.occupancy == 0
        assert station.busy_slots() == 0

    def test_get_after_put_forwards_updated_value(self):
        """A GET following a PUT on the same key returns the new value
        without a second memory access."""
        station = make_station()
        put = KVOperation.put(b"a", b"new")
        get = KVOperation.get(b"a")
        station.admit(put)
        station.admit(get)
        completion = station.complete(put, b"new")
        assert len(completion.responses) == 1
        fwd_op, fwd_result = completion.responses[0]
        assert fwd_op is get
        assert fwd_result.value == b"new"
        assert completion.forwarded == 1
        assert completion.writeback is None  # GET does not dirty the value

    def test_forwarded_put_produces_writeback(self):
        station = make_station()
        first = KVOperation.get(b"a")
        second = KVOperation.put(b"a", b"v2")
        station.admit(first)
        station.admit(second)
        completion = station.complete(first, b"v1")
        assert completion.forwarded == 1
        assert completion.writeback is not None
        assert completion.writeback.op is OpType.PUT
        assert completion.writeback.value == b"v2"
        # Write-back completion releases the slot, and nothing else.
        assert station.complete(completion.writeback, b"v2") is None
        assert station.busy_slots() == 0

    def test_atomic_chain_executes_in_order(self):
        """Many same-key atomics resolve in one completion sweep."""
        station = make_station()
        ops = [
            KVOperation.update(b"ctr", FETCH_ADD, q(1), seq=i)
            for i in range(10)
        ]
        assert station.admit(ops[0]) is Admission.EXECUTE
        for op in ops[1:]:
            assert station.admit(op) is Admission.QUEUED
        # Main pipeline executed ops[0]: counter went 0 -> 1.
        completion = station.complete(ops[0], q(1))
        assert completion.forwarded == 9
        returned = [
            struct.unpack("<q", r.value)[0] for __, r in completion.responses
        ]
        assert returned == list(range(1, 10))  # each atomic returns the old value
        assert completion.writeback.value == q(10)

    def test_delete_forwarding_produces_delete_writeback(self):
        station = make_station()
        get = KVOperation.get(b"a")
        delete = KVOperation.delete(b"a")
        station.admit(get)
        station.admit(delete)
        completion = station.complete(get, b"value")
        assert completion.writeback is not None
        assert completion.writeback.op is OpType.DELETE

    def test_writeback_inherits_the_completed_ops_key_hash(self):
        """A write-back writes its slot's key, so its completion hands on
        the hash the completing op was passed (for the write-back's
        context) instead of hashing the key again; the op keeps none."""
        for h in (fnv1a64(b"a"), None):
            station = make_station()
            get, put = KVOperation.get(b"a"), KVOperation.put(b"a", b"v2")
            station.admit(get, h)
            station.admit(put, h)
            completion = station.complete(get, b"v1", h)
            writeback = completion.writeback
            assert completion.writeback_hash == h
            assert "key_hash" not in vars(writeback)
            assert writeback == KVOperation(OpType.PUT, b"a", value=b"v2")

    def test_get_after_delete_forwards_missing(self):
        station = make_station()
        delete = KVOperation.delete(b"a")
        get = KVOperation.get(b"a")
        station.admit(delete)
        station.admit(get)
        completion = station.complete(delete, None)
        __, result = completion.responses[0]
        assert result.value is None

    def test_collision_chain_issues_next_key(self):
        station = make_station(num_slots=1)
        first = KVOperation.get(b"a")
        second = KVOperation.get(b"b")
        station.admit(first)
        station.admit(second)
        completion = station.complete(first, b"va")
        assert completion.responses == []  # different key: no forwarding
        assert completion.next_issue is second
        assert station.complete(second, b"vb") is None

    def test_popular_key_skips_colliding_op(self):
        """Same-hash different-key ops do not block same-key forwarding."""
        station = make_station(num_slots=1)
        first = KVOperation.get(b"a")
        blocker = KVOperation.get(b"b")  # collides, different key
        third = KVOperation.get(b"a")
        station.admit(first)
        station.admit(blocker)
        station.admit(third)
        completion = station.complete(first, b"va")
        assert [op for op, __ in completion.responses] == [third]
        assert completion.next_issue is blocker

    def test_unknown_completion_rejected(self):
        station = make_station()
        with pytest.raises(SimulationError):
            station.complete(KVOperation.get(b"ghost"), None)

    def test_occupancy_returns_to_zero(self):
        station = make_station()
        ops = [KVOperation.update(b"k", FETCH_ADD, q(1)) for __ in range(20)]
        station.admit(ops[0])
        for op in ops[1:]:
            station.admit(op)
        completion = station.complete(ops[0], q(1))
        while completion is not None and (
            completion.writeback or completion.next_issue
        ):
            nxt = completion.writeback or completion.next_issue
            completion = station.complete(nxt, nxt.value if nxt.op is OpType.PUT else None)
        assert station.occupancy == 0
        assert station.busy_slots() == 0


class TestStallMode:
    """forwarding=False reproduces the paper's 'without OoO' baseline."""

    def test_no_forwarding(self):
        station = make_station(forwarding=False)
        put = KVOperation.put(b"a", b"new")
        get = KVOperation.get(b"a")
        station.admit(put)
        station.admit(get)
        completion = station.complete(put, b"new")
        assert completion.responses == []
        assert completion.forwarded == 0
        # The dependent GET must go through the main pipeline itself.
        assert completion.next_issue is get

    def test_serial_chain(self):
        station = make_station(forwarding=False)
        ops = [KVOperation.update(b"k", FETCH_ADD, q(1)) for __ in range(5)]
        for op in ops:
            station.admit(op)
        issued = 1
        completion = station.complete(ops[0], q(1))
        while completion is not None:  # each releases just the next op
            issued += 1
            completion = station.complete(completion.next_issue, q(issued))
        assert issued == 5  # every op took its own pipeline pass

    def test_reads_sharing_a_slot_release_nothing(self):
        """Concurrent same-key GETs: neither the primary finishing while
        an extra reader holds the slot, nor the last reader leaving an
        empty chain, releases anything."""
        station = make_station(forwarding=False)
        first, second = KVOperation.get(b"a"), KVOperation.get(b"a")
        assert station.admit(first) is Admission.EXECUTE
        assert station.admit(second) is Admission.EXECUTE
        assert station.complete(first, b"v") is None
        assert station.busy_slots() == 1
        assert station.complete(second, b"v") is None
        assert station.occupancy == 0 and station.busy_slots() == 0


class TestAccounting:
    def test_counters(self):
        station = make_station()
        put = KVOperation.put(b"a", b"v")
        get = KVOperation.get(b"a")
        station.admit(put)
        station.admit(get)
        station.complete(put, b"v")
        snap = station.counters
        assert snap["issued"] == 1
        assert snap["queued"] == 1
        assert snap["forwarded"] == 1

    def test_max_chain_tracked(self):
        station = make_station()
        station.admit(KVOperation.get(b"a"))
        for __ in range(7):
            station.admit(KVOperation.get(b"a"))
        assert station.counters["max_chain"] == 7

    def test_max_chain_is_a_watermark(self):
        """Regression: admit used to poke Counter._counts directly; the
        record_max API must keep the high watermark once chains drain."""
        station = make_station()
        ops = [KVOperation.get(b"a") for __ in range(5)]
        for op in ops:
            station.admit(op)
        assert station.counters["max_chain"] == 4
        # Drain the chain, then build a shorter one: watermark holds.
        station.complete(ops[0], b"v")
        station.admit(KVOperation.get(b"b"))
        station.admit(KVOperation.get(b"b"))
        assert station.counters["max_chain"] == 4
