"""Unit tests for the network substrate: link, framing, and batching codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import constants
from repro.core.operations import KVOperation, OpType
from repro.errors import ConfigurationError, ProtocolError
from repro.faults import FaultInjector, FaultPlan
from repro.network import (
    BatchEncoder,
    EthernetLink,
    decode_batch,
    encode_batch,
    packet_wire_bytes,
    packets_for_payload,
)
from repro.network.rdma import wire_bytes
from repro.sim import Simulator
from tests.waiting import all_of


class TestEthernetLink:
    def test_receive_time(self):
        sim = Simulator()
        link = EthernetLink(sim, bandwidth=5e9)  # the paper's 2 us RTT
        sim.run(link.receive(5000))
        # 5000 B at 5 B/ns + half RTT
        assert sim.now == pytest.approx(1000 + 1000)

    def test_duplex_directions_independent(self, monkeypatch):
        monkeypatch.setattr("repro.constants.NETWORK_RTT_NS", 0)
        sim = Simulator()
        link = EthernetLink(sim, bandwidth=5e9)
        rx = link.receive(5000)
        tx = link.send(5000)
        sim.run(all_of(sim, [rx, tx]))
        assert sim.now == pytest.approx(1000)  # not serialized together

    def test_counters(self):
        sim = Simulator()
        link = EthernetLink(sim)
        sim.run(link.receive(100))
        sim.run(link.send(200))
        snap = link.counters.snapshot()
        assert snap["rx_packets"] == 1
        assert snap["tx_bytes"] == 200

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            EthernetLink(Simulator(), bandwidth=0)

    def test_an_exception_in_a_transfer_step_propagates(self):
        """A transfer step that raised used to fail the packet's process;
        with nobody waiting on it the error vanished and the run went on."""
        sim = Simulator()
        injector = FaultInjector(FaultPlan(packet_reorder_prob=0.5), seed=1)
        link = EthernetLink(sim, injector=injector)

        draw = injector.fire

        def broken(site, kind, prob, now=None, detail=""):
            if kind == "packet_reorder":
                raise RuntimeError(f"reorder draw at {site}")
            return draw(site, kind, prob, now, detail)

        injector.fire = broken
        link.send(100)
        with pytest.raises(RuntimeError, match="eth.tx"):
            sim.run()


class TestRDMAFraming:
    def test_packet_overhead(self):
        assert packet_wire_bytes(0) == constants.RDMA_PACKET_OVERHEAD
        assert packet_wire_bytes(100) == 100 + 88

    def test_packets_for_payload(self):
        assert packets_for_payload(0) == 1
        assert packets_for_payload(1500) == 1
        assert packets_for_payload(1501) == 2

    def test_wire_bytes(self):
        assert wire_bytes(3000) == 3000 + 2 * 88

    def test_goodput_improves_with_batching(self):
        # One tiny KV op (~30 B encoded) per packet vs a full batch.
        small = 30 / wire_bytes(30)
        big = 1400 / wire_bytes(1400)
        assert big > small
        # Paper: up to ~4x network throughput from batching (Figure 15).
        assert big / small > 3.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            packet_wire_bytes(-1)


def _ops():
    return [
        KVOperation.put(b"key00001", b"v" * 16),
        KVOperation.put(b"key00002", b"v" * 16),  # same sizes + same value
        KVOperation.get(b"key00001"),
        KVOperation.delete(b"key00002"),
        KVOperation.update(b"key00003", func_id=1, param=b"\x01\x00"),
        KVOperation(
            OpType.UPDATE_VECTOR2VECTOR,
            b"vec",
            value=b"\x02" * 32,
            func_id=2,
            param=b"",
        ),
        KVOperation(OpType.REDUCE, b"vec", func_id=3, param=b"\x00" * 8),
        KVOperation(OpType.FILTER, b"vec", func_id=4),
        KVOperation(OpType.UPDATE_SCALAR2VECTOR, b"vec", func_id=5, param=b"\x07"),
    ]


class TestBatchCodec:
    def test_roundtrip(self):
        ops = _ops()
        decoded = decode_batch(encode_batch(ops))
        assert decoded == ops

    def test_empty_batch(self):
        assert decode_batch(encode_batch([])) == []

    def test_same_size_compression(self):
        """Ops with repeated key/value sizes encode smaller."""
        same = [KVOperation.put(b"k%07d" % i, b"v" * 32) for i in range(10)]
        mixed = [
            KVOperation.put(b"k" * (4 + i % 5), b"v" * (16 + i)) for i in range(10)
        ]
        assert len(encode_batch(same)) < len(encode_batch(mixed))

    def test_same_value_compression(self):
        """Repeated identical values are elided entirely."""
        repeated = [KVOperation.put(b"k%07d" % i, b"V" * 200) for i in range(8)]
        distinct = [
            KVOperation.put(b"k%07d" % i, bytes([i]) * 200) for i in range(8)
        ]
        saved = len(encode_batch(distinct)) - len(encode_batch(repeated))
        assert saved >= 7 * 200 - 16  # 7 elided values minus flag overhead

    def test_truncated_rejected(self):
        data = encode_batch(_ops())
        with pytest.raises(ProtocolError):
            decode_batch(data[:-1])

    def test_trailing_garbage_rejected(self):
        data = encode_batch([KVOperation.get(b"k")])
        with pytest.raises(ProtocolError):
            decode_batch(data + b"\x00")

    def test_bad_opcode_rejected(self):
        # count=1, opcode 0x0F (invalid)
        with pytest.raises(ProtocolError):
            decode_batch(b"\x01\x00\x0f\x01k")

    def test_max_key_length_roundtrips(self):
        """255 B is the u8 key-length field's ceiling and must encode."""
        ops = [
            KVOperation.put(b"k" * 255, b"v"),
            KVOperation.get(b"g" * 255),
        ]
        assert decode_batch(encode_batch(ops)) == ops

    @staticmethod
    def _forged(optype, key, value=None, func_id=0, param=b"", seq=0):
        """An op that skipped dataclass validation (buggy caller / future
        op type): the wire encoder must still enforce its field widths."""
        op = object.__new__(KVOperation)
        for name, val in (
            ("op", optype), ("key", key), ("value", value),
            ("func_id", func_id), ("param", param), ("seq", seq),
        ):
            object.__setattr__(op, name, val)
        return op

    def test_oversized_key_raises_protocol_error(self):
        """Regression: a 256 B key used to surface as an opaque
        ValueError from bytearray.append deep inside the encoder."""
        encoder = BatchEncoder()
        with pytest.raises(ProtocolError, match="255"):
            encoder.add(self._forged(OpType.GET, b"k" * 256))
        # The failed add left no partial op behind.
        assert decode_batch(encoder.finish()) == []
        assert decode_batch(encoder.finish()) == []

    def test_oversized_value_raises_protocol_error(self):
        encoder = BatchEncoder()
        with pytest.raises(ProtocolError, match="65535"):
            encoder.add(
                self._forged(OpType.PUT, b"k", value=b"v" * 0x10000)
            )
        assert decode_batch(encoder.finish()) == []

    def test_max_value_length_roundtrips(self):
        ops = [KVOperation.put(b"k", b"v" * 0xFFFF)]
        assert decode_batch(encode_batch(ops)) == ops

    def test_oversized_param_raises_protocol_error(self):
        encoder = BatchEncoder()
        with pytest.raises(ProtocolError, match="param"):
            encoder.add(
                self._forged(
                    OpType.UPDATE_SCALAR, b"k", func_id=1,
                    param=b"p" * 0x10000,
                )
            )
        assert decode_batch(encoder.finish()) == []

    def test_encoder_incremental_size(self):
        encoder = BatchEncoder()
        assert len(encoder.finish()) == 2
        encoder.add(KVOperation.get(b"abc"))
        size_one = len(encoder.finish())
        encoder.add(KVOperation.get(b"def"))  # same klen: smaller increment
        assert len(encoder.finish()) - size_one < size_one - 2
        assert len(decode_batch(encoder.finish())) == 2

    def test_batch_count_limit(self):
        encoder = BatchEncoder()
        encoder._count = 0xFFFF
        with pytest.raises(ProtocolError):
            encoder.add(KVOperation.get(b"k"))

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([OpType.GET, OpType.PUT, OpType.DELETE]),
                st.binary(min_size=1, max_size=64),
                st.binary(min_size=0, max_size=256),
            ),
            max_size=50,
        )
    )
    def test_roundtrip_property(self, specs):
        ops = []
        for op_type, key, value in specs:
            if op_type is OpType.PUT:
                ops.append(KVOperation.put(key, value))
            elif op_type is OpType.GET:
                ops.append(KVOperation.get(key))
            else:
                ops.append(KVOperation.delete(key))
        assert decode_batch(encode_batch(ops)) == ops


class TestKVOperationValidation:
    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            KVOperation.get(b"")

    def test_oversize_key_rejected(self):
        with pytest.raises(ValueError):
            KVOperation.get(b"k" * 256)

    def test_put_requires_value(self):
        with pytest.raises(ValueError):
            KVOperation(OpType.PUT, b"k")

    def test_get_rejects_value(self):
        with pytest.raises(ValueError):
            KVOperation(OpType.GET, b"k", value=b"v")

    def test_get_rejects_func(self):
        with pytest.raises(ValueError):
            KVOperation(OpType.GET, b"k", func_id=1)

    def test_is_write(self):
        assert KVOperation.put(b"k", b"v").is_write
        assert KVOperation.delete(b"k").is_write
        assert KVOperation.update(b"k", 1, b"").is_write
        assert not KVOperation.get(b"k").is_write
        assert not KVOperation(OpType.REDUCE, b"k", func_id=1).is_write
        assert not KVOperation.range(b"k", 3).is_write
        assert not KVOperation.scan(b"k", 3).is_write

    def test_submit_checks_the_passed_epoch_and_minus_one_skips_it(self):
        """The router hands its routing epoch to ``ClusterNode.submit``
        instead of stamping a copy of the op: a stale ``epoch=`` NACKs with
        WrongEpoch before any side effect, ``epoch=-1`` (the default) skips
        the check, and the op object itself is what reaches the node."""
        from repro.core.config import KVDirectConfig
        from repro.errors import WrongEpoch
        from repro.multi import Cluster

        sim = Simulator()
        cluster = Cluster(
            sim, num_nodes=2, num_slots=2,
            config=KVDirectConfig(memory_size=2 << 20),
        )
        cluster.map.bump()  # the cluster is at epoch 1
        op = KVOperation.put(b"k", b"v", seq=1)
        node = cluster.nodes[cluster.map.primary(cluster.map.slot_of(b"k"))]

        def outcome(event):
            sim.run()
            return event.value if event.ok else event.exception

        stale = outcome(node.submit(op, None, epoch=0))
        assert isinstance(stale, WrongEpoch)
        assert (stale.expected, stale.got) == (1, 0)
        assert node.accepted == 0 and node.store.peek(b"k") is None
        assert cluster.counters["wrong_epoch_nacks"] == 1
        assert outcome(node.submit(op, None)).ok
        read = KVOperation.get(b"k", seq=2)
        assert outcome(node.submit(read, None, epoch=1)).value == b"v"
        assert node.accepted == 2
        assert not hasattr(op, "epoch")  # nothing on the op to fall back to

    def test_key_hash_is_computed_on_read_and_never_stored(self):
        import dataclasses

        from repro.core.hashing import fnv1a64
        from repro.core.operations import FanOut

        op = KVOperation.put(b"k", b"v", seq=3)
        before = dict(vars(op))
        taken = [lane.take(1) for lane in FanOut([op], 2).lanes]
        assert ([op], [fnv1a64(b"k")]) in taken
        assert vars(op) == before  # hashing it stores nothing on the op
        assert op == KVOperation.put(b"k", b"v")
        assert "key_hash" not in {f.name for f in dataclasses.fields(op)}

    def test_key_must_be_bytes(self):
        with pytest.raises(TypeError):
            KVOperation.get("string-key")
