"""Tests for operation-trace recording and replay."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operations import KVOperation, OpType
from repro.core.store import KVDirectStore
from repro.errors import ProtocolError
from repro.workloads import trace as trace_module
from repro.workloads.trace import (
    TraceReader,
    TraceWriter,
    load_trace,
    record_trace,
    trace_from_bytes,
    trace_to_bytes,
)


def sample_ops(n=600):
    ops = []
    for i in range(n):
        if i % 3 == 0:
            ops.append(KVOperation.put(b"key%04d" % i, b"v" * (i % 50)))
        elif i % 3 == 1:
            ops.append(KVOperation.get(b"key%04d" % (i - 1)))
        else:
            ops.append(KVOperation.delete(b"key%04d" % (i - 2)))
    return ops


class TestRoundtrip:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "workload.kvdt"
        ops = sample_ops()
        count = record_trace(ops, path)
        assert count == len(ops)
        assert load_trace(path) == ops

    def test_bytes_roundtrip(self):
        ops = sample_ops(100)
        assert trace_from_bytes(trace_to_bytes(ops)) == ops

    def test_empty_trace(self):
        assert trace_from_bytes(trace_to_bytes([])) == []

    def test_spans_multiple_batches(self):
        ops = sample_ops(700)  # > 2 internal batches of 256
        assert trace_from_bytes(trace_to_bytes(ops)) == ops

    def test_streaming_reader(self, tmp_path):
        path = tmp_path / "t.kvdt"
        ops = sample_ops(300)
        record_trace(ops, path)
        streamed = list(TraceReader(path))
        assert streamed == ops

    def test_writer_context_manager_flushes(self, tmp_path):
        path = tmp_path / "t.kvdt"
        with TraceWriter(path) as writer:
            writer.append(KVOperation.get(b"k"))
        assert load_trace(path) == [KVOperation.get(b"k")]

    @given(
        st.lists(
            st.tuples(st.binary(min_size=1, max_size=32),
                      st.binary(max_size=64)),
            max_size=60,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_put_trace_property(self, pairs):
        ops = [KVOperation.put(k, v) for k, v in pairs]
        assert trace_from_bytes(trace_to_bytes(ops)) == ops


class TestCorruption:
    def test_bad_magic(self):
        with pytest.raises(ProtocolError, match="magic"):
            load_trace(io.BytesIO(b"NOPE\x01\x00\x00\x00"))

    def test_bad_version(self):
        with pytest.raises(ProtocolError, match="version"):
            load_trace(io.BytesIO(b"KVDT\x63\x00\x00\x00"))

    def test_truncated_header(self):
        with pytest.raises(ProtocolError, match="header"):
            load_trace(io.BytesIO(b"KV"))

    def test_truncated_frame(self):
        data = trace_to_bytes(sample_ops(10))
        with pytest.raises(ProtocolError):
            trace_from_bytes(data[:-3])


class TestReaderClosesItsFile:
    """A trace the reader opened from a path is closed on every
    ``ProtocolError``, not left for the garbage collector."""

    @pytest.fixture
    def opened(self, monkeypatch):
        files = []

        def spy(path, mode):
            files.append(open(path, mode))
            return files[-1]

        monkeypatch.setattr(trace_module, "open", spy, raising=False)
        return files

    @pytest.mark.parametrize("data,match", [
        (b"KV", "header"),
        (b"NOPE\x01\x00\x00\x00", "magic"),
        (b"KVDT\x63\x00\x00\x00", "version"),
    ], ids=["truncated-header", "bad-magic", "bad-version"])
    def test_a_bad_header(self, tmp_path, opened, data, match):
        path = tmp_path / "bad.kvdt"
        path.write_bytes(data)
        with pytest.raises(ProtocolError, match=match):
            TraceReader(path)
        assert len(opened) == 1 and opened[0].closed

    @pytest.mark.parametrize("cut", [3, 300], ids=["mid-frame", "mid-batch"])
    def test_a_truncated_body(self, tmp_path, opened, cut):
        path = tmp_path / "cut.kvdt"
        path.write_bytes(trace_to_bytes(sample_ops(600))[:-cut])
        with pytest.raises(ProtocolError, match="truncated"):
            load_trace(path)
        assert len(opened) == 1 and opened[0].closed

    def test_a_whole_trace(self, tmp_path, opened):
        path = tmp_path / "ok.kvdt"
        record_trace(sample_ops(10), path)
        assert len(load_trace(path)) == 10
        assert opened[-1].closed


class TestReplay:
    def test_replay_reproduces_state(self, tmp_path):
        """Two stores fed the same trace end in identical states."""
        path = tmp_path / "workload.kvdt"
        record_trace(sample_ops(500), path)

        def run():
            store = KVDirectStore.create(memory_size=1 << 20)
            for op in TraceReader(path):
                store.execute(op)
            return dict(store.items())

        assert run() == run()

    def test_replay_across_configs(self, tmp_path):
        """Config knobs change timing, never semantics."""
        path = tmp_path / "workload.kvdt"
        record_trace(sample_ops(300), path)
        states = []
        for threshold in (0, 20):
            store = KVDirectStore.create(
                memory_size=1 << 20, inline_threshold=threshold
            )
            for op in TraceReader(path):
                store.execute(op)
            states.append(dict(store.items()))
        assert states[0] == states[1]
