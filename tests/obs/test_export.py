"""Chrome trace export tests."""

import json

import pytest

from repro.obs import SpanRecorder, chrome_trace_events, write_chrome_trace
from repro.sim import Environment


def recorder_with_spans():
    env = Environment()
    rec = SpanRecorder.attach(env)
    rec.record("get", "server", 0.002, actor="client", chunk="abc123")
    rec.record("get", "group_cache", 0.0001, actor="client")
    rec.record("rpc_get_file", "service", 0.0005, actor="diesel0.rpc")
    return rec


class TestChromeTrace:
    def test_metadata_events_come_first(self):
        events = list(chrome_trace_events(recorder_with_spans()))
        phases = [e["ph"] for e in events]
        n_meta = phases.count("M")
        assert n_meta == 2  # two distinct actors
        assert phases[:n_meta] == ["M"] * n_meta
        assert set(phases[n_meta:]) == {"X"}

    def test_span_event_fields(self):
        events = [e for e in chrome_trace_events(recorder_with_spans())
                  if e["ph"] == "X"]
        get = next(e for e in events if e["name"] == "get:server")
        assert get["cat"] == "get"
        assert get["dur"] == pytest.approx(2000.0)  # 2 ms in µs
        assert get["args"]["layer"] == "server"
        assert get["args"]["chunk"] == "abc123"
        assert get["pid"] == 1

    def test_actor_thread_mapping_is_stable(self):
        events = list(chrome_trace_events(recorder_with_spans()))
        names = {e["args"]["name"]: e["tid"] for e in events
                 if e["ph"] == "M"}
        for e in events:
            if e["ph"] == "X" and e["args"].get("layer") == "service":
                assert e["tid"] == names["diesel0.rpc"]

    def test_written_file_is_valid_json_array(self, tmp_path):
        path = tmp_path / "trace.json"
        n = write_chrome_trace(recorder_with_spans(), path)
        assert n == 5  # 2 metadata + 3 spans
        data = json.loads(path.read_text())
        assert isinstance(data, list) and len(data) == 5
        # One event per line => usable as a JSONL-style log too.
        lines = path.read_text().splitlines()
        assert len(lines) == n + 2  # events + "[" and "]"
        json.loads(lines[1].rstrip(","))

    def test_empty_recorder_writes_empty_array(self, tmp_path):
        rec = SpanRecorder.attach(Environment())
        path = tmp_path / "empty.json"
        assert write_chrome_trace(rec, path) == 0
        assert json.loads(path.read_text()) == []
