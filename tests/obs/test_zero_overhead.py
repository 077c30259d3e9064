"""Regression: attaching a recorder must not change what it measures.

The observability contract is *zero cost when disabled and read-only
when enabled*: every instrumentation site is a single ``if rec is
None`` guard on ``env.recorder`` around pure bookkeeping, so an identical workload must
produce byte-identical stats counters and identical simulated elapsed
time whether or not a recorder is attached.
"""

from repro.bench.setups import (
    add_diesel,
    bulk_load_diesel,
    diesel_client_with_snapshot,
    make_testbed,
)
from repro.calibration import KB, MB
from repro.core.client import DieselClient
from repro.core.config import DieselConfig
from repro.obs import SpanRecorder
from repro.util import ids as _ids

FILES = {f"/zc/f{i:04d}.bin": b"\x77" * (64 * KB) for i in range(96)}


def _pin_id_counter():
    # Chunk IDs embed a process-global generator-instance counter, so
    # chunk→server placement (stable_hash of the id) differs between
    # *any* two invocations.  Pin the counter so paired runs mint
    # identical ids and per-server stats are comparable exactly.
    with _ids._instance_lock:
        _ids._instance_counter = 1 << 20


def read_workload(attach: bool):
    """A Fig 14-style shuffled read epoch plus a batched get_many."""
    _pin_id_counter()
    tb = make_testbed(n_compute=1)
    add_diesel(tb, n_servers=2)
    bulk_load_diesel(tb, "zc", FILES, chunk_size=1 * MB)
    client = diesel_client_with_snapshot(
        tb, "zc", tb.compute_nodes[0], "reader",
        config=DieselConfig(
            shuffle_group_size=2, prefetch_depth=2, read_fanout=2
        ),
    )
    if attach:
        SpanRecorder.attach(tb.env)
    client.enable_shuffle()
    plan = client.epoch_file_list(seed=13)

    def job():
        for path in plan.files:
            yield from client.get(path)
        yield from client.get_many(sorted(FILES)[::7][:10])

    t0 = tb.env.now
    tb.run(job())
    return (
        tb.env.now - t0,
        client.stats.to_dict(),
        [s.stats.to_dict() for s in tb.diesel_servers],
        [s.endpoint.stats.to_dict() for s in tb.diesel_servers],
    )


def write_workload(attach: bool):
    """A Fig 9-style pipelined ingest."""
    _pin_id_counter()
    tb = make_testbed(n_compute=1)
    add_diesel(tb, n_servers=2)
    client = DieselClient(
        tb.env, tb.compute_nodes[0], tb.diesel_servers, "zw",
        name="writer",
        config=DieselConfig(ingest_pipeline_depth=2),
        calibration=tb.cal,
    )
    if attach:
        SpanRecorder.attach(tb.env)
    items = [(f"/zw/f{i:04d}.bin", b"\x66" * (256 * KB)) for i in range(24)]
    t0 = tb.env.now
    tb.run(client.put_many(items))
    return (
        tb.env.now - t0,
        client.stats.to_dict(),
        [s.stats.to_dict() for s in tb.diesel_servers],
    )


class TestZeroOverhead:
    def test_read_path_identical_with_and_without_recorder(self):
        plain = read_workload(attach=False)
        observed = read_workload(attach=True)
        assert plain == observed  # elapsed, client, server, rpc stats

    def test_write_path_identical_with_and_without_recorder(self):
        plain = write_workload(attach=False)
        observed = write_workload(attach=True)
        assert plain == observed

    def test_detached_hot_path_records_nothing(self):
        tb = make_testbed(n_compute=1)
        add_diesel(tb)
        bulk_load_diesel(tb, "zc", FILES, chunk_size=1 * MB)
        client = diesel_client_with_snapshot(
            tb, "zc", tb.compute_nodes[0], "reader"
        )
        rec = SpanRecorder.attach(tb.env)
        SpanRecorder.detach(tb.env)
        tb.run(client.get(sorted(FILES)[0]))
        assert len(rec) == 0
        assert rec.to_dict() == {}
