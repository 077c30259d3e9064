"""The benchmark's three workloads, driven through the library's public API.

Each workload is a pair of steps:

* ``setup(seed)`` builds a fresh testbed, generates the seeded dataset
  and bulk-loads it (host cost only; no simulated time passes);
* ``run(world)`` runs the measured job to completion in simulated time
  and returns an :class:`Outcome`.

All concurrency is simulated: one process, one thread.  Every loop is
closed: a trainer, reader or writer issues its next operation only after
the previous one returned.  Every payload a consumer receives is compared
byte for byte with the content the seed generated for that path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

import numpy as np

from repro.bench.setups import (
    add_diesel,
    bulk_load_diesel,
    diesel_client_with_snapshot,
    make_testbed,
)
from repro.calibration import ModelProfile
from repro.cluster.node import Node
from repro.core.client import DieselClient
from repro.core.config import DieselConfig
from repro.core.fuse import FuseMount
from repro.core.shared_cache import SharedCacheRegistry
from repro.dlt import sweep, trainer
from repro.dlt.readers import FuseReader
from repro.workloads.datasets import DatasetSpec
from repro.workloads.filegen import generate_file

KB = 1024
MB = 1024 * 1024


@dataclass
class Outcome:
    """What one measured job produced: simulated times and counts only."""

    #: Simulated time for the job to finish (mean over tasks when a job
    #: runs several).
    job_s: float
    #: Simulated latency of every closed-loop read operation.
    latencies: List[float]
    #: Consumer time spent waiting for data, and consumer time in all.
    wait_s: float
    busy_s: float
    #: Object-store bytes read, and payload bytes delivered and checked.
    backend_bytes: int
    delivered_bytes: int
    #: Workload-specific simulated values reported per layer.
    detail: Dict[str, Any]
    #: Operations whose output was checked, and how many of them failed.
    attempted: int
    failed: int


def pooled(outcomes: List[Outcome]) -> Dict[str, float]:
    """End-to-end simulated metrics over the jobs of several input sets."""
    latencies = [x for o in outcomes for x in o.latencies]
    return {
        "job_s": float(np.mean([o.job_s for o in outcomes])),
        "stall_frac": sum(o.wait_s for o in outcomes)
        / sum(o.busy_s for o in outcomes),
        "read_p50_ms": _pct_ms(latencies, 50),
        "read_p99_ms": _pct_ms(latencies, 99),
        "backend_bytes_per_byte": sum(o.backend_bytes for o in outcomes)
        / sum(o.delivered_bytes for o in outcomes),
    }


def pooled_detail(outcomes: List[Outcome]) -> Dict[str, float]:
    """Per-layer simulated metrics over the jobs of several input sets
    (0 where a workload has no such quantity)."""

    def mean(key: str) -> float:
        return float(np.mean([o.detail.get(key, 0.0) for o in outcomes]))

    refresh = [x for o in outcomes for x in o.detail.get("refresh_s", [])]
    return {
        "dlt.iterations": mean("iterations"),
        "dlt.data_wait_s": mean("data_wait_s"),
        "dlt.cold_epoch_s": mean("cold_epoch_s"),
        "dlt.warm_epoch_s": mean("warm_epoch_s"),
        "core.client.put_mb_s": mean("put_mb_s"),
        "core.snapshot.refresh_p99_ms": _pct_ms(refresh, 99) if refresh else 0.0,
    }


@dataclass
class Checker:
    """Compares every delivered payload with its generated content."""

    expected: Dict[str, bytes]
    attempted: int = 0
    failed: int = 0
    delivered_bytes: int = 0
    errors: List[str] = field(default_factory=list)

    def check(self, path: str, payload) -> None:
        self.attempted += 1
        want = self.expected.get(path)
        if want is None or payload != want:
            self.fail(f"wrong size or content for {path}")
            return
        self.delivered_bytes += len(want)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(why)


class VerifyingReader:
    """An ``EpochReader`` that checks every payload its inner reader
    returns.  Exceptions count as failed reads instead of ending the job,
    so one bad read is reported rather than hiding the rest."""

    def __init__(self, inner, checker: Checker) -> None:
        self.inner = inner
        self.checker = checker
        if hasattr(inner, "read_batch"):
            self.read_batch = self._read_batch

    def begin_epoch(self, epoch: int):
        order = yield from self.inner.begin_epoch(epoch)
        return order

    def read(self, path: str):
        try:
            data = yield from self.inner.read(path)
        except Exception as exc:  # reported as a failed read
            self.checker.attempted += 1
            self.checker.fail(f"{path}: {exc!r}")
            return b""
        self.checker.check(path, data)
        return data

    def _read_batch(self, paths):
        try:
            payloads = yield from self.inner.read_batch(paths)
        except Exception as exc:  # reported as failed reads
            self.checker.attempted += len(paths)
            for p in paths:
                self.checker.fail(f"{p}: {exc!r}")
            return {}
        for p in paths:
            self.checker.check(p, payloads.get(p, b""))
        return payloads


def _files(spec: DatasetSpec, seed: int) -> Dict[str, bytes]:
    return {path: generate_file(path, size, seed) for path, size in spec.iter_files()}


def _pct_ms(samples: List[float], q: float) -> float:
    return float(np.percentile(samples, q)) * 1e3


def store_devices(tb) -> list:
    """The devices behind the object store (SSD, plus HDD when tiered)."""
    store = tb.store
    if hasattr(store, "hdd"):
        return [store.ssd, store.hdd]
    return [store.device]


def _backend_read_bytes(tb) -> int:
    return sum(d.stats.read_bytes for d in store_devices(tb))


def _training_outcome(tb, checker: Checker, results, job_s: float,
                      first_epoch_extra_s: float = 0.0) -> Outcome:
    """An :class:`Outcome` from per-worker training results.

    The read latency of a training job is each mini-batch's fetch time
    (``IterationTiming.fetch_time_s``, the Fig 14 "data access time");
    its stall is the compute loop's wait for ready batches.
    """
    timings = [t for r in results for t in r.timings]
    wait = sum(t.data_time_s for t in timings)
    n_epochs = len(results[0].epoch_walls)
    epoch_s = [max(r.epoch_walls[e] for r in results) for e in range(n_epochs)]
    return Outcome(
        job_s=job_s,
        latencies=[t.fetch_time_s for t in timings],
        wait_s=wait,
        busy_s=sum(sum(r.epoch_walls) for r in results),
        backend_bytes=_backend_read_bytes(tb),
        delivered_bytes=checker.delivered_bytes,
        detail={
            "iterations": len(timings),
            "data_wait_s": wait,
            "cold_epoch_s": first_epoch_extra_s + epoch_s[0],
            "warm_epoch_s": float(np.mean(epoch_s[1:])),
        },
        attempted=checker.attempted,
        failed=checker.failed,
    )


# ---------------------------------------------------------------- train-fuse
#: One DIESEL-FUSE trainer (Fig 14/15 path), ImageNet-shaped files.
TRAIN_FILES = 512
#: 16 mini-batches per epoch: the cold epoch's batches are 1.6% of all,
#: so the p99 fetch time reads the cold (HDD) fetches and p50 the warm.
TRAIN_EPOCHS = 64
TRAIN_BATCH = 32
TRAIN_GROUP = 2  # chunks in the client's shuffle working set
TRAIN_COMPUTE_S = 0.9e-3  # per mini-batch; puts stall_frac near 0.5


def train_fuse_setup(seed: int) -> dict:
    spec = DatasetSpec("im", TRAIN_FILES, 110 * KB, n_classes=100, seed=seed)
    files = _files(spec, seed)
    dataset_bytes = sum(len(v) for v in files.values())
    tb = make_testbed(n_compute=1, n_storage=4)
    # SSD tier sized to hold the whole dataset: epoch 0 streams from
    # HDD and promotes, later epochs read from SSD.
    add_diesel(tb, n_servers=1, tiered=True, ssd_cache_bytes=2 * dataset_bytes)
    chunks = bulk_load_diesel(tb, "im", files, chunk_size=4 * MB)
    config = DieselConfig(shuffle_group_size=TRAIN_GROUP, prefetch_depth=2)
    client = diesel_client_with_snapshot(
        tb, "im", tb.compute_nodes[0], "trainer", config=config
    )
    client.enable_shuffle(group_size=TRAIN_GROUP)
    mount = FuseMount([client], tb.cal)
    checker = Checker(files)
    reader = VerifyingReader(FuseReader(mount, chunk_wise=True, seed=seed), checker)
    return {"tb": tb, "clients": [client], "checker": checker, "reader": reader,
            "caches": [], "registry": None, "chunks": len(chunks)}


def train_fuse_run(world: dict) -> Outcome:
    tb = world["tb"]
    model = ModelProfile("train-fuse", compute_s=TRAIN_COMPUTE_S)
    t0 = tb.env.now
    result = tb.run(trainer.run_training(
        tb.env, world["reader"], model, epochs=TRAIN_EPOCHS,
        batch_size=TRAIN_BATCH, io_workers=4, prefetch_depth=2,
    ))
    return _training_outcome(tb, world["checker"], [result], tb.env.now - t0)


# -------------------------------------------------------------- sweep-tiered
#: Model-selection sweep over a shared RAM+NVMe tier, dataset 2x RAM.
SWEEP_TASKS = 8
SWEEP_NODES = 4
SWEEP_FILES = 2048
SWEEP_FILE = 16 * KB
SWEEP_CHUNK = 256 * KB
SWEEP_EPOCHS = 2
SWEEP_BATCH = 8
SWEEP_COMPUTE_S = 0.8e-3


def sweep_tiered_setup(seed: int) -> dict:
    spec = DatasetSpec("ds", SWEEP_FILES, SWEEP_FILE, n_classes=64, seed=seed)
    files = _files(spec, seed)
    dataset_bytes = sum(len(v) for v in files.values())
    node_ram = dataset_bytes // (2 * SWEEP_NODES)
    tb = make_testbed(n_compute=0, n_storage=4)
    add_diesel(tb, n_servers=1)
    chunks = bulk_load_diesel(tb, "ds", files, chunk_size=SWEEP_CHUNK)
    nodes = [
        tb.fabric.add_node(Node(tb.env, f"gpu{i}", memory_bytes=node_ram,
                                nic_channels=8))
        for i in range(SWEEP_NODES)
    ]
    registry = SharedCacheRegistry(
        tb.env, store="tiered", disk_tier_bytes=4 * dataset_bytes
    )
    checker = Checker(files)
    tasks, clients = [], []
    for t in range(SWEEP_TASKS):
        task_clients = [
            diesel_client_with_snapshot(tb, "ds", node, f"t{t}w{w}", rank=w)
            for w, node in enumerate(nodes)
        ]
        clients += task_clients
        tasks.append(sweep.build_sweep_task(
            f"task{t}", tb.env, tb.fabric, tb.diesel, "ds", task_clients,
            shared=registry, seed=seed * SWEEP_TASKS + t,
        ))
    return {"tb": tb, "clients": clients, "checker": checker, "tasks": tasks,
            "caches": [t.cache for t in tasks], "registry": registry,
            "chunks": len(chunks)}


def sweep_tiered_run(world: dict) -> Outcome:
    tb, checker, tasks = world["tb"], world["checker"], world["tasks"]
    env = tb.env
    model = ModelProfile("sweep-tiered", compute_s=SWEEP_COMPUTE_S)
    t0 = env.now
    task_s: List[float] = []

    def train(task):
        readers = [VerifyingReader(r, checker) for r in task.make_readers()]
        results = yield from trainer.run_task_training(
            env, readers, model, SWEEP_EPOCHS, SWEEP_BATCH, 1, 2)
        task_s.append(env.now - t0)
        return results

    def job():
        yield from sweep.register_sweep(env, tasks)
        register_s = env.now - t0
        procs = [env.process(train(t)) for t in tasks]
        results = []
        for p in procs:
            results += (yield p)
        return register_s, results

    register_s, results = tb.run(job())
    # A task is done when its slowest worker is; the job time is the
    # mean over tasks of that time-to-done.
    return _training_outcome(tb, checker, results, float(np.mean(task_s)),
                             first_epoch_extra_s=register_s)


# ------------------------------------------------------------ ingest-refresh
#: A writer appends rounds to a live dataset while readers follow it.
INGEST_BASE_FILES = 10_000
INGEST_BASE_FILE = 2 * KB
INGEST_ROUNDS = 128
INGEST_ROUND_FILES = 8
INGEST_FILE = 32 * KB
INGEST_CHUNK = 128 * KB
INGEST_BASE_CHUNK = 1 * MB
INGEST_READERS = 4
INGEST_CONSUME_S = 50e-6  # per-file processing by a reader


def ingest_refresh_setup(seed: int) -> dict:
    base = DatasetSpec("live", INGEST_BASE_FILES, INGEST_BASE_FILE,
                       n_classes=100, seed=seed)
    tb = make_testbed(n_compute=1 + INGEST_READERS, n_storage=4)
    config = DieselConfig(chunk_size=INGEST_CHUNK, ingest_pipeline_depth=2)
    add_diesel(tb, n_servers=1, config=config)
    chunks = bulk_load_diesel(tb, "live", _files(base, seed),
                              chunk_size=INGEST_BASE_CHUNK)
    new = DatasetSpec("live", INGEST_ROUNDS * INGEST_ROUND_FILES, INGEST_FILE,
                      n_classes=100, seed=seed + 1)
    rounds: List[List[str]] = []
    expected: Dict[str, bytes] = {}
    for i, (path, size) in enumerate(new.iter_files()):
        path = path.replace("/train/", "/new/")
        if i % INGEST_ROUND_FILES == 0:
            rounds.append([])
        rounds[-1].append(path)
        expected[path] = generate_file(path, size, seed)
    writer = DieselClient(tb.env, tb.compute_nodes[0], tb.diesel_servers,
                          "live", name="writer", config=config)
    readers = [
        diesel_client_with_snapshot(tb, "live", tb.compute_nodes[1 + r],
                                    f"reader{r}", rank=r)
        for r in range(INGEST_READERS)
    ]
    return {"tb": tb, "clients": [writer] + readers, "writer": writer,
            "readers": readers, "rounds": rounds,
            "checker": Checker(expected), "caches": [], "registry": None,
            "chunks": len(chunks)}


def ingest_refresh_run(world: dict) -> Outcome:
    tb, checker = world["tb"], world["checker"]
    env = tb.env
    writer, rounds = world["writer"], world["rounds"]
    expected = checker.expected
    written: List[int] = []  # rounds whose put_many has returned
    write_s: List[float] = []
    refresh_s: List[float] = []
    read_s: List[float] = []
    busy = {"io": 0.0, "compute": 0.0}
    round_ready = [env.event() for _ in rounds]

    def write_loop():
        for r, paths in enumerate(rounds):
            t0 = env.now
            try:
                yield from writer.put_many([(p, expected[p]) for p in paths])
            except Exception as exc:  # reported as failed writes
                checker.attempted += len(paths)
                for p in paths:
                    checker.fail(f"put {p}: {exc!r}")
            else:
                write_s.append(env.now - t0)
                written.append(r)
            # Readers follow every round, written or not, so none hangs.
            round_ready[r].succeed(r)

    def read_loop(client):
        for r, paths in enumerate(rounds):
            yield round_ready[r]
            t0 = env.now
            try:
                yield from client.refresh_meta()
            except Exception as exc:  # reported as a failed refresh
                checker.attempted += 1
                checker.fail(f"refresh: {exc!r}")
                continue
            refresh_s.append(env.now - t0)
            busy["io"] += env.now - t0
            for p in paths:
                t0 = env.now
                try:
                    info = yield from client.stat(p)
                    data = yield from client.get(p)
                except Exception as exc:  # reported as a failed read
                    checker.attempted += 1
                    checker.fail(f"{p}: {exc!r}")
                    continue
                read_s.append(env.now - t0)
                busy["io"] += env.now - t0
                if info["size"] != len(expected[p]):
                    checker.attempted += 1
                    checker.fail(f"stat size of {p}")
                    continue
                checker.check(p, data)
                yield env.timeout(INGEST_CONSUME_S)
                busy["compute"] += INGEST_CONSUME_S

    t0 = env.now
    tb.run_all([write_loop()] + [read_loop(c) for c in world["readers"]])
    job_s = env.now - t0
    written_bytes = sum(len(expected[p]) for r in written for p in rounds[r])
    return Outcome(
        job_s=job_s,
        latencies=read_s,
        wait_s=busy["io"],
        busy_s=busy["io"] + busy["compute"],
        backend_bytes=_backend_read_bytes(tb),
        delivered_bytes=checker.delivered_bytes,
        detail={
            "put_mb_s": written_bytes / MB / sum(write_s) if write_s else 0.0,
            "refresh_s": refresh_s,
        },
        attempted=checker.attempted + len(refresh_s) + len(written),
        failed=checker.failed,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], dict]
    run: Callable[[dict], Outcome]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("train-fuse", train_fuse_setup, train_fuse_run),
        Workload("sweep-tiered", sweep_tiered_setup, sweep_tiered_run),
        Workload("ingest-refresh", ingest_refresh_setup, ingest_refresh_run),
    )
}

