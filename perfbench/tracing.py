"""Benchmark-side tracing: wrappers around each layer's entry points.

Nothing here changes the library.  :func:`install` replaces the entry
points listed in :data:`LAYERS` with wrappers for the traced run, and
:meth:`Installed.restore` puts the original functions back.

Each wrapped call becomes a :class:`Span` with its layer, name, parent
span, request id (the id of the outermost span of its chain), simulated
start and end, and host self time.  A call that returns a generator
(every simulated operation does) is handed back through a proxy
generator that times each resume separately, so a layer's self time
counts only the host time its own code ran: time spent in nested
wrapped calls is charged to them, and time the operation spent parked
in the simulation is charged to nobody.  ``Environment.run`` is the
root: host time inside it that no wrapped layer claims is the kernel's.

Spans stay in memory and are written out once the run ends, in the
Chrome trace-event format that ``chrome://tracing`` opens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from pathlib import Path
from time import perf_counter
from types import GeneratorType
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.export import write_chrome_trace as write_events
from repro.obs.span import Span as ObsSpan

#: Private methods that are entry points all the same: RPC handlers the
#: endpoints call, and generators the library spawns as processes.
_PRIVATE_ENTRY = {
    "DieselServer": ("_handle",),
    "CacheMaster": ("_handle",),
    "ChunkPrefetcher": ("_fetch",),
    "ChunkPipeline": ("_send",),
    "VerifyingReader": ("_read_batch",),
}

#: layer -> [(module, class or None for module functions, names or None
#: for every public method of the class)].
LAYERS: Dict[str, List[Tuple[str, Optional[str], Optional[Sequence[str]]]]] = {
    "rpc": [("repro.rpc.endpoint", "RpcEndpoint", None)],
    "kvstore": [("repro.kvstore.sharded", "ShardedKV", None)],
    "objectstore": [
        ("repro.objectstore.store", "ObjectStore", None),
        ("repro.objectstore.tiered", "TieredStore", None),
    ],
    "core.server": [("repro.core.server", "DieselServer", None)],
    "core.snapshot": [
        ("repro.core.snapshot", "SnapshotIndex", None),
        ("repro.core.snapshot", "MetadataSnapshot", None),
    ],
    "core.client": [("repro.core.client", "DieselClient", None)],
    "core.fuse": [("repro.core.fuse", "FuseMount", None)],
    "core.prefetch": [("repro.core.prefetch", "ChunkPrefetcher", None)],
    "core.chunk_builder": [
        ("repro.core.chunk_builder", "ChunkBuilder", None),
        ("repro.core.chunk_builder", "ChunkPipeline", None),
    ],
    "core.dist_cache": [
        ("repro.core.dist_cache", "TaskCache", None),
        ("repro.core.dist_cache", "CacheMaster", None),
    ],
    "core.shared_cache": [
        ("repro.core.shared_cache", "SharedChunkCache", None),
        ("repro.core.shared_cache", "SharedCacheRegistry", None),
    ],
    "core.chunk_store": [
        ("repro.core.chunk_store", "RamStore", None),
        ("repro.core.chunk_store", "TieredStore", None),
    ],
    "dlt": [
        ("repro.dlt.trainer", None, ("run_training", "run_task_training")),
        ("repro.dlt.sweep", None, ("register_sweep",)),
        ("repro.dlt.sweep", "SweepTask", None),
        ("repro.dlt.readers", "FuseReader", None),
        ("repro.dlt.readers", "CacheReader", None),
        ("repro.dlt.dataloader", "EpochScheduler", None),
    ],
    # The benchmark's own consumers: payload checks are not kernel time.
    "bench": [
        ("workloads", "VerifyingReader", None),
        ("workloads", "Checker", ("check",)),
    ],
}


class Span:
    __slots__ = ("sid", "layer", "name", "parent", "req", "t0", "t1",
                 "self_s", "key")

    def __init__(self, sid, layer, name, parent, req, t0) -> None:
        self.sid = sid
        self.layer = layer
        self.name = name
        self.parent = parent
        self.req = req
        self.t0 = t0
        self.t1 = t0
        self.self_s = 0.0
        self.key = None


class Tracer:
    """Span store plus the host-time stack the wrappers charge."""

    def __init__(self) -> None:
        self.active = False
        self.env = None
        self.spans: List[Span] = []
        # Bottom of the host stack: time outside every span, including
        # outside Environment.run.
        self._outside = Span(0, "outside", "outside", 0, 0, 0.0)
        self._stack: List[Span] = [self._outside]
        self._last = perf_counter()

    # -- host-time accounting ------------------------------------------
    def enter(self, span: Span) -> None:
        now = perf_counter()
        stack = self._stack
        stack[-1].self_s += now - self._last
        stack.append(span)
        self._last = now

    def leave(self) -> None:
        now = perf_counter()
        self._stack.pop().self_s += now - self._last
        self._last = now

    def start(self) -> None:
        self.active = True
        self._last = perf_counter()

    def stop(self) -> None:
        self._stack[-1].self_s += perf_counter() - self._last
        self.active = False

    # -- spans ---------------------------------------------------------
    def open(self, layer: str, name: str) -> Span:
        parent = self._stack[-1]
        sid = len(self.spans) + 1
        now = self.env.now if self.env is not None else 0.0
        root = parent.layer in ("outside", "sim")
        span = Span(sid, layer, name, parent.sid, sid if root else parent.req, now)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        if self.env is not None:
            span.t1 = self.env.now

    def proxy(self, span: Span, gen):
        """Drive ``gen`` on the caller's behalf, timing each resume."""
        value = None
        error = None
        while True:
            self.enter(span)
            try:
                if error is None:
                    out = gen.send(value)
                else:
                    exc, error = error, None
                    out = gen.throw(exc)
            except StopIteration as stop:
                self.leave()
                self.close(span)
                return stop.value
            except BaseException:
                self.leave()
                self.close(span)
                raise
            self.leave()
            # Hold no reference to the yielded event while suspended:
            # the kernel recycles timeouts nobody else holds.
            box = [out]
            del out
            try:
                value = yield box.pop()
            except GeneratorExit:
                self.enter(span)
                try:
                    gen.close()
                finally:
                    self.leave()
                    self.close(span)
                raise
            except BaseException as exc:  # re-raised inside ``gen``
                error = exc


class _Recorder:
    """The ``spans()`` view of a tracer that ``repro.obs.export`` reads."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def spans(self) -> List[ObsSpan]:
        out = []
        for s in self.tracer.spans:
            span = ObsSpan(s.name, s.layer, s.t0)
            span.end = s.t1
            span.layer = s.layer
            span.tags = {"span": s.sid, "parent": s.parent, "request": s.req,
                         "self_us": round(s.self_s * 1e6, 3)}
            out.append(span)
        return out


def write_chrome_trace(tracer: Tracer, path: Path) -> int:
    """Write every span with the library's Chrome trace exporter: one
    track per layer, timestamps in simulated microseconds."""
    path.parent.mkdir(parents=True, exist_ok=True)
    write_events(_Recorder(tracer), path)
    return len(tracer.spans)


def _chunk_read_key(args) -> Optional[tuple]:
    # DieselServer._handle(self, "get_chunk", dataset, encoded_cid)
    return tuple(args[2:4]) if args[1] == "get_chunk" else None


#: Span label -> function of the call's arguments naming the object the
#: call works on, for counting concurrent duplicate work.
_KEYS: Dict[str, Callable] = {"DieselServer._handle": _chunk_read_key}


def _wrap(tracer: Tracer, layer: str, name: str, fn: Callable,
          key: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span = tracer.open(layer, name)
        if key is not None:
            span.key = key(args)
        tracer.enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave()
        if type(result) is GeneratorType:
            wrapped = tracer.proxy(span, result)
            wrapped.__name__ = result.__name__
            return wrapped
        tracer.close(span)
        return result

    return traced


def _wrap_run(tracer: Tracer, fn: Callable) -> Callable:
    """``Environment.run``: the root span whose self time is the kernel's."""

    @functools.wraps(fn)
    def run(env, *args, **kwargs):
        if not tracer.active:
            return fn(env, *args, **kwargs)
        tracer.env = env
        span = tracer.open("sim", "Environment.run")
        tracer.enter(span)
        try:
            return fn(env, *args, **kwargs)
        finally:
            tracer.leave()
            tracer.close(span)

    return run


class Installed:
    """The wrappers currently in place, and how to take them out."""

    def __init__(self) -> None:
        self.saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner, attr: str, new) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)

    def all_restored(self) -> bool:
        """True when every wrapped attribute is the original object again."""
        return all(owner.__dict__[attr] is original
                   for owner, attr, original in self.saved)


def _targets():
    """Yield (layer, owner, attribute name, raw attribute) for every entry."""
    for layer, entries in LAYERS.items():
        for module_name, class_name, names in entries:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            if names is None:
                names = [n for n in vars(owner)
                         if not n.startswith("_")]
                names += list(_PRIVATE_ENTRY.get(class_name, ()))
            for name in names:
                raw = owner.__dict__[name]
                if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                    yield layer, owner, name, raw


def install(tracer: Tracer) -> Installed:
    """Wrap every entry point in :data:`LAYERS` and ``Environment.run``."""
    from repro.sim.engine import Environment

    installed = Installed()
    try:
        for layer, owner, attr, raw in _targets():
            label = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            key = _KEYS.get(label)
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(_wrap(tracer, layer, label, raw.__func__, key))
            else:
                new = _wrap(tracer, layer, label, raw, key)
            installed.replace(owner, attr, new)
        installed.replace(Environment, "run",
                          _wrap_run(tracer, Environment.__dict__["run"]))
    except BaseException:
        installed.restore()
        raise
    return installed


def entry_points() -> List[Tuple[str, Any, str, Any]]:
    """Every (layer, owner, attribute, current object) :func:`install` wraps."""
    from repro.sim.engine import Environment

    out = [(layer, owner, attr, owner.__dict__[attr])
           for layer, owner, attr, _ in _targets()]
    out.append(("sim", Environment, "run", Environment.__dict__["run"]))
    return out
