"""Tests for the benchmark's tracing wrappers.

Run from the repository root with ``python -m pytest perfbench``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import tracing  # noqa: E402
from repro.sim.engine import Environment  # noqa: E402


def test_restore_puts_every_original_back():
    before = tracing.entry_points()
    installed = tracing.install(tracing.Tracer())
    try:
        during = tracing.entry_points()
        assert all(b[3] is not d[3] for b, d in zip(before, during))
    finally:
        installed.restore()
    after = tracing.entry_points()
    assert [e[3] for e in after] == [e[3] for e in before]
    assert all(a[3] is b[3] for a, b in zip(after, before))
    assert installed.all_restored()


def _worker(env, log):
    try:
        got = yield env.timeout(1.0, value="tick")
        log.append((env.now, got))
        yield env.timeout(1.0)
    except ValueError as exc:
        log.append(("caught", str(exc)))
    return "done"


def test_proxy_keeps_values_exceptions_and_returns():
    env = Environment()
    tracer = tracing.Tracer()
    tracer.env = env
    tracer.start()
    span = tracer.open("test", "worker")
    log = []
    proc = env.process(tracer.proxy(span, _worker(env, log)))
    assert env.run(until=proc) == "done"
    assert log == [(1.0, "tick")]
    assert (span.t0, span.t1) == (0.0, 2.0)

    gen = tracer.proxy(tracer.open("test", "worker"), _worker(env, log))
    next(gen)
    with pytest.raises(StopIteration) as stop:
        gen.throw(ValueError("boom"))
    assert stop.value.value == "done"
    assert log[-1] == ("caught", "boom")
    tracer.stop()


def test_self_time_excludes_nested_spans():
    tracer = tracing.Tracer()
    tracer.start()
    outer = tracer.open("a", "outer")
    tracer.enter(outer)
    inner = tracer.open("b", "inner")
    assert inner.parent == outer.sid and inner.req == outer.req
    tracer.enter(inner)
    sum(range(200_000))
    tracer.leave()
    tracer.leave()
    tracer.stop()
    assert inner.self_s > 0 and outer.self_s < inner.self_s
