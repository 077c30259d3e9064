"""Tests for the DES event tracer."""

import pytest

from repro.sim import Environment, run_sync
from repro.sim.trace import Tracer


def workload(env, n=5):
    def ticker(env):
        for _ in range(n):
            yield env.timeout(1.0)
        return "done"

    env.process(ticker(env), name="ticker")
    env.run()  # drain everything, including the process-completion event


class TestTracer:
    def test_disabled_by_default(self):
        env = Environment()
        workload(env)
        assert env._tracer is None

    def test_records_events(self):
        env = Environment()
        tracer = Tracer.attach(env)
        workload(env, n=3)
        assert tracer.total_events > 0
        kinds = tracer.counts_by_kind()
        assert kinds.get("Timeout", 0) == 3
        assert kinds.get("Process", 0) == 1  # completion event

    def test_records_are_time_ordered(self):
        env = Environment()
        tracer = Tracer.attach(env)
        workload(env)
        times = [r.time for r in tracer.records()]
        assert times == sorted(times)

    def test_between_window(self):
        env = Environment()
        tracer = Tracer.attach(env)
        workload(env, n=5)
        window = list(tracer.between(1.5, 3.5))
        assert len(window) == 2  # timeouts at t=2 and t=3
        assert all(1.5 <= r.time < 3.5 for r in window)

    def test_capacity_ring(self):
        env = Environment()
        tracer = Tracer.attach(env, capacity=3)
        workload(env, n=10)
        assert len(tracer) == 3
        assert tracer.dropped > 0
        assert tracer.total_events == tracer.dropped + 3

    def test_busiest_and_summary(self):
        env = Environment()
        tracer = Tracer.attach(env)
        workload(env, n=4)
        top = tracer.busiest(2)
        assert top and top[0][1] >= 1
        text = tracer.summary()
        assert "traced" in text and "Timeout" in text

    def test_detach_stops_recording(self):
        env = Environment()
        tracer = Tracer.attach(env)
        workload(env, n=1)
        before = tracer.total_events
        Tracer.detach(env)
        workload(env, n=5)
        assert tracer.total_events == before

    def test_attach_inside_a_running_process(self):
        """Regression: ``run`` once bound the untraced step before the
        loop, so a tracer attached mid-run recorded nothing."""
        env = Environment()
        tracers = []

        def ticker(env):
            tracers.append(Tracer.attach(env))
            for _ in range(5):
                yield env.timeout(1.0)

        env.process(ticker(env))
        env.run()
        # Five timeouts plus the process-completion event.
        assert tracers[0].total_events == 6
        assert tracers[0].counts_by_kind() == {"Timeout": 5, "Process": 1}

    def test_detach_inside_a_running_process(self):
        """Regression: ``run`` once bound the traced step before the
        loop, so a mid-run detach crashed the next step."""
        env = Environment()
        tracer = Tracer.attach(env)

        def ticker(env):
            yield env.timeout(1.0)
            Tracer.detach(env)
            for _ in range(5):
                yield env.timeout(1.0)

        env.process(ticker(env))
        env.run()
        assert env.now == 6.0
        # The process start and the first timeout, nothing after.
        assert tracer.total_events == 2

    def test_process_names_visible(self):
        env = Environment()
        tracer = Tracer.attach(env)

        def named(env):
            yield env.timeout(1)

        env.process(named(env), name="my-special-process")
        env.run()
        names = [r.name for r in tracer.records() if r.kind == "Process"]
        assert "my-special-process" in names

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)
