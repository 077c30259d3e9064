"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train-fuse --seed 1 --seconds 10 --trace 0

It builds the seeded inputs, runs the named workload through the
library's public API in simulated time, checks every payload it reads,
and prints as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics,
from one extra run with wrappers on every layer's entry points.

The workload runs repeatedly, each time setting up and running one of
:data:`INPUT_SETS` input sets seeded from ``--seed``, until ``--seconds``
of measured job time has passed and at least :data:`MIN_REPS` times.
Simulated metrics pool the input sets; host times are medians over the
repetitions of input set 0 (``setup_s`` over :data:`SETUP_REPS` set-ups,
scaled by a reference job timed before each).  A repeated input set, and
the traced run, must reproduce every simulated result and per-layer count
exactly; any difference, any wrong payload or any failed operation makes
the run fail (exit code 1).
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Input sets per run.  Repetition ``i`` runs input set ``i % INPUT_SETS``
#: (seeded from ``--seed``); the simulated metrics pool the first run of
#: each set, which averages out the variation one input set shows.
INPUT_SETS = 3
#: Fewest repetitions per run: every input set once, then the first set
#: again to check that it repeats exactly.
MIN_REPS = INPUT_SETS + 1
#: Bound on repetitions, so short jobs cannot make a run take forever.
MAX_REPS = 12
#: How far the traced run's per-layer self times plus kernel time may
#: fall short of (or exceed) its measured host time, as a share of it.
ATTRIBUTION_TOLERANCE = 0.02
#: Set-ups of input set 0 that ``setup_s`` is the median of.  When the
#: measured loop ran input set 0 fewer times, set-up-only repetitions
#: make up the count.
SETUP_REPS = 5
#: ``setup_s`` is set-up host time at the host speed where
#: :func:`_reference_s` takes REFERENCE_S seconds (about its time on a
#: 2-core 2.0 GHz Xeon virtual machine with Python 3.11), and the number
#: of objects that job builds.
REFERENCE_S = 0.2
REFERENCE_ITEMS = 60_000


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _fingerprint(world, outcome, layers) -> dict:
    """Everything that must repeat exactly for one input set."""
    return {"outcome": vars(outcome), "counts": layers.counts(world)}


class _Entry:
    def __init__(self, path: str, size: int) -> None:
        self.path = path
        self.meta = {"path": path, "size": size}


def _reference_s() -> float:
    """Host seconds of a fixed pure-Python job that runs no library code.

    Like set-up, it builds many small objects, strings and dicts, on a
    heap larger than the CPU caches, and visits them in shuffled order.
    Timed before each set-up, it measures how fast the shared host runs
    such code at that moment.  The garbage collector is off, so its work
    does not depend on what else is alive.
    """
    rng = random.Random(0)
    gc.disable()
    try:
        t0 = perf_counter()
        entries = [_Entry(f"/ds/train/c{i % 1000}/f{i:07d}.jpg", i)
                   for i in range(REFERENCE_ITEMS)]
        index = {e.path: e for e in entries}
        keys = list(index)
        rng.shuffle(keys)
        total = 0
        for key in keys:
            e = index[key]
            total += e.meta["size"] + len(e.path.rsplit("/", 1)[0])
        del entries, index, keys
        return perf_counter() - t0
    finally:
        gc.enable()


def _setup(workload, seed: int, refs=None):
    """Set up one input set.  Returns the world and its host seconds.
    With ``refs``, first times :func:`_reference_s` into it."""
    gc.collect()
    if refs is not None:
        refs.append(_reference_s())
    t0 = perf_counter()
    world = workload.setup(seed)
    # Set-up's garbage is set-up's cost, not the job's.
    gc.collect()
    return world, perf_counter() - t0


def _run(workload, world, tracer=None):
    """Run the measured job.  Returns the outcome and its host seconds."""
    if tracer is not None:
        tracer.env = world["tb"].env
        tracer.start()
    t0 = perf_counter()
    outcome = workload.run(world)
    run_s = perf_counter() - t0
    if tracer is not None:
        tracer.stop()
    return outcome, run_s


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import layers
    import tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    problems = []
    seeds = [args.seed * INPUT_SETS + i for i in range(INPUT_SETS)]
    runs = []
    setups0, runs0 = [], []  # set-up and run host seconds of input set 0
    refs = []  # reference job host seconds, one before each set-up of set 0
    attempted = failed = 0
    first = {}  # input set -> (outcome, fingerprint, chunks)
    while len(runs) < MIN_REPS or (sum(runs) < args.seconds and len(runs) < MAX_REPS):
        i = len(runs) % INPUT_SETS
        world, setup_s = _setup(workload, seeds[i], refs if i == 0 else None)
        outcome, run_s = _run(workload, world)
        runs.append(run_s)
        if i == 0:
            setups0.append(setup_s)
            runs0.append(run_s)
        attempted += outcome.attempted
        failed += outcome.failed
        problems += world["checker"].errors
        fp = _fingerprint(world, outcome, layers)
        if i not in first:
            first[i] = (outcome, fp, world["chunks"])
        elif fp != first[i][1]:
            problems.append(f"input set {seeds[i]} gave different results "
                            "when run again")
        del world, outcome
    while args.trace == 0 and len(setups0) < SETUP_REPS:
        world, setup_s = _setup(workload, seeds[0], refs)
        setups0.append(setup_s)
        del world

    outcomes = [first[i][0] for i in range(INPUT_SETS)]
    for i in range(INPUT_SETS):
        problems += layers.bypass_violations(
            args.workload, first[i][1]["counts"], first[i][2], None)
    # Host times of input set 0 only, so the mix of input sets (which
    # depends on host speed) does not move them.
    run_s = statistics.median(runs0)
    if args.trace == 0:
        metrics = workloads.pooled(outcomes)
        # Scaled to a nominal host speed: on a shared host the speed of
        # memory-heavy Python drifts by tens of percent over minutes, and
        # set-up and the reference job drift together.
        wall, ref = statistics.median(setups0), statistics.median(refs)
        metrics["setup_s"] = wall * REFERENCE_S / ref
        print(f"set-up {wall:.4f} s, reference job {ref:.4f} s "
              f"(medians of {len(setups0)})", file=sys.stderr)
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        names = spec["end_to_end"]
    else:
        # One more run of input set 0 with every layer wrapped.
        _, fp, chunks = first[0]
        tracer = tracing.Tracer()
        installed = tracing.install(tracer)
        try:
            tworld = _setup(workload, seeds[0])[0]
            toutcome, traced_run_s = _run(workload, tworld, tracer)
        finally:
            installed.restore()
        if not installed.all_restored():
            problems.append("tracing wrappers were not removed")
        attempted += toutcome.attempted
        failed += toutcome.failed
        problems += tworld["checker"].errors
        if _fingerprint(tworld, toutcome, layers) != fp:
            problems.append("traced run differs from untraced runs")
        c = fp["counts"]
        problems += layers.bypass_violations(
            args.workload, c, chunks, layers.layer_span_counts(tracer))
        metrics = dict(c)
        metrics.update(layers.traced(tracer, traced_run_s, c))
        if abs(metrics["trace.attributed_frac"] - 1) > ATTRIBUTION_TOLERANCE:
            problems.append(
                "layer self times + kernel time = "
                f"{metrics['trace.attributed_frac']:.3f} x traced run_s")
        metrics["sim.events_per_s"] = c["sim.events"] / run_s
        metrics["trace.overhead"] = traced_run_s / run_s
        metrics["host.run_s"] = run_s
        metrics.update(workloads.pooled_detail(outcomes))
        out = HERE / "out" / f"{args.workload}-seed{args.seed}.trace.json"
        n = tracing.write_chrome_trace(tracer, out)
        print(f"wrote {n} spans to {out.relative_to(ROOT)}", file=sys.stderr)
        names = spec["per_layer"]

    wanted = {m["name"]: m["unit"] for m in names}
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1
    for why in problems:
        print(f"FAIL: {why}", file=sys.stderr)
    correct = not problems and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in wanted.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
