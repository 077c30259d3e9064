#!/usr/bin/env python3
"""Fail when regenerated experiment rows differ from the committed BENCH files.

Re-runs each experiment through ``python -m repro.bench.runner <id>
--json <tmp>`` and compares the ``rows`` of every fresh
``BENCH_<id>.json`` with the committed file at the repo root, value by
value.  Only rows are compared: ``wall_seconds`` is host time.

Usage (from the repo root)::

    python scripts/check_bench_rows.py            # the default set
    python scripts/check_bench_rows.py faults     # chosen experiments

The default set is the experiments whose rows are fully determined by
the simulation, so they regenerate identically on every run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT = (
    "capacity", "elastic", "fanout", "faults", "latency", "locality", "sharing",
)


def row_diffs(committed: list, fresh: list) -> list[str]:
    """Human-readable differences between two row lists."""
    out = []
    if len(committed) != len(fresh):
        out.append(f"{len(committed)} rows committed, {len(fresh)} regenerated")
    for i, (old, new) in enumerate(zip(committed, fresh)):
        for key in sorted(set(old) | set(new)):
            a, b = old.get(key, "<missing>"), new.get(key, "<missing>")
            if a != b:
                out.append(f"row {i} {key}: {a!r} -> {b!r}")
    return out


def main(argv: list[str]) -> int:
    experiments = argv or list(DEFAULT)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(
            [sys.executable, "-m", "repro.bench.runner", *experiments,
             "--json", tmp],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        for exp in experiments:
            name = f"BENCH_{exp}.json"
            committed = json.loads((ROOT / name).read_text())["rows"]
            fresh = json.loads((Path(tmp) / name).read_text())["rows"]
            diffs = row_diffs(committed, fresh)
            print(f"{name}: {'OK' if not diffs else 'DIFFERS'}")
            for line in diffs:
                print(f"  {line}")
            failed |= bool(diffs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
