#!/usr/bin/env python
"""Profile the DES kernel's hot path and print the top-N frames.

Runs a synthetic epoch (pre-scheduled arrivals + ticker processes +
RPC-style machinery via the scale experiment's workload) under cProfile
and prints the hottest frames by cumulative and internal time, so a
kernel regression can be diagnosed in one command::

    PYTHONPATH=src python scripts/profile_engine.py
    PYTHONPATH=src python scripts/profile_engine.py --requests 50000 --top 30

The default workload is the smoke-scale epoch (CI-sized); crank
``--requests`` for a longer profile.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cProfile the simulation engine's hot loop"
    )
    parser.add_argument("--nodes", type=int, default=50,
                        help="client nodes in the epoch (default: 50)")
    parser.add_argument("--requests", type=int, default=20_000,
                        help="requests in the epoch (default: 20000)")
    parser.add_argument("--batch", type=int, default=1,
                        help="admission batch size; 1 = per-request "
                             "(default: 1 — the expensive path is the "
                             "interesting one to profile)")
    parser.add_argument("--top", type=int, default=20,
                        help="frames to print per ranking (default: 20)")
    args = parser.parse_args(argv)

    from repro.bench.experiments import (
        _scale_handler,
        _ScaleCounters,
    )
    from repro.calibration import DEFAULT
    from repro.cluster.network import NetworkFabric
    from repro.cluster.node import Node
    from repro.rpc.endpoint import RpcEndpoint
    from repro.sim import Environment

    env = Environment()
    fabric = NetworkFabric(env, DEFAULT.network)
    server = fabric.add_node(Node(env, "srv0", nic_channels=8))
    clients = [fabric.add_node(Node(env, f"cl{i}"))
               for i in range(args.nodes)]
    ctr = _ScaleCounters()
    ep = RpcEndpoint(env, fabric, server, "exec0",
                     handler=_scale_handler(ctr),
                     service_s=2e-6, workers=64)
    epoch_s = 1.0
    if args.batch <= 1:
        gap = epoch_s / args.requests

        def arrive(evt):
            i = evt.value
            env.process(ep.call(clients[i % args.nodes], "read_one", i))

        for i in range(args.requests):
            env.timeout(i * gap, value=i).callbacks.append(arrive)
    else:
        n_batches = -(-args.requests // args.batch)
        gap = epoch_s / n_batches

        def arrive(evt):
            b = evt.value
            lo, hi = b * args.batch, min((b + 1) * args.batch, args.requests)
            env.process(ep.call_batch(
                clients[lo % args.nodes], [("read_range", lo, hi)]
            ))

        for b in range(n_batches):
            env.timeout(b * gap, value=b).callbacks.append(arrive)

    profiler = cProfile.Profile()
    profiler.enable()
    env.run()
    profiler.disable()

    es = env.engine_stats()
    print(f"sim_events={es.sim_events:,}  "
          f"wall={es.run_wall_s:.3f}s  "
          f"events/sec={es.events_per_sec:,.0f}  "
          f"peak_occupancy={es.peak_occupancy:,}  "
          f"reads={ctr.reads:,} hits={ctr.hits:,}")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    for ranking in ("cumulative", "tottime"):
        print(f"\n=== top {args.top} frames by {ranking} ===")
        stats.sort_stats(ranking).print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
