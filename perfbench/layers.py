"""Per-layer metrics: counts from each layer's public stats, and host/sim
times from the traced run's spans.

:func:`counts` reads only public ``stats`` objects, so it works on traced
and untraced runs alike; the benchmark requires its values to be
identical in both.  :func:`traced` aggregates the spans of a traced run.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Iterable, List

import numpy as np

from workloads import store_devices


def _rpc_endpoints(world: dict) -> list:
    tb = world["tb"]
    eps = []
    for server in tb.diesel_servers:
        eps += [server.endpoint, server.meta_endpoint]
    eps += [inst.endpoint for inst in tb.kv.instances]
    for cache in world["caches"]:
        eps += [m.endpoint for m in cache.masters.values()]
    return eps


def _nvme_devices(world: dict) -> list:
    registry = world["registry"]
    if registry is None:
        return []
    return [c.store.device for c in registry.node_caches
            if hasattr(c.store, "device")]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counts(world: dict) -> Dict[str, float]:
    """Every per-layer value that public stats give, by metric name."""
    tb = world["tb"]
    engine = tb.env.engine_stats()
    store_devs = store_devices(tb)
    nvme = _nvme_devices(world)
    devices = store_devs + nvme
    tiered_store = hasattr(tb.store, "hdd")
    rpc = [ep.stats for ep in _rpc_endpoints(world)]
    client_stats = [c.stats for c in world["clients"]]

    def csum(field: str) -> int:
        return sum(getattr(s, field) for s in client_stats)

    server = defaultdict(int)
    for s in tb.diesel_servers:
        for k, v in s.stats.to_dict().items():
            server[k] += v
    cache = defaultdict(int)
    for c in world["caches"]:
        for k, v in c.stats.to_dict().items():
            cache[k] += v
    registry = world["registry"]
    shared = registry.stats.to_dict() if registry is not None else defaultdict(int)
    tiers = (registry.store_stats.to_dict() if registry is not None
             else defaultdict(int))

    out = {
        "sim.events": engine.sim_events,
        "sim.peak_pending": engine.peak_occupancy,
        "cluster.fabric_bytes": tb.fabric.stats.bytes_moved,
        "cluster.fabric_transfers": tb.fabric.stats.transfers,
        "cluster.ssd_busy_s": tb.ssd_pool.stats.busy_time,
        "cluster.hdd_busy_s": tb.store.hdd.stats.busy_time if tiered_store else 0.0,
        "cluster.nvme_busy_s": sum(d.stats.busy_time for d in nvme),
        "cluster.device_read_bytes": sum(d.stats.read_bytes for d in devices),
        "cluster.device_write_bytes": sum(d.stats.write_bytes for d in devices),
        "rpc.calls": sum(s.calls for s in rpc),
        "rpc.batches": sum(s.batches for s in rpc),
        "rpc.busy_s": sum(s.busy_time for s in rpc),
        "rpc.errors": sum(s.errors for s in rpc),
        "objectstore.bytes_read": sum(d.stats.read_bytes for d in store_devs),
        "objectstore.bytes_written": sum(d.stats.write_bytes for d in store_devs),
        "objectstore.ssd_hit_ratio":
            tb.store.stats.hit_ratio if tiered_store else 0.0,
        "core.server.chunk_reads": server["chunk_reads"],
        "core.server.file_reads": server["file_reads"],
        "core.server.batch_reads": server["batch_reads"],
        "core.server.ingests": server["ingests"],
        "core.snapshot.delta_ops": csum("delta_ops_applied"),
        "core.snapshot.delta_bytes": csum("delta_bytes"),
        "core.snapshot.full_reloads": csum("full_reloads"),
        "core.client.gets": csum("gets"),
        "core.client.batched_gets": csum("batched_gets"),
        "core.client.server_reads": csum("server_reads"),
        "core.client.local_hits": csum("local_hits"),
        "core.prefetch.issued": csum("prefetch_issued"),
        "core.prefetch.hits": csum("prefetch_hits"),
        "core.prefetch.misses": csum("prefetch_misses"),
        "core.prefetch.wasted": csum("prefetch_wasted"),
        "core.prefetch.useful_ratio":
            _ratio(csum("prefetch_hits"), csum("prefetch_issued")),
        "core.chunk_builder.chunks_sealed": csum("chunks_sent"),
        "core.chunk_builder.ingest_inflight_hwm":
            max(s.ingest_inflight_hwm for s in client_stats),
        "core.dist_cache.local_hits": cache["local_hits"],
        "core.dist_cache.remote_hits": cache["remote_hits"],
        "core.dist_cache.disk_hits": cache["disk_hits"],
        "core.dist_cache.degraded_reads": cache["degraded_reads"],
        "core.dist_cache.coalesced_pulls": cache["coalesced_pulls"],
        "core.dist_cache.local_ratio": _ratio(
            cache["local_hits"], cache["local_hits"] + cache["remote_hits"]),
        "core.shared_cache.cold_admissions": shared["cold_admissions"],
        "core.shared_cache.warm_admissions": shared["warm_admissions"],
        "core.shared_cache.coalesced_pulls": shared["coalesced_pulls"],
        "core.shared_cache.cross_task_reads": shared["cross_task_reads"],
        "core.shared_cache.evictions": shared["evictions"],
        "core.chunk_store.ram_hits": tiers["ram_hits"],
        "core.chunk_store.disk_hits": tiers["disk_hits"],
        "core.chunk_store.promotions": tiers["promotions"],
        "core.chunk_store.demotions": tiers["demotions"],
        "core.chunk_store.disk_admits": tiers["disk_admits"],
        "core.chunk_store.ram_hit_ratio": _ratio(
            tiers["ram_hits"], tiers["ram_hits"] + tiers["disk_hits"]),
    }
    return out


def _pct_ms(durations: List[float], q: float) -> float:
    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


def _concurrent_duplicates(spans: Iterable) -> int:
    """Calls that started while another call on the same key was open."""
    by_key = defaultdict(list)
    for s in spans:
        if s.key is not None:
            by_key[s.key].append((s.t0, s.t1))
    dups = 0
    for intervals in by_key.values():
        intervals.sort()
        open_until = -1.0
        for t0, t1 in intervals:
            if t0 < open_until:
                dups += 1
            open_until = max(open_until, t1)
    return dups


#: Layers whose host self time is reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = (
    "rpc", "kvstore", "objectstore", "core.server", "core.snapshot",
    "core.client", "core.fuse", "core.prefetch", "core.chunk_builder",
    "core.dist_cache", "core.shared_cache", "core.chunk_store", "dlt",
)


def traced(tracer, run_s: float, base: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics that need the spans of the traced run.

    ``base`` holds the stats-derived values of the same run (for the
    RPC service time the wait is measured against).
    """
    spans = tracer.spans
    self_s = defaultdict(float)
    # Keyed by (layer, "Class.method"): two layers may share a class name.
    calls = defaultdict(int)
    call_self = defaultdict(float)
    durations = defaultdict(list)
    for s in spans:
        self_s[s.layer] += s.self_s
        calls[s.layer, s.name] += 1
        call_self[s.layer, s.name] += s.self_s
        durations[s.layer, s.name].append(s.t1 - s.t0)

    def n(layer: str, *names: str) -> int:
        return sum(calls[layer, name] for name in names)

    def dur(layer: str, *names: str) -> List[float]:
        return [d for name in names for d in durations[layer, name]]

    kv = dur("kvstore", "ShardedKV.get", "ShardedKV.get_or_none",
             "ShardedKV.put", "ShardedKV.delete", "ShardedKV.pscan",
             "ShardedKV.pscan_page")
    rpc_wall = sum(dur("rpc", "RpcEndpoint.call", "RpcEndpoint.call_batch"))
    client_gets = dur("core.client", "DieselClient.get", "DieselClient.get_many")
    cache_reads = dur("core.dist_cache", "TaskCache.read_file")
    out = {
        "sim.kernel_s": self_s["sim"],
        "rpc.wait_s": max(0.0, rpc_wall - base["rpc.busy_s"]),
        "kvstore.gets": n("kvstore", "ShardedKV.get", "ShardedKV.get_or_none",
                          "ShardedKV.local_get", "ShardedKV.local_get_or_none"),
        "kvstore.puts": n("kvstore", "ShardedKV.put", "ShardedKV.local_put"),
        "kvstore.pscan_pages": n("kvstore", "ShardedKV.pscan",
                                 "ShardedKV.pscan_page",
                                 "ShardedKV.local_pscan_page"),
        "kvstore.call_ms": float(np.mean(kv)) * 1e3 if kv else 0.0,
        "objectstore.gets": n("objectstore", "ObjectStore.get",
                              "ObjectStore.get_range", "TieredStore.get",
                              "TieredStore.get_range"),
        "objectstore.puts": n("objectstore", "ObjectStore.put",
                              "ObjectStore.put_journaled", "TieredStore.put",
                              "TieredStore.put_journaled"),
        "core.server.dup_chunk_reads": _concurrent_duplicates(
            s for s in spans if s.name == "DieselServer._handle"),
        "core.snapshot.lookups": n("core.snapshot", "SnapshotIndex.lookup"),
        "core.snapshot.lookup_self_s":
            call_self["core.snapshot", "SnapshotIndex.lookup"],
        "core.snapshot.apply_self_s":
            call_self["core.snapshot", "SnapshotIndex.apply_delta"],
        "core.client.get_p50_ms": _pct_ms(client_gets, 50),
        "core.client.get_p99_ms": _pct_ms(client_gets, 99),
        "core.dist_cache.read_p50_ms": _pct_ms(cache_reads, 50),
        "core.dist_cache.read_p99_ms": _pct_ms(cache_reads, 99),
        "bench.verify_self_s": self_s["bench"],
        "trace.spans": len(spans),
        "trace.run_s": run_s,
        "trace.attributed_frac": sum(self_s.values()) / run_s,
    }
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    return out


def layer_span_counts(tracer) -> Dict[str, int]:
    return Counter(s.layer for s in tracer.spans)


def bypass_violations(workload: str, c: Dict[str, float],
                      chunks: int, spans: Dict[str, int] | None) -> List[str]:
    """Checks that each workload still bypasses the layers it should."""
    bad = []

    def zero(prefixes):
        for k, v in c.items():
            if k.startswith(prefixes) and v:
                bad.append(f"{k} = {v}, expected 0")
        if spans is not None:
            for layer, n in spans.items():
                if layer.startswith(prefixes) and n:
                    bad.append(f"{n} calls into {layer}, expected none")

    if workload == "train-fuse":
        zero(("core.dist_cache", "core.shared_cache", "core.chunk_store"))
    elif workload == "sweep-tiered":
        if c["core.prefetch.issued"]:
            bad.append(f"core.prefetch.issued = {c['core.prefetch.issued']}")
        if c["core.server.chunk_reads"] > chunks:
            bad.append(f"{c['core.server.chunk_reads']} backend chunk reads "
                       f"for {chunks} chunks")
    elif workload == "ingest-refresh":
        zero(("core.prefetch", "core.dist_cache", "core.shared_cache",
              "core.chunk_store"))
        if c["core.snapshot.full_reloads"]:
            bad.append("core.snapshot.full_reloads = "
                       f"{c['core.snapshot.full_reloads']}, expected 0")
    return bad
