"""Node-level chunk tier: the one path every cache chunk is admitted by.

DIESEL's task-grained cache (§4.2) holds each task's chunks on the
task's own nodes.  Here that residency always lives in the node's
:class:`SharedChunkCache` — Hoard-style, one cache service per node —
and each task's :class:`~repro.core.dist_cache.CacheMaster` on that
node admits chunks *through* it.  A task built without a shared
registry gets a registry of its own (``owner`` set to its task key):
the same code path with exactly one task.

* chunks are **reference-counted** per task — the first admission
  fetches the chunk, every later task's admission of it is a warm
  ref-bump (no fetch, no extra memory);
* **single-flight is cross-task**: admissions racing the same cold
  chunk coalesce onto one fetch; a waiter from the fetching task adopts
  its outcome;
* a cold admission with a **donor** (a peer master of the same task
  that still holds the chunk: scale-up warm, scale-down drain) fetches
  from the donor before the object store;
* a task releasing its refs (deregistration, scale-down departure)
  leaves refcount-0 chunks resident as a **warm pool** a later task
  re-warms from, until eviction reclaims them for space — eviction
  never touches a referenced chunk.  A tier its task owns frees them
  instead, because no other task can reuse them;
* **per-tenant byte quotas** bound how many resident bytes one tenant
  may pin per node (0 = unlimited; admission at exactly the quota is
  allowed, one byte past it is rejected);
* two **QoS classes**: an ``interactive`` admission may evict any
  refcount-0 chunk to make room, a ``batch`` admission may only reclaim
  refcount-0 chunks last pinned by batch tasks — it cannot steal the
  warm pool an interactive task left behind;
* chunk *residency* is delegated to a :mod:`~repro.core.chunk_store`
  backend: the ``ram`` store keeps chunks in node memory, while
  ``tiered`` adds a simulated node-local NVMe tier — under memory
  pressure, refcount-0 chunks are **demoted** to disk (LRU-first)
  instead of dropped, disk-resident chunks are promoted back on access,
  and the disk tier *survives a node crash* so recovery re-admits by
  reference instead of re-fetching from the backend.

:class:`SharedCacheRegistry` is the deployment-wide handle: it lazily
creates the per-node caches (each with its own store built from the
registry's spec), owns the tenant quota table, hands out task keys,
and aggregates stats for benchmarks and ``dlcmd tenants`` / ``dlcmd
tiers``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.core.chunk import Chunk
from repro.core.chunk_store import (
    ChunkStoreStats,
    DEFAULT_DISK_BANDWIDTH_BPS,
    DEFAULT_DISK_LATENCY_S,
    make_spec,
    make_store,
)
from repro.errors import CachePeerDownError, NodeDownError
from repro.sim.engine import Environment, Event
from repro.sim.resources import SingleFlight
from repro.util.counters import Counters

#: The two admission-priority classes (paper-less extension; see
#: DESIGN §11).  ``interactive`` outranks ``batch`` at eviction time.
QOS_CLASSES = ("interactive", "batch")


@dataclass(slots=True)
class SharedCacheStats(Counters):
    """Shared-tier counters (the bench-reporting seam).

    Cumulative counters move as the cache runs; the gauge fields
    (``bytes_resident`` / ``chunks_resident`` / ``refs``) are refreshed
    on every :attr:`SharedChunkCache.stats` access.
    """

    #: Admissions that fetched the chunk from the object store.
    cold_admissions: int = 0
    #: Admissions satisfied by ref-bumping an already-resident chunk
    #: (another task — or a prior task — paid the fetch).
    warm_admissions: int = 0
    #: Admissions that joined another task's in-flight backend fetch
    #: (the cross-task single-flight map).
    coalesced_pulls: int = 0
    #: File reads served from a resident chunk held only by *other*
    #: tasks (the shared-tier read hit in the Fig 4 chain).
    cross_task_reads: int = 0
    #: Refcount-0 chunks reclaimed to make room for a new admission.
    evictions: int = 0
    #: Admissions refused because they would push the tenant past its
    #: byte quota on this node.
    quota_rejections: int = 0
    #: Batch admissions refused because the only reclaimable chunks
    #: were the interactive warm pool (QoS protection).
    qos_denied: int = 0
    #: Admissions refused because the node's memory could not cover the
    #: chunk even after every evictable chunk was reclaimed.
    skipped_no_memory: int = 0
    #: Task refs dropped (deregistration / recovery re-homing).
    released_refs: int = 0
    #: Gauges (refreshed on stats access).
    bytes_resident: int = 0
    chunks_resident: int = 0
    refs: int = 0


@dataclass(slots=True)
class _Entry:
    """One resident chunk's cross-task reference bookkeeping.

    The payload itself lives in the node cache's chunk *store* (RAM or
    tiered, see :mod:`repro.core.chunk_store`) under the same key; this
    entry only tracks who references it."""

    nbytes: int
    #: Task keys currently holding a reference.
    tasks: set = field(default_factory=set)
    #: Tenant → number of that tenant's tasks referencing this chunk
    #: (quota is charged on the tenant's first ref, released on its
    #: last).
    tenants: Dict[str, int] = field(default_factory=dict)
    #: QoS class protecting this chunk at eviction time: the highest
    #: class that ever pinned it ("interactive" wins and sticks, so a
    #: batch task cannot reclaim an interactive task's warm pool).
    qos: str = "batch"


class SharedChunkCache:
    """The shared chunk tier on one node (all tasks, all datasets)."""

    def __init__(self, env: Environment, node, registry: "SharedCacheRegistry") -> None:
        self.env = env
        self.node = node
        self.registry = registry
        #: ``"<dataset>/<encoded cid>"`` → reference entry.  Residency
        #: (payload, tier, LRU recency) is owned by :attr:`store`.
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        #: Chunk residency backend (RAM or RAM+disk), built from the
        #: registry's store spec; its ``on_evict`` hook drops our
        #: reference entry when the store sheds a chunk for capacity.
        self.store = make_store(env, node, registry.store_spec,
                                on_evict=self._forget)
        #: Cross-task single-flight over cold fetches, keyed like
        #: ``_entries`` and led by the fetching task's key.
        self._flights = SingleFlight(env)
        #: Tenant → resident bytes the tenant references on this node.
        self._tenant_usage: Dict[str, int] = {}
        self._stats = SharedCacheStats()

    @staticmethod
    def _key(dataset: str, encoded_cid: str) -> str:
        return f"{dataset}/{encoded_cid}"

    # ------------------------------------------------------------- inspection
    @property
    def stats(self) -> SharedCacheStats:
        """Counters with the residency gauges refreshed."""
        s = self._stats
        s.chunks_resident = len(self._entries)
        s.bytes_resident = sum(e.nbytes for e in self._entries.values())
        s.refs = sum(len(e.tasks) for e in self._entries.values())
        return s

    def resident(self, dataset: str, encoded_cid: str) -> bool:
        return self._key(dataset, encoded_cid) in self._entries

    def refcount(self, dataset: str, encoded_cid: str) -> int:
        entry = self._entries.get(self._key(dataset, encoded_cid))
        return len(entry.tasks) if entry is not None else 0

    def tenant_usage(self, tenant: str) -> int:
        """Resident bytes ``tenant`` currently references on this node."""
        return self._tenant_usage.get(tenant, 0)

    def peek(self, dataset: str, encoded_cid: str) -> Optional[Chunk]:
        """RAM-resident chunk for a read, whoever admitted it (no ref
        taken, no cost charged).

        The shared-tier read hit: a task whose own master does not hold
        the chunk can still serve the file from another task's resident
        copy.  Touches LRU order; the caller counts the hit via
        :meth:`note_cross_task_read`.  Disk-resident chunks are *not*
        returned here — a free peek must not hide a disk read; use
        :meth:`read_resident` for those.
        """
        got = self.store.get(self._key(dataset, encoded_cid))
        return got[0] if got is not None else None

    def disk_resident(self, dataset: str, encoded_cid: str) -> bool:
        """Whether the chunk is resident on the disk tier only."""
        return self.store.tier_of(self._key(dataset, encoded_cid)) == "disk"

    def read_resident(
        self, dataset: str, encoded_cid: str, path: Optional[str] = None
    ) -> Generator[Event, Any, Optional[Chunk]]:
        """Cost-charging read of a resident chunk on *any* tier.

        Disk-resident chunks pay the device read (+ decompress) — the
        tier hit that makes datasets larger than memory serveable
        without a backend round-trip.  When node memory allows, the
        whole chunk is read and promoted back to RAM; otherwise a read
        of the one file ``path`` costs only that file's extent.  Pass no
        ``path`` to read the whole chunk (the drain/warm path).
        """
        got = yield from self.store.load(
            self._key(dataset, encoded_cid), path
        )
        return got[0] if got is not None else None

    def note_cross_task_read(self) -> None:
        self._stats.cross_task_reads += 1

    # -------------------------------------------------------------- admission
    def _quota_room(self, tenant: str, nbytes: int) -> bool:
        quota = self.registry.quota_of(tenant)
        if quota <= 0:
            return True
        return self._tenant_usage.get(tenant, 0) + nbytes <= quota

    def _charge_ref(self, entry: _Entry, task: str, tenant: str, qos: str) -> bool:
        """Add ``task``'s reference; False iff the tenant quota refuses."""
        if task in entry.tasks:
            return True
        first_for_tenant = tenant not in entry.tenants
        if first_for_tenant and not self._quota_room(tenant, entry.nbytes):
            self._stats.quota_rejections += 1
            return False
        entry.tasks.add(task)
        entry.tenants[tenant] = entry.tenants.get(tenant, 0) + 1
        if first_for_tenant:
            self._tenant_usage[tenant] = (
                self._tenant_usage.get(tenant, 0) + entry.nbytes
            )
        if qos == "interactive":
            entry.qos = "interactive"
        return True

    def _forget(self, key: str) -> None:
        """Drop the reference entry for a chunk the store no longer
        holds in RAM-or-disk (eviction); victims are refcount-0, so no
        tenant usage needs releasing."""
        if self._entries.pop(key, None) is None:
            return
        self._stats.evictions += 1
        rec = self.env.recorder
        if rec is not None:
            rec.count("shared_evict", "shared_tier")

    def _evictable_for(self, qos: str):
        """Predicate gating which chunks an admission may push out:
        referenced chunks never, and ``batch`` may not reclaim the
        interactive warm pool."""
        def ok(key: str) -> bool:
            entry = self._entries.get(key)
            if entry is None:
                return True
            if entry.tasks:
                return False
            return qos == "interactive" or entry.qos != "interactive"
        return ok

    def _pick_victims(self, needed: int, qos: str):
        """Refcount-0 RAM chunks to displace, LRU-first, honouring QoS:
        ``batch`` may not touch chunks the interactive class left warm.
        Returns ``(victims, freed_bytes, blocked_by_qos)``."""
        victims: List[str] = []
        blocked_by_qos = False
        freed = 0
        for key in self.store.ram_lru():
            entry = self._entries.get(key)
            if entry is None or entry.tasks:
                continue
            if qos != "interactive" and entry.qos == "interactive":
                blocked_by_qos = True
                continue
            victims.append(key)
            freed += entry.nbytes
            if freed >= needed:
                break
        return victims, freed, blocked_by_qos

    def _place(
        self, key: str, chunk: Chunk, nbytes: int, qos: str
    ) -> Generator[Event, Any, Optional[str]]:
        """Find a home for a cold admission; returns its tier or ``None``.

        Memory pressure displaces refcount-0 RAM chunks LRU-first
        (QoS-governed): the RAM store evicts them outright, the tiered
        store *demotes* them to disk and overflows the admission itself
        to disk when RAM still cannot cover it.  A refusal moves the
        ``qos_denied`` / ``skipped_no_memory`` counter.
        """
        room = self.node.memory.level
        blocked = False
        if room < nbytes:
            victims, freed, blocked = self._pick_victims(nbytes - room, qos)
            if freed >= nbytes - room:
                allowed = self._evictable_for(qos)
                for vkey in victims:
                    outcome = yield from self.store.displace(vkey, allowed)
                    if outcome == "evicted":
                        self._forget(vkey)
        tier = yield from self.store.put(
            key, chunk, nbytes, self._evictable_for(qos)
        )
        if tier is None:
            if blocked:
                self._stats.qos_denied += 1
            else:
                self._stats.skipped_no_memory += 1
        return tier

    def _warm(
        self, master, encoded_cid: str, key: str, entry: _Entry
    ) -> Optional[Chunk]:
        """Ref-bump a resident chunk for ``master``'s task."""
        if not self._charge_ref(
            entry, master.task_key, master.tenant, master.qos_class
        ):
            master.stats.skipped_no_memory += 1
            return None
        self.store.touch(key)
        self._stats.warm_admissions += 1
        rec = self.env.recorder
        if rec is not None:
            rec.count("shared_warm_admit", "shared_tier")
        master.hold(encoded_cid, entry.nbytes)
        return self.store.chunk_object(key)

    def _admit(
        self, master, encoded_cid: str, key: str, blob: bytes
    ) -> Generator[Event, Any, Optional[Chunk]]:
        """File a freshly fetched chunk: quota, placement, first ref."""
        nbytes = len(blob)
        tenant = master.tenant
        if not self._quota_room(tenant, nbytes):
            self._stats.quota_rejections += 1
            master.stats.skipped_no_memory += 1
            return None
        chunk = Chunk.decode(blob)
        if (yield from self._place(key, chunk, nbytes, master.qos_class)) is None:
            master.stats.skipped_no_memory += 1
            return None
        entry = _Entry(nbytes=nbytes, qos=master.qos_class)
        entry.tasks.add(master.task_key)
        entry.tenants[tenant] = 1
        self._entries[key] = entry
        self._tenant_usage[tenant] = self._tenant_usage.get(tenant, 0) + nbytes
        self._stats.cold_admissions += 1
        rec = self.env.recorder
        if rec is not None:
            rec.count("shared_cold_admit", "shared_tier")
        master.hold(encoded_cid, nbytes)
        return chunk

    def _join(self, master, key: str) -> Tuple[Event, bool]:
        """Join ``key``'s in-flight fetch: count the coalesced pull and
        report whether ``master``'s own task leads it."""
        self._stats.coalesced_pulls += 1
        master.stats.coalesced_pulls += 1
        return (
            self._flights.waiter(key),
            self._flights.leader(key) == master.task_key,
        )

    def acquire(
        self, master, encoded_cid: str, donor=None
    ) -> Generator[Event, Any, Optional[Tuple[Chunk, str]]]:
        """Admit one chunk on behalf of ``master``'s task (ref-counted).

        ``master`` is a :class:`~repro.core.dist_cache.CacheMaster` on
        this node: it supplies the server, dataset, task key, tenant and
        QoS class, and this call records the outcome on it
        (``hold`` on admission, ``stats.skipped_no_memory`` on refusal,
        ``stats.coalesced_pulls`` when it joins an in-flight fetch).

        Resident → warm ref-bump.  In flight → wait (single-flight
        across tasks); a waiter whose own task led the fetch adopts its
        outcome, any other re-checks (ref-bump, or retry the cold path
        when the leader was refused under its own quota).  Miss → fetch
        from ``donor`` (a peer master that still holds the chunk: the
        scale-up warm and scale-down drain pull) or else the object
        store, make room (QoS-governed eviction of the warm pool),
        charge the tenant quota, admit.  Returns ``(chunk, source)``
        with source ``"resident"``, ``"peer"`` or ``"backend"``, or
        ``None`` when refused or when it joined its own task's fetch
        (the chunk then stays server-resident or is already held).
        """
        key = self._key(master.dataset, encoded_cid)
        while True:
            entry = self._entries.get(key)
            if entry is not None:
                chunk = self._warm(master, encoded_cid, key, entry)
                return (chunk, "resident") if chunk is not None else None
            if key not in self._flights:
                break
            pending, own = self._join(master, key)
            yield pending
            if own:
                return None
        self._flights.begin(key, master.task_key)
        try:
            blob = None
            if donor is not None and donor.up:
                try:
                    blob = yield from donor.endpoint.call(
                        self.node, "get_chunk", encoded_cid,
                        response_bytes=None,
                    )
                except (NodeDownError, CachePeerDownError):
                    pass  # the donor died mid-pull: use the backend
            source = "peer" if blob is not None else "backend"
            if blob is None:
                blob = yield from master.server.call(
                    self.node,
                    "get_chunk",
                    master.dataset,
                    encoded_cid,
                    response_bytes=None,  # sized from the returned bytes
                )
            chunk = yield from self._admit(master, encoded_cid, key, blob)
            return (chunk, source) if chunk is not None else None
        finally:
            self._flights.end(key)

    def acquire_batch(
        self, master, cids: Sequence[str]
    ) -> Generator[Event, Any, int]:
        """Batched :meth:`acquire`: one vectorized server admission.

        Chunks ``master`` already holds count as cached; resident ones
        ref-bump immediately; the cold subset rides a single
        :meth:`~repro.core.server.DieselServer.call_batch`; chunks in
        flight are awaited afterwards (adopting the outcome of a fetch
        ``master``'s own task leads, re-checking another task's).
        Returns how many of ``cids`` ``master`` now holds.
        """
        cached = 0
        fetch: List[str] = []
        waits: List[Tuple[str, Event, bool]] = []
        for cid in cids:
            if master.has_chunk(cid):
                cached += 1
                continue
            key = self._key(master.dataset, cid)
            entry = self._entries.get(key)
            if entry is not None:
                cached += self._warm(master, cid, key, entry) is not None
                continue
            if key in self._flights:
                waits.append((cid, *self._join(master, key)))
                continue
            self._flights.begin(key, master.task_key)
            fetch.append(cid)
        try:
            if fetch:
                blobs = yield from master.server.call_batch(
                    self.node,
                    [("get_chunk", master.dataset, cid) for cid in fetch],
                )
                for cid, blob in zip(fetch, blobs):
                    key = self._key(master.dataset, cid)
                    chunk = yield from self._admit(master, cid, key, blob)
                    cached += chunk is not None
        finally:
            for cid in fetch:
                self._flights.end(self._key(master.dataset, cid))
        for cid, pending, own in waits:
            if own:
                yield pending
            else:
                yield from self.acquire(master, cid)
            cached += master.has_chunk(cid)
        return cached

    # ---------------------------------------------------------------- release
    def release(self, dataset: str, encoded_cid: str, task: str, tenant: str) -> None:
        """Drop one task's reference.  In a tier shared across tasks the
        chunk stays warm (refcount-0 chunks are reclaimed by eviction,
        not by release); in a tier its task owns, no other task can
        reuse it, so the chunk is freed."""
        key = self._key(dataset, encoded_cid)
        entry = self._entries.get(key)
        if entry is None or task not in entry.tasks:
            return
        entry.tasks.discard(task)
        left = entry.tenants.get(tenant, 0) - 1
        if left <= 0:
            entry.tenants.pop(tenant, None)
            self._tenant_usage[tenant] = max(
                0, self._tenant_usage.get(tenant, 0) - entry.nbytes
            )
        else:
            entry.tenants[tenant] = left
        self._stats.released_refs += 1
        if task == self.registry.owner:
            del self._entries[key]
            self.store.drop(key)

    def release_task(self, task: str, tenant: str) -> int:
        """Drop every reference ``task`` holds; returns how many."""
        held = [key for key, entry in self._entries.items() if task in entry.tasks]
        for key in held:
            dataset, _, encoded_cid = key.rpartition("/")
            self.release(dataset, encoded_cid, task, tenant)
        return len(held)

    def purge_crashed(self) -> int:
        """Node died: forget RAM residency without returning memory (the
        node's memory container died with it).  The *disk tier
        survives* the crash: disk-resident entries are kept with their
        refcounts cleared, so post-restore re-admissions warm from disk
        instead of re-fetching from the backend.  Returns entries
        dropped (RAM-only residents)."""
        if self.node.alive:
            return 0
        before = len(self._entries)
        self.store.crash()
        kept: "OrderedDict[str, _Entry]" = OrderedDict()
        for key, entry in self._entries.items():
            if self.store.tier_of(key) == "disk":
                entry.tasks.clear()
                entry.tenants.clear()
                kept[key] = entry
        self._entries = kept
        self._tenant_usage.clear()
        return before - len(kept)


def _summed(total, snaps):
    """``total`` with every dataclass field of ``snaps`` added in."""
    for snap in snaps:
        for f in fields(total):
            setattr(total, f.name, getattr(total, f.name) + getattr(snap, f.name))
    return total


class SharedCacheRegistry:
    """Deployment-wide shared-tier handle: per-node caches + quotas.

    The store keyword arguments pick the residency backend
    (:func:`~repro.core.chunk_store.make_spec`); every lazily created
    node cache builds its store from this one spec.  A
    :class:`~repro.core.dist_cache.TaskCache` built without a registry
    creates its own RAM registry and sets :attr:`owner` to its task key.
    """

    def __init__(
        self,
        env: Environment,
        *,
        store: str = "ram",
        disk_tier_bytes: int = 0,
        disk_latency_s: float = DEFAULT_DISK_LATENCY_S,
        disk_bandwidth_bps: float = DEFAULT_DISK_BANDWIDTH_BPS,
        chunk_compression: bool = False,
        compression_seed: int = 0,
    ) -> None:
        self.env = env
        self.store_spec = make_spec(
            store, disk_tier_bytes, disk_latency_s,
            disk_bandwidth_bps, chunk_compression, compression_seed,
        )
        self._caches: Dict[str, SharedChunkCache] = {}  # node name → cache
        self._quotas: Dict[str, int] = {}  # tenant → per-node byte quota
        self._next_task = 0
        #: Task key of the one task this registry belongs to, or
        #: ``None`` when tasks share it.  An owned tier frees what its
        #: task releases and never serves a read as another task's copy.
        self.owner: Optional[str] = None

    def for_node(self, node) -> SharedChunkCache:
        """The node's shared cache (created lazily on first use)."""
        cache = self._caches.get(node.name)
        if cache is None:
            cache = SharedChunkCache(self.env, node, self)
            self._caches[node.name] = cache
        return cache

    @property
    def node_caches(self) -> List[SharedChunkCache]:
        return [self._caches[k] for k in sorted(self._caches)]

    def next_task_id(self) -> str:
        """A deterministic unique key for a registering task."""
        self._next_task += 1
        return f"task{self._next_task}"

    # ----------------------------------------------------------------- quotas
    def set_quota(self, tenant: str, quota_bytes: int) -> None:
        """Per-node resident-byte quota for ``tenant`` (0 = unlimited)."""
        if quota_bytes < 0:
            raise ValueError("tenant quota must be >= 0")
        self._quotas[tenant] = quota_bytes

    def quota_of(self, tenant: str) -> int:
        return self._quotas.get(tenant, 0)

    def tenants(self) -> List[str]:
        """Every tenant with a quota or resident usage, sorted."""
        names = set(self._quotas)
        for cache in self._caches.values():
            names.update(cache._tenant_usage)
        return sorted(names)

    def tenant_rows(self) -> List[dict]:
        """Per-tenant usage summary (``dlcmd tenants`` / bench rows).

        ``max_node_usage_bytes`` is the enforcement-relevant number:
        quotas bound each node independently, so the busiest node is the
        one that can violate them.
        """
        rows = []
        for tenant in self.tenants():
            usages = [c.tenant_usage(tenant) for c in self.node_caches]
            quota = self.quota_of(tenant)
            peak = max(usages, default=0)
            rows.append({
                "tenant": tenant,
                "quota_bytes": quota,
                "max_node_usage_bytes": peak,
                "total_usage_bytes": sum(usages),
                "within_quota": quota <= 0 or peak <= quota,
            })
        return rows

    # ------------------------------------------------------------------ stats
    @property
    def stats(self) -> SharedCacheStats:
        """Counters summed over every node cache (gauges included)."""
        return _summed(SharedCacheStats(),
                       [c.stats for c in self._caches.values()])

    @property
    def store_stats(self) -> ChunkStoreStats:
        """Tier counters summed over every node cache's chunk store."""
        return _summed(ChunkStoreStats(),
                       [c.store.stats for c in self._caches.values()])

    def tier_rows(self) -> List[dict]:
        """Per-node tier residency summary (``dlcmd tiers`` / bench rows)."""
        rows = []
        for cache in self.node_caches:
            s = cache.store.stats
            rows.append({
                "node": cache.node.name,
                "store": cache.store.kind,
                "chunks_ram": s.chunks_ram,
                "chunks_disk": s.chunks_disk,
                "ram_bytes": s.ram_bytes,
                "disk_bytes": s.disk_bytes,
                "disk_stored_bytes": s.disk_stored_bytes,
                "ram_hits": s.ram_hits,
                "disk_hits": s.disk_hits,
                "promotions": s.promotions,
                "demotions": s.demotions,
            })
        return rows

    # --------------------------------------------------------------- recovery
    def purge_dead(self) -> int:
        """Clear the caches of crashed nodes; returns entries dropped.

        Idempotent — every recovering task calls it; only the first call
        after a crash finds anything.  Survivor caches are untouched, so
        recovery re-admissions warm from them instead of re-fetching.
        """
        return sum(c.purge_crashed() for c in self._caches.values())
