"""Pluggable chunk-residency stores: RAM tier + simulated-NVMe disk tier.

Every resident cache chunk lives in the chunk store of its node's
shared chunk tier (:mod:`repro.core.shared_cache`), whether the tier
serves many tasks or the one task that created it.  The store decides
*where* a chunk lives; the tier decides *who* references it.  Two
backends, selected by ``SharedCacheRegistry(store=...)``:

* :class:`RamStore` (``"ram"``) — chunks live in node memory in LRU
  order; a chunk that does not fit is refused (``put`` returns
  ``None``) and stays server-resident.  It also holds the residency
  bookkeeping both stores share.
* :class:`TieredStore` (``"tiered"``) — adds a simulated node-local
  NVMe tier (a :class:`~repro.cluster.devices.Device` queueing station,
  latency/bandwidth from ``disk_latency_s`` / ``disk_bandwidth_bps``,
  capacity from ``disk_tier_bytes``).  Admissions overflow RAM→disk,
  cold chunks are *demoted* to disk under memory pressure
  (:meth:`~TieredStore.displace`), and disk-resident chunks are
  *promoted* back to RAM on access when memory allows — otherwise the
  read streams through without displacing the RAM working set, and
  costs only the requested file's extent, not the whole chunk.

Optional **transparent chunk compression** (``chunk_compression=True``,
FanStore-style) shrinks what the disk tier stores and transfers: each
chunk gets a deterministic per-chunk ratio seeded from its key
(:func:`compression_ratio`), writes pay a modeled compress cost and
reads a (much cheaper) decompress cost — trading CPU time for capacity
and disk bandwidth.  Chunk *payload bytes are never transformed*; only
the simulated costs and stored-byte accounting change, so checksums and
reads behave identically either way.

Both stores publish :class:`ChunkStoreStats` and emit ``tier_hit``
(ram/disk), ``tier_promote`` / ``tier_demote`` / ``tier_compress``
spans through an attached :class:`~repro.obs.SpanRecorder`.

Crash semantics mirror real hardware: :meth:`~RamStore.crash` forgets
RAM without returning memory (the container died with the node), while
a :class:`TieredStore`'s disk contents *survive* — recovery re-admits
survivors by reference instead of re-fetching them from the backend.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.cluster.devices import Device
from repro.core.chunk import Chunk
from repro.sim.engine import Environment, Event
from repro.sim.resources import SingleFlight
from repro.util.counters import Counters

#: Selectable store backends (``SharedCacheRegistry(store=...)``).
STORE_KINDS = ("ram", "tiered")

#: Default per-operation latency of the simulated node-local NVMe tier.
#: Higher than the storage cluster's 27.7 µs (Table 2): one commodity
#: drive behind a filesystem, not a striped all-flash array.
DEFAULT_DISK_LATENCY_S = 8e-05
#: Default streaming bandwidth of the disk tier: 2 GiB/s — a single
#: local NVMe, deliberately slower than the 3.3 GB/s aggregated
#: storage-cluster profile so the tier ordering RAM > disk > backend
#: holds.
DEFAULT_DISK_BANDWIDTH_BPS = 2147483648.0
#: Simulated compressor throughput (LZ4-class: fast, asymmetric).
COMPRESS_BPS = 1.5 * 2**30
#: Simulated decompressor throughput (decompression is ~4× cheaper).
DECOMPRESS_BPS = 6.0 * 2**30
#: Per-chunk compression-ratio band.  Packed small-file datasets (JPEG
#: + labels + headers) compress unevenly; FanStore reports ~1.4–3.6×
#: across TensorFlow training sets.
MIN_COMPRESSION_RATIO = 1.4
MAX_COMPRESSION_RATIO = 3.6


def compression_ratio(key: str, seed: int = 0) -> float:
    """Deterministic per-chunk compression ratio in [1.4, 3.6].

    Seeded from the chunk key via ``zlib.crc32`` — *not* the builtin
    ``hash()``, which is process-seeded and would break run-to-run
    determinism.
    """
    h = zlib.crc32(f"{seed}:{key}".encode())
    frac = (h % 1000) / 999.0
    return MIN_COMPRESSION_RATIO + frac * (
        MAX_COMPRESSION_RATIO - MIN_COMPRESSION_RATIO
    )


def make_spec(
    cache_store: str = "ram",
    disk_tier_bytes: int = 0,
    disk_latency_s: float = DEFAULT_DISK_LATENCY_S,
    disk_bandwidth_bps: float = DEFAULT_DISK_BANDWIDTH_BPS,
    chunk_compression: bool = False,
    compression_seed: int = 0,
) -> Dict[str, Any]:
    """Validate store parameters into a spec dict for :func:`make_store`.

    Raises ``ValueError`` on an invalid combination (callers that need a
    :class:`~repro.errors.DieselError` wrap this themselves).
    """
    if cache_store not in STORE_KINDS:
        raise ValueError(
            f"cache_store must be one of {STORE_KINDS}, got {cache_store!r}"
        )
    if disk_tier_bytes < 0:
        raise ValueError("disk_tier_bytes must be >= 0 (0 = unbounded)")
    if disk_latency_s < 0:
        raise ValueError("disk_latency_s must be >= 0")
    if disk_bandwidth_bps <= 0:
        raise ValueError("disk_bandwidth_bps must be > 0")
    return {
        "kind": cache_store,
        "disk_tier_bytes": disk_tier_bytes,
        "disk_latency_s": disk_latency_s,
        "disk_bandwidth_bps": disk_bandwidth_bps,
        "chunk_compression": chunk_compression,
        "compression_seed": compression_seed,
    }


def make_store(
    env: Environment,
    node,
    spec: Optional[Dict[str, Any]] = None,
    on_evict: Optional[Callable[[str], None]] = None,
) -> "RamStore":
    """Build the store a spec describes (``None`` → plain RAM store)."""
    spec = spec or {"kind": "ram"}
    kind = spec.get("kind", "ram")
    if kind == "ram":
        return RamStore(env, node, on_evict=on_evict)
    if kind == "tiered":
        return TieredStore(
            env,
            node,
            capacity_bytes=spec.get("disk_tier_bytes", 0),
            disk_latency_s=spec.get("disk_latency_s", DEFAULT_DISK_LATENCY_S),
            disk_bandwidth_bps=spec.get(
                "disk_bandwidth_bps", DEFAULT_DISK_BANDWIDTH_BPS
            ),
            compression=spec.get("chunk_compression", False),
            compression_seed=spec.get("compression_seed", 0),
            on_evict=on_evict,
        )
    raise ValueError(f"unknown chunk store kind {kind!r}")


@dataclass(slots=True)
class ChunkStoreStats(Counters):
    """Tier counters and residency gauges (the bench-reporting seam).

    Cumulative counters move as the store runs; the gauge fields are
    refreshed on every :attr:`RamStore.stats` access.
    """

    #: Lookups served from the RAM tier.
    ram_hits: int = 0
    #: Lookups served from the disk tier: a read-through (costs the
    #: file's stored extent) or a whole-chunk read (costs the whole
    #: stored chunk; promotes when memory allows).
    disk_hits: int = 0
    #: Disk-resident chunks moved back to RAM on access.
    promotions: int = 0
    #: RAM-resident chunks pushed to disk under memory pressure.
    demotions: int = 0
    #: Admissions that went straight to disk (RAM could not cover them).
    disk_admits: int = 0
    #: Chunks dropped from the disk tier to make room (capacity bound).
    disk_evictions: int = 0
    #: Chunks compressed on their way to disk.
    compress_ops: int = 0
    bytes_demoted: int = 0
    bytes_promoted: int = 0
    #: Gauges (refreshed on stats access).  ``disk_bytes`` is logical
    #: chunk bytes; ``disk_stored_bytes`` is post-compression on-disk.
    ram_bytes: int = 0
    disk_bytes: int = 0
    disk_stored_bytes: int = 0
    chunks_ram: int = 0
    chunks_disk: int = 0


class RamStore:
    """RAM-only chunk residency, and the bookkeeping both stores share.

    Chunks are charged against ``node.memory`` and kept in LRU order.
    The residency maps, lookups and removal are defined here once for
    both tiers; a RAM store simply never files anything on its (empty)
    disk map, so a chunk that does not fit in memory is refused.
    All cost-bearing methods (``put`` / ``load`` / ``displace``) are
    generators so both backends share one calling convention; for the
    RAM store only ``put`` ever yields (the memory ``Container.get``).
    """

    kind = "ram"

    def __init__(self, env: Environment, node, on_evict=None) -> None:
        self.env = env
        self.node = node
        #: key → (chunk, nbytes) in LRU order (oldest first).
        self._ram: "OrderedDict[str, Tuple[Chunk, int]]" = OrderedDict()
        self._ram_bytes = 0
        #: key → (chunk, nbytes, stored bytes) on the disk tier, in LRU
        #: order; only :class:`TieredStore` ever files a chunk here.
        self._disk: "OrderedDict[str, Tuple[Chunk, int, int]]" = OrderedDict()
        self._disk_bytes = 0
        self._disk_stored = 0
        #: Called with the key whenever the store drops a chunk from
        #: every tier on its own initiative (disk-capacity eviction) —
        #: lets the owner drop its metadata in step.
        self.on_evict = on_evict
        self._stats = ChunkStoreStats()

    # ------------------------------------------------------------- inspection
    @property
    def stats(self) -> ChunkStoreStats:
        """Counters with the residency gauges refreshed."""
        s = self._stats
        s.ram_bytes = self._ram_bytes
        s.chunks_ram = len(self._ram)
        s.disk_bytes = self._disk_bytes
        s.disk_stored_bytes = self._disk_stored
        s.chunks_disk = len(self._disk)
        return s

    @property
    def count(self) -> int:
        """Resident chunks across all tiers."""
        return len(self._ram) + len(self._disk)

    def contains(self, key: str) -> bool:
        return key in self._ram or key in self._disk

    def tier_of(self, key: str) -> Optional[str]:
        """``"ram"`` / ``"disk"`` / ``None``."""
        if key in self._ram:
            return "ram"
        if key in self._disk:
            return "disk"
        return None

    def nbytes_of(self, key: str) -> int:
        item = self._ram.get(key) or self._disk.get(key)
        return item[1] if item is not None else 0

    def chunk_object(self, key: str) -> Optional[Chunk]:
        """The resident Chunk object on any tier — bookkeeping only (no
        touch, no cost); cost-bearing reads go through :meth:`load`."""
        item = self._ram.get(key) or self._disk.get(key)
        return item[0] if item is not None else None

    def keys(self) -> List[str]:
        return list(self._ram) + list(self._disk)

    def ram_lru(self) -> List[str]:
        """RAM-resident keys, least-recently-used first (a snapshot —
        safe to displace while iterating)."""
        return list(self._ram)

    # ------------------------------------------------------------ cheap reads
    def get(self, key: str) -> Optional[Tuple[Chunk, int]]:
        """RAM-tier lookup: free (a memory copy), touches LRU order.

        Returns ``(chunk, nbytes)`` or ``None`` when the chunk is not
        RAM-resident — disk-resident chunks are *not* served here; use
        :meth:`load` (which charges the disk read) for those.
        """
        item = self._ram.get(key)
        if item is None:
            return None
        self._ram.move_to_end(key)
        self._stats.ram_hits += 1
        rec = self.env.recorder
        if rec is not None:
            rec.count("tier_hit", "ram")
        return item

    def touch(self, key: str) -> None:
        """Refresh a chunk's LRU recency without serving it."""
        if key in self._ram:
            self._ram.move_to_end(key)

    # -------------------------------------------------------------- admission
    def _put_ram(
        self, key: str, chunk: Chunk, nbytes: int
    ) -> Generator[Event, Any, str]:
        yield self.node.memory.get(nbytes)
        self._ram[key] = (chunk, nbytes)
        self._ram_bytes += nbytes
        return "ram"

    def put(
        self, key: str, chunk: Chunk, nbytes: int, evictable=None
    ) -> Generator[Event, Any, Optional[str]]:
        """Admit a chunk; returns the tier it landed on or ``None``.

        The RAM store refuses (``None``) when node memory cannot cover
        the chunk *right now* — callers free memory first (the shared
        tier displaces victims, see ``evictable`` on the tiered store).
        """
        if self.node.memory.level < nbytes:
            return None
        return (yield from self._put_ram(key, chunk, nbytes))

    def load(
        self, key: str, path: Optional[str] = None
    ) -> Generator[Event, Any, Optional[Tuple[Chunk, int]]]:
        """Cost-charging lookup across all tiers (generator).

        ``path`` names the one file the caller wants out of the chunk
        (``None`` = the whole chunk).  RAM store: identical to
        :meth:`get` (never yields), whatever ``path`` says.
        """
        return self.get(key)
        yield  # pragma: no cover - marks this function as a generator

    def displace(
        self, key: str, evictable=None
    ) -> Generator[Event, Any, str]:
        """Push a RAM-resident chunk out of memory.

        The RAM store can only *evict* (drop + return memory); the
        tiered store demotes to disk when the disk tier has room.
        Returns where the chunk ended up (``"evicted"`` here).
        """
        self.drop(key)
        return "evicted"
        yield  # pragma: no cover - marks this function as a generator

    # ---------------------------------------------------------------- removal
    def _drop_ram(self, key: str) -> None:
        item = self._ram.pop(key, None)
        if item is not None:
            self._ram_bytes -= item[1]
            if self.node.alive:
                self.node.memory.put(item[1])

    def _drop_disk(self, key: str) -> None:
        entry = self._disk.pop(key, None)
        if entry is not None:
            self._disk_bytes -= entry[1]
            self._disk_stored -= entry[2]

    def drop(self, key: str) -> None:
        """Forget a chunk on whichever tier holds it, returning its
        memory if it was RAM-resident."""
        if key in self._ram:
            self._drop_ram(key)
        else:
            self._drop_disk(key)

    def clear(self) -> None:
        """Forget everything, returning RAM (graceful teardown)."""
        for key in self.keys():
            self.drop(key)

    def crash(self) -> int:
        """Node died: forget RAM *without* returning memory (the memory
        container died with the node); the disk tier *survives*, so
        recovery re-admits its chunks by reference instead of
        re-fetching them from the backend.  Returns chunks lost."""
        n = len(self._ram)
        self._ram.clear()
        self._ram_bytes = 0
        return n


class TieredStore(RamStore):
    """RAM + simulated-NVMe tiers with optional transparent compression.

    Placement policy:

    * :meth:`put` fills RAM first; when memory cannot cover the chunk
      it overflows to disk (paying compress + device write), and only
      refuses when the disk tier is full of unevictable chunks too.
    * :meth:`displace` *demotes* RAM→disk under memory pressure instead
      of dropping, so a cold chunk costs a disk read later — not a full
      backend re-fetch.
    * :meth:`load` serves disk-resident chunks from the device.  When
      node memory covers the chunk, it reads the whole stored chunk
      (+ decompress) and *promotes* it back to RAM.  Otherwise a read
      of one file streams through: it costs only that file's stored
      extent and leaves the chunk disk-resident (a scan larger than RAM
      cannot thrash the tier).

    A read-through costs the file's extent; a promotion (or a caller
    that asks for the whole chunk) costs the whole stored chunk.
    Concurrent promote/demote of one chunk is single-flighted through
    ``_moving``: the second mover waits for the first and then re-reads
    the (settled) tier state instead of racing the byte accounting.
    Extent reads move nothing, so they only wait for a move already in
    flight and run concurrently with each other; ``_readers`` counts
    them per key so disk-capacity eviction skips a chunk being read.
    """

    kind = "tiered"

    def __init__(
        self,
        env: Environment,
        node,
        capacity_bytes: int = 0,
        disk_latency_s: float = DEFAULT_DISK_LATENCY_S,
        disk_bandwidth_bps: float = DEFAULT_DISK_BANDWIDTH_BPS,
        compression: bool = False,
        compression_seed: int = 0,
        on_evict=None,
    ) -> None:
        super().__init__(env, node, on_evict=on_evict)
        #: Disk-tier capacity in *stored* bytes (0 = unbounded).
        self.capacity_bytes = capacity_bytes
        self.compression = compression
        self.compression_seed = compression_seed
        self.device = Device(
            env,
            f"nvme:{node.name}",
            disk_latency_s,
            disk_bandwidth_bps,
            queue_depth=4,
        )
        #: Promote/demote single-flight, keyed by chunk key.
        self._moving = SingleFlight(env)
        #: key → in-flight extent reads (keys with none are absent).
        self._readers: Dict[str, int] = {}

    def stored_size(self, key: str, nbytes: int) -> int:
        """On-disk footprint of a chunk (post-compression when enabled)."""
        if not self.compression:
            return nbytes
        ratio = compression_ratio(key, self.compression_seed)
        return max(1, int(nbytes / ratio))

    # -------------------------------------------------------------- admission
    def _fit_disk(self, stored: int, evictable) -> bool:
        """Make room on the disk tier, LRU-evicting allowed victims."""
        if self.capacity_bytes <= 0:
            return True
        if stored > self.capacity_bytes:
            return False
        while self._disk_stored + stored > self.capacity_bytes:
            victim = None
            for key in self._disk:
                if key in self._moving or key in self._readers:
                    continue
                if evictable is None or evictable(key):
                    victim = key
                    break
            if victim is None:
                return False
            self._drop_disk(victim)
            self._stats.disk_evictions += 1
            rec = self.env.recorder
            if rec is not None:
                rec.count("tier_evict", "disk")
            if self.on_evict is not None:
                self.on_evict(victim)
        return True

    def _write_disk(
        self, key: str, chunk: Chunk, nbytes: int, stored: int
    ) -> Generator[Event, Any, None]:
        """Charge the compress + device-write cost and file the chunk."""
        if self.compression:
            yield self.env.timeout(nbytes / COMPRESS_BPS)
            self._stats.compress_ops += 1
            rec = self.env.recorder
            if rec is not None:
                rec.count("tier_compress", "disk")
        yield from self.device.write(stored)
        self._disk[key] = (chunk, nbytes, stored)
        self._disk_bytes += nbytes
        self._disk_stored += stored

    def put(
        self, key: str, chunk: Chunk, nbytes: int, evictable=None
    ) -> Generator[Event, Any, Optional[str]]:
        """Admit a chunk: RAM if memory covers it, else overflow to disk.

        ``evictable(key) -> bool`` gates which disk-resident chunks may
        be LRU-evicted for capacity (``None`` = any).  Returns the tier
        the chunk landed on, or ``None`` when both tiers refused.
        """
        if self.node.memory.level >= nbytes:
            return (yield from self._put_ram(key, chunk, nbytes))
        stored = self.stored_size(key, nbytes)
        if not self._fit_disk(stored, evictable):
            return None
        yield from self._write_disk(key, chunk, nbytes, stored)
        self._stats.disk_admits += 1
        rec = self.env.recorder
        if rec is not None:
            rec.count("tier_admit", "disk")
        return "disk"

    # ------------------------------------------------------- promote / demote
    def _can_promote(self, nbytes: int) -> bool:
        return self.node.alive and self.node.memory.level >= nbytes

    def _note_disk_hit(self) -> None:
        self._stats.disk_hits += 1
        rec = self.env.recorder
        if rec is not None:
            rec.count("tier_hit", "disk")

    def load(
        self, key: str, path: Optional[str] = None
    ) -> Generator[Event, Any, Optional[Tuple[Chunk, int]]]:
        """Serve a chunk from whichever tier holds it, charging costs.

        RAM: free.  Disk, when node memory cannot cover the chunk and
        ``path`` names one of its files: a read-through of that file's
        extent (:meth:`_read_extent`).  Otherwise (memory covers it, or
        the caller wants the whole chunk): one device read of the whole
        stored chunk plus its decompress cost; the chunk is promoted to
        RAM when memory still covers it *after* the read (memory may
        have filled meanwhile), else it stays disk-resident.
        """
        got = self.get(key)
        if got is not None:
            return got
        while (pending := self._moving.waiter(key)) is not None:
            yield pending
            got = self.get(key)
            if got is not None:
                return got
        entry = self._disk.get(key)
        if entry is None:
            return None
        chunk, nbytes, stored = entry
        self._disk.move_to_end(key)
        if path is not None and path in chunk and not self._can_promote(nbytes):
            return (yield from self._read_extent(key, chunk, nbytes, path))
        self._moving.begin(key)
        try:
            t0 = self.env.now
            yield from self.device.read(stored)
            if self.compression:
                yield self.env.timeout(nbytes / DECOMPRESS_BPS)
            self._note_disk_hit()
            if self._can_promote(nbytes):
                yield self.node.memory.get(nbytes)
                self._drop_disk(key)
                self._ram[key] = (chunk, nbytes)
                self._ram_bytes += nbytes
                self._stats.promotions += 1
                self._stats.bytes_promoted += nbytes
                rec = self.env.recorder
                if rec is not None:
                    rec.record("tier_promote", "disk",
                               self.env.now - t0, nbytes=nbytes)
            return chunk, nbytes
        finally:
            self._moving.end(key)

    def _read_extent(
        self, key: str, chunk: Chunk, nbytes: int, path: str
    ) -> Generator[Event, Any, Tuple[Chunk, int]]:
        """Read one file out of a disk-resident chunk, without promoting.

        Chunks are modelled as seekable per-file frames, and the file
        table already sits in the resident :class:`Chunk`, so the device
        reads only the file's stored extent (+ its decompress) with no
        header read.
        """
        length = chunk.entry(path).length
        self._readers[key] = self._readers.get(key, 0) + 1
        try:
            yield from self.device.read(self.stored_size(key, length))
            if self.compression:
                yield self.env.timeout(length / DECOMPRESS_BPS)
        finally:
            left = self._readers.pop(key) - 1
            if left:
                self._readers[key] = left
        self._note_disk_hit()
        return chunk, nbytes

    def displace(
        self, key: str, evictable=None
    ) -> Generator[Event, Any, str]:
        """Demote a RAM-resident chunk to disk (evict only as last resort).

        Single-flighted per key: racing a concurrent promote/demote of
        the same chunk waits for it to settle, then reports the settled
        tier.  Returns ``"disk"`` (demoted), ``"evicted"`` (no disk
        room) or the tier the racer left the chunk on.
        """
        pending = self._moving.waiter(key)
        if pending is not None:
            yield pending
            return self.tier_of(key) or "evicted"
        item = self._ram.get(key)
        if item is None:
            return self.tier_of(key) or "evicted"
        chunk, nbytes = item
        stored = self.stored_size(key, nbytes)
        if not self._fit_disk(stored, evictable):
            self.drop(key)
            return "evicted"
        self._moving.begin(key)
        try:
            t0 = self.env.now
            yield from self._write_disk(key, chunk, nbytes, stored)
            self._drop_ram(key)
            self._stats.demotions += 1
            self._stats.bytes_demoted += nbytes
            rec = self.env.recorder
            if rec is not None:
                rec.record("tier_demote", "disk",
                           self.env.now - t0, nbytes=nbytes)
            return "disk"
        finally:
            self._moving.end(key)
