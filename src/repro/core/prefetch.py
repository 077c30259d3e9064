"""Pipelined chunk prefetch for chunk-wise shuffle mode (paper §4.3).

The whole point of chunk-wise shuffle is that an epoch's reads become
*sequential chunk reads whose latency hides behind compute* (Figs 12/14).
The :class:`~repro.core.shuffle.EpochPlan` makes the future explicit: the
concatenated per-group chunk lists are exactly the order in which the
consumer will need chunks.  :class:`ChunkPrefetcher` walks that schedule
ahead of the consumer, keeping up to ``depth`` chunks fetched-but-not-yet
-consumed at all times, so by the time the training loop asks for a file
its chunk is (usually) already resident in the group cache — or at least
already in flight, so the consumer waits only for the *remaining* part of
the transfer.

Coordination with demand fetches goes through the client's single-flight
``_inflight`` map (shared by :meth:`DieselClient._ensure_chunk`): a chunk
is never transferred twice, whoever — prefetcher or consumer — asks
first.  The group cache is allowed to grow by ``depth`` entries beyond
``shuffle_group_size`` while the pipeline is active, which bounds the
client's working set at ``(shuffle_group_size + depth) × chunk_size``.

Accounting (extends :class:`~repro.core.client.ClientStats`):

* ``prefetch_issued`` — fetches the pipeline started;
* ``prefetch_hits``   — consumer found its chunk resident or in flight
  thanks to the pipeline;
* ``prefetch_misses`` — consumer had to demand-fetch (pipeline too far
  behind, or the chunk was never scheduled in time);
* ``prefetch_wasted`` — prefetched chunks evicted or cancelled before
  any consumer touched them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List, Set

from repro.core.shuffle import EpochPlan
from repro.errors import DieselError, InterruptError
from repro.sim.engine import Event, Process, Semaphore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.client import DieselClient


class ChunkPrefetcher:
    """Keeps the next ``depth`` chunks of an epoch plan in flight.

    One instance serves one epoch plan; :meth:`DieselClient.epoch_file_list`
    replaces the previous instance (cancelling whatever it still had in
    flight) whenever a new plan is generated.
    """

    def __init__(
        self, client: "DieselClient", plan: EpochPlan, depth: int
    ) -> None:
        if depth < 1:
            raise DieselError("prefetch depth must be >= 1")
        self.client = client
        self.env = client.env
        self.depth = depth
        # The future chunk order, deduplicated keeping first occurrence:
        # group after group, exactly the order the consumer drains them.
        order: List[str] = []
        seen: Set[str] = set()
        for group in plan.groups:
            for cid in group.chunk_ids:
                encoded = cid.encode()
                if encoded not in seen:
                    seen.add(encoded)
                    order.append(encoded)
        self._schedule = order
        self._scheduled = seen
        self._next = 0  # next schedule index to issue
        #: Issue timestamps for the issue→consume lead-time histogram
        #: (only populated while a recorder is attached to the env).
        self._issue_ts: Dict[str, float] = {}
        #: Issued but not yet consumed (bounds the pipeline window).
        self._outstanding: Set[str] = set()
        self._consumed: Set[str] = set()
        self._procs: Dict[str, Process] = {}
        #: Caps concurrent *transfers* at ``depth``.  The window can
        #: issue a replacement fetch while a consumed chunk's transfer
        #: is still finishing, so without this the pipeline could
        #: briefly exceed depth-K concurrency.
        self._sem = Semaphore(client.env, depth)
        self._active = True
        #: Elastic-membership steering (see :meth:`repin`).
        self.repins = 0
        self.repin_skipped = 0
        self._top_up()

    # ------------------------------------------------------------- status
    @property
    def active(self) -> bool:
        return self._active

    @property
    def in_flight(self) -> int:
        """Prefetch fetch processes currently running."""
        return len(self._procs)

    @property
    def outstanding(self) -> int:
        """Chunks issued ahead of the consumer (≤ depth)."""
        return len(self._outstanding)

    @property
    def schedule_length(self) -> int:
        return len(self._schedule)

    # ----------------------------------------------------------- pipeline
    def _top_up(self) -> None:
        """Issue fetches until ``depth`` chunks are ahead of the consumer."""
        while (
            self._active
            and len(self._outstanding) < self.depth
            and self._next < len(self._schedule)
        ):
            encoded = self._schedule[self._next]
            self._next += 1
            if encoded in self._consumed:
                continue  # demand path beat us to it
            self._outstanding.add(encoded)
            self.client.stats.prefetch_issued += 1
            if self.env.recorder is not None:
                self._issue_ts[encoded] = self.env.now
            self._procs[encoded] = self.env.process(
                self._fetch(encoded), name=f"prefetch:{encoded[:8]}"
            )

    def _fetch(self, encoded: str) -> Generator[Event, Any, None]:
        slot = self._sem.acquire()
        try:
            if not slot.triggered:
                yield slot
        except InterruptError:
            # Interrupted while queued (or racing the grant): give the
            # request up without ever holding a slot.
            self._sem.abandon(slot)
            self._procs.pop(encoded, None)
            return
        self.client._note_fetch_inflight(self._sem.in_flight)
        try:
            yield from self.client._ensure_chunk(encoded)
        except InterruptError:
            return  # cancelled: single-flight cleanup already ran
        finally:
            self._sem.release(slot)
            self._procs.pop(encoded, None)

    def repin(self, owner_of) -> int:
        """Drop not-yet-issued schedule entries that became node-local.

        After an elastic scale event moves chunk ownership, chunks the
        schedule planned to pull over the network may now live on this
        client's own node — their demand read is already an intra-node
        memory copy, so spending a pipeline slot (and a transfer window)
        prefetching them is pure waste.  Issued and in-flight fetches
        are left alone; skipped chunks are unscheduled, so a later
        demand read neither scores a miss nor holds a window slot.
        ``owner_of`` maps an encoded chunk id to its owner node name.
        Returns how many entries were skipped.
        """
        if not self._active or self._next >= len(self._schedule):
            return 0
        local = self.client.node.name
        keep: List[str] = []
        skipped = 0
        for encoded in self._schedule[self._next:]:
            if encoded not in self._consumed and owner_of(encoded) == local:
                self._scheduled.discard(encoded)
                skipped += 1
            else:
                keep.append(encoded)
        if skipped:
            del self._schedule[self._next:]
            self._schedule.extend(keep)
            self.repin_skipped += skipped
        self.repins += 1
        return skipped

    def protects(self, encoded: str) -> bool:
        """True while ``encoded`` is prefetched-ahead but not yet consumed.

        The client's eviction loop skips protected chunks: a prefetched
        chunk sits at its insertion position in the LRU order while the
        consumer keeps refreshing the current group's chunks, so plain
        LRU would evict exactly the chunks the pipeline just paid to
        transfer — turning each prefetch into a wasted+duplicate read.
        """
        return self._active and encoded in self._outstanding

    # ------------------------------------------------------ client hooks
    def on_access(self, encoded: str, resident: bool, in_flight: bool) -> None:
        """Consumer is about to read a file of chunk ``encoded``.

        Called by the client's group-cache read path *before* it resolves
        the chunk, so ``resident``/``in_flight`` reflect what the
        pipeline achieved.  First access to each chunk scores the
        pipeline (hit vs miss) and frees one window slot.
        """
        if not self._active or encoded in self._consumed:
            return
        if encoded not in self._scheduled:
            return  # out-of-plan read (e.g. a stray get()); not ours
        self._consumed.add(encoded)
        if encoded in self._outstanding:
            self._outstanding.discard(encoded)
            rec = self.env.recorder
            if rec is not None:
                ts = self._issue_ts.pop(encoded, None)
                if ts is not None:
                    # Issue→consume lead: how far ahead of the consumer
                    # the pipeline ran for this chunk.
                    rec.record("prefetch", "lead", self.env.now - ts,
                               actor=self.client.name, chunk=encoded[:12],
                               hit=bool(resident or in_flight))
            if resident or in_flight:
                self.client.stats.prefetch_hits += 1
            else:
                # Issued but the fetch failed/was lost: the consumer
                # pays the full transfer after all.
                self.client.stats.prefetch_misses += 1
        elif not resident:
            # Scheduled but not yet issued: the consumer outran the
            # pipeline (depth too small for the compute/transfer ratio).
            self.client.stats.prefetch_misses += 1
        self._top_up()

    def on_evict(self, encoded: str) -> None:
        """A chunk fell out of the group cache before being consumed."""
        if encoded in self._outstanding:
            self._outstanding.discard(encoded)
            self.client.stats.prefetch_wasted += 1
            rec = self.env.recorder
            if rec is not None:
                self._issue_ts.pop(encoded, None)
                rec.count("prefetch", "wasted")
            self._top_up()

    # ------------------------------------------------------------- cancel
    def cancel(self) -> None:
        """Stop the pipeline and interrupt in-flight fetches.

        Idempotent.  In-flight fetch processes are interrupted; their
        single-flight entries are cleaned up by ``_ensure_chunk``'s
        ``finally`` so waiting demand readers simply re-fetch.  Chunks
        issued but never consumed count as wasted.
        """
        if not self._active:
            return
        self._active = False
        for proc in list(self._procs.values()):
            if proc.is_alive:
                proc.interrupt("prefetch cancelled")
        self._procs.clear()
        self.client.stats.prefetch_wasted += len(self._outstanding)
        rec = self.env.recorder
        if rec is not None and self._outstanding:
            rec.count("prefetch", "wasted", len(self._outstanding))
        self._outstanding.clear()
        self._issue_ts.clear()
