"""Contention primitives: Resource, Container, Store, SingleFlight.

These model the shared hardware and software capacities in the cluster:
a :class:`Resource` with capacity *k* is a k-server FIFO queueing station
(device queue depths, server worker pools, RPC service threads); a
:class:`Container` tracks a divisible quantity (memory bytes); a
:class:`Store` is a FIFO queue of Python objects (mailboxes, request
queues); a :class:`SingleFlight` lets one process do a keyed piece of
work (a chunk fetch, a tier move) while concurrent callers wait for it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Generator, Hashable, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Environment, Event


class Request(Event):
    """A pending or granted claim on one slot of a :class:`Resource`."""

    __slots__ = ("resource", "granted", "cancelled")

    def __init__(self, env: Environment, resource: "Resource") -> None:
        super().__init__(env)
        self.resource = resource
        self.granted = False
        self.cancelled = False


class Resource:
    """A FIFO multi-server resource.

    Usage inside a process::

        req = resource.request()
        yield req
        try:
            yield env.timeout(service_time)
        finally:
            resource.release(req)

    or equivalently ``yield from resource.use(service_time)``.
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        # Slot accounting mirrors the engine's Semaphore: a held count
        # plus a per-request grant flag, no shared user set to mutate on
        # every grant/release (the RPC worker-pool hot path).
        self._count = 0
        self._queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of granted slots."""
        return self._count

    @property
    def queue_length(self) -> int:
        """Number of waiting requests."""
        return len(self._queue)

    def request(self) -> Request:
        req = Request(self.env, self)
        if self._count < self.capacity:
            self._count += 1
            req.granted = True
            req.succeed()
        else:
            self._queue.append(req)
        return req

    def cancel(self, request: Request) -> None:
        """Withdraw a not-yet-granted request (no-op if already granted)."""
        if request.granted:
            return
        request.cancelled = True

    def abandon(self, request: Request) -> None:
        """Give a request up whatever its state: release if granted,
        withdraw if still queued.  The safe cleanup when a process is
        interrupted at ``yield request()`` (it cannot know whether the
        grant raced the interrupt).
        """
        if request.granted:
            self.release(request)
        else:
            request.cancelled = True

    def release(self, request: Request) -> None:
        if not request.granted:
            raise SimulationError("releasing a request that does not hold the resource")
        request.granted = False
        while self._queue:
            nxt = self._queue.popleft()
            if nxt.cancelled:
                continue
            # Hand the slot straight over: held count is unchanged.
            nxt.granted = True
            nxt.succeed()
            return
        self._count -= 1

    def use(self, duration: float) -> Generator[Event, Any, None]:
        """Acquire one slot, hold it for ``duration``, release it."""
        req = self.request()
        try:
            yield req
        except BaseException:
            self.abandon(req)
            raise
        try:
            yield self.env.timeout(duration)
        finally:
            self.release(req)


class Container:
    """A divisible quantity with blocking get/put (e.g. bytes of memory)."""

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise SimulationError("container capacity must be positive")
        if not 0 <= init <= capacity:
            raise SimulationError("initial level must be within [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._getters: Deque[tuple[Event, float]] = deque()
        self._putters: Deque[tuple[Event, float]] = deque()

    @property
    def level(self) -> float:
        return self._level

    def get(self, amount: float) -> Event:
        """Event that fires once ``amount`` has been withdrawn."""
        if amount < 0:
            raise SimulationError("get amount must be non-negative")
        evt = Event(self.env)
        self._getters.append((evt, amount))
        self._settle()
        return evt

    def put(self, amount: float) -> Event:
        """Event that fires once ``amount`` has been deposited."""
        if amount < 0:
            raise SimulationError("put amount must be non-negative")
        if amount > self.capacity:
            raise SimulationError("put amount exceeds container capacity")
        evt = Event(self.env)
        self._putters.append((evt, amount))
        self._settle()
        return evt

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters:
                evt, amount = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.popleft()
                    self._level += amount
                    evt.succeed()
                    progress = True
            if self._getters:
                evt, amount = self._getters[0]
                if amount <= self._level:
                    self._getters.popleft()
                    self._level -= amount
                    evt.succeed()
                    progress = True


class Store:
    """A FIFO queue of items with blocking get and optional capacity."""

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity < 1:
            raise SimulationError("store capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple[Any, ...]:
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        evt = Event(self.env)
        self._putters.append((evt, item))
        self._settle()
        return evt

    def get(self) -> Event:
        evt = Event(self.env)
        self._getters.append(evt)
        self._settle()
        return evt

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            while self._putters and len(self._items) < self.capacity:
                evt, item = self._putters.popleft()
                self._items.append(item)
                evt.succeed()
                progress = True
            while self._getters and self._items:
                evt = self._getters.popleft()
                evt.succeed(self._items.popleft())
                progress = True


class SingleFlight:
    """At most one in-flight operation per key; later callers wait.

    The process that finds a key idle calls :meth:`begin` and becomes
    its leader, and must call :meth:`end` when done (normally from a
    ``finally``).  A caller that finds the key busy yields the event
    from :meth:`waiter` and resumes once the leader ends, then
    re-checks whatever state the leader was producing.  ``leader`` is an
    opaque tag the leader registers (for example the task it works for)
    so a waiter can tell its own work from someone else's.
    """

    __slots__ = ("env", "_flights")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._flights: Dict[Hashable, Tuple[Event, Any]] = {}

    def __contains__(self, key: Hashable) -> bool:
        return key in self._flights

    def __len__(self) -> int:
        return len(self._flights)

    def waiter(self, key: Hashable) -> Optional[Event]:
        """The event that fires when ``key``'s flight ends, or ``None``
        when no flight is running."""
        flight = self._flights.get(key)
        return flight[0] if flight is not None else None

    def leader(self, key: Hashable) -> Any:
        """The tag the running flight's leader registered."""
        return self._flights[key][1]

    def begin(self, key: Hashable, leader: Any = None) -> None:
        """Start a flight for ``key``; it must not already be running."""
        if key in self._flights:
            raise SimulationError(f"{key!r} is already in flight")
        self._flights[key] = (Event(self.env), leader)

    def end(self, key: Hashable) -> None:
        """Finish ``key``'s flight and wake every waiter."""
        self._flights.pop(key)[0].succeed()
