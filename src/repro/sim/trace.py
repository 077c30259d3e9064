"""Event tracing for the DES kernel.

Attach a :class:`Tracer` to an :class:`~repro.sim.engine.Environment` to
record every processed event — what fired, when, and which process it
belonged to.  Used to debug experiment hangs and to answer "what was the
simulation actually doing between t=3ms and t=5ms?".

Tracing is off unless a tracer is attached: the kernel's ``step`` pays
one ``is not None`` check per event for it (DESIGN.md §10).
:meth:`Tracer.attach` and :meth:`Tracer.detach` take effect on the next
event, also when called from inside a running process.

Usage::

    env = Environment()
    tracer = Tracer.attach(env, capacity=100_000)
    ...run...
    print(tracer.summary())
    for rec in tracer.between(3e-3, 5e-3):
        print(rec)
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Deque, Iterator, Optional

from repro.sim.engine import Environment, Event, Process, Timeout


@dataclass(frozen=True)
class TraceRecord:
    """One processed event."""

    time: float
    kind: str
    name: str

    def __str__(self) -> str:
        return f"[{self.time:.9f}] {self.kind:<10} {self.name}"


class Tracer:
    """A bounded ring of processed-event records."""

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._records: Deque[TraceRecord] = deque(maxlen=capacity)
        self.total_events = 0
        self.dropped = 0

    @classmethod
    def attach(cls, env: Environment, capacity: int = 100_000) -> "Tracer":
        """Create a tracer and hook it into ``env``'s event loop."""
        tracer = cls(capacity)
        env._tracer = tracer
        return tracer

    @staticmethod
    def detach(env: Environment) -> None:
        env._tracer = None

    def observe(self, now: float, event: Event) -> None:
        kind = type(event).__name__
        if isinstance(event, Process):
            name = event.name
        elif isinstance(event, Timeout):
            name = f"delay={event.delay:g}"
        else:
            name = repr(event.__class__.__name__)
        if len(self._records) == self.capacity:
            self.dropped += 1
        self._records.append(TraceRecord(now, kind, name))
        self.total_events += 1

    # ------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> list[TraceRecord]:
        return list(self._records)

    def between(self, t0: float, t1: float) -> Iterator[TraceRecord]:
        """Records with t0 <= time < t1 (within the retained window)."""
        for rec in self._records:
            if t0 <= rec.time < t1:
                yield rec

    def counts_by_kind(self) -> dict[str, int]:
        return dict(Counter(rec.kind for rec in self._records))

    def busiest(self, n: int = 10) -> list[tuple[str, int]]:
        """Most frequently firing event names (retained window)."""
        return Counter(
            f"{rec.kind}:{rec.name}" for rec in self._records
        ).most_common(n)

    def summary(self) -> str:
        lines = [
            f"traced {self.total_events} events "
            f"({self.dropped} dropped beyond the {self.capacity}-record window)"
        ]
        for kind, count in sorted(self.counts_by_kind().items()):
            lines.append(f"  {kind:<12} {count}")
        if self._records:
            lines.append(
                f"  window: t={self._records[0].time:.6f}"
                f" .. t={self._records[-1].time:.6f}"
            )
        return "\n".join(lines)
