"""The shared base of the ``*Stats`` counter dataclasses."""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict


class Counters:
    """Gives a stats dataclass its ``to_dict`` (the bench-reporting seam).

    ``__slots__ = ()`` adds no instance storage, so subclasses declared
    with ``@dataclass(slots=True)`` stay slotted.
    """

    __slots__ = ()

    def to_dict(self) -> Dict[str, Any]:
        """All counters as ``{name: value}``, derived from the dataclass
        fields so a new counter can never silently drop out of rows."""
        return {f.name: getattr(self, f.name) for f in fields(self)}
