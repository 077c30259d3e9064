"""The shared ``to_dict`` of the stats dataclasses."""

from dataclasses import dataclass, fields

import pytest

from repro.core.chunk_store import ChunkStoreStats
from repro.core.client import ClientStats
from repro.core.dist_cache import CacheMasterStats, TaskCacheStats
from repro.core.server import ServerStats
from repro.core.shared_cache import SharedCacheStats
from repro.ft.hedge import HedgeStats
from repro.rpc.endpoint import RpcStats
from repro.util.counters import Counters

STATS = [
    RpcStats, HedgeStats, ChunkStoreStats, ClientStats, SharedCacheStats,
    CacheMasterStats, TaskCacheStats, ServerStats,
]


@pytest.mark.parametrize("cls", STATS, ids=lambda c: c.__name__)
def test_to_dict_lists_every_field_in_order(cls):
    stats = cls()
    for i, f in enumerate(fields(stats)):
        setattr(stats, f.name, i)
    assert cls.to_dict is Counters.to_dict
    assert stats.to_dict() == {f.name: i for i, f in enumerate(fields(stats))}


@pytest.mark.parametrize("cls", [c for c in STATS if c is not HedgeStats],
                         ids=lambda c: c.__name__)
def test_slotted_stats_stay_slotted(cls):
    with pytest.raises(AttributeError):
        cls().not_a_counter = 1


def test_plain_dataclass_subclass():
    @dataclass
    class Tally(Counters):
        a: int = 1
        b: float = 2.5

    assert Tally().to_dict() == {"a": 1, "b": 2.5}
