"""Tests for the asyncio serving path (repro.serve.MappingServer).

:class:`~repro.serve.MappingServer` is driven here on the test's own
event loop through its ``start`` / ``stop`` coroutines, with blocking
clients offloaded by ``asyncio.to_thread`` — the path an embedding
asyncio application takes, as opposed to the
:class:`~repro.serve.ThreadedServer` wrapper the other serve tests use.

Pins the contracts the async front end keeps: replies to concurrent
clients are byte-identical to a direct sync ``map_batch``, alone and
over an attached :class:`~repro.api.pool.ExecutorPool` (spawned once),
and the ``max_in_flight`` driver bound is validated and reported.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict

import pytest

from repro.api import EngineConfig, ExecutorPool, MappingService
from repro.serve import (
    MappingServer,
    ServeClient,
    canonical_result,
    requests_from_entries,
    response_payload,
)

#: Small workload (~10 ms per algorithm); several seeds and algorithms
#: so one reply carries many results to compare.
ENTRY = {
    "matrix": "cage12_like",
    "algos": "UG,UWH,SFC",
    "procs": 16,
    "ppn": 2,
    "rows_per_unit": 40,
}


def _entries(seeds):
    return [{**ENTRY, "seed": s, "tag": f"s{s}"} for s in seeds]


def _sync_reference(entries):
    """Canonical results of *entries* through the sync service."""
    reqs = requests_from_entries(list(entries), {}, OrderedDict())
    responses = MappingService().map_batch(reqs, config=EngineConfig(on_error="partial"))
    return [canonical_result(response_payload(r)) for r in responses]


def _map(address, entries, tenant):
    with ServeClient(*address, tenant=tenant) as client:
        return client.map(entries, reply_timeout=120)


async def _serve_concurrently(server, batches):
    """Start *server*, map every batch from its own client at once, stop."""
    address = await server.start()
    try:
        return await asyncio.gather(
            *(
                asyncio.to_thread(_map, address, entries, f"c{i}")
                for i, entries in enumerate(batches)
            )
        )
    finally:
        await server.stop()


def _assert_matches_sync(batches, replies):
    assert len(replies) == len(batches)
    for entries, reply in zip(batches, replies):
        assert reply["ok"] is True
        assert all(r["ok"] for r in reply["results"])
        got = [canonical_result(r) for r in reply["results"]]
        assert got == _sync_reference(entries)


class TestAsyncParity:
    def test_map_batch_matches_sync(self):
        batches = [_entries([0, 1]), _entries([2]), _entries([3, 4])]
        # Two driver threads run serial batches on one service at once.
        server = MappingServer(backend="serial", max_in_flight=2)
        replies = asyncio.run(_serve_concurrently(server, batches))
        _assert_matches_sync(batches, replies)
        stats = server.stats_payload()
        assert stats["server"]["in_flight"] == 0
        assert stats["queue"]["pending"] == 0
        assert stats["counters"]["completed"] == len(batches)

    def test_pooled_async_parity(self):
        batches = [_entries([0, 1]), _entries([2, 3])]
        with ExecutorPool("process", workers=2) as pool:
            server = MappingServer(pool=pool, max_in_flight=2)
            replies = asyncio.run(_serve_concurrently(server, batches))
            # Every dispatch ran on the one attached executor.
            assert pool.spawn_count == 1
        _assert_matches_sync(batches, replies)


class TestInFlightBound:
    def test_constructor_validation(self):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="max_in_flight"):
                MappingServer(max_in_flight=bad)
        server = MappingServer(max_in_flight=3)
        assert server.max_in_flight == 3
        assert server.stats_payload()["server"]["max_in_flight"] == 3
        assert server.stats_payload()["server"]["in_flight"] == 0
