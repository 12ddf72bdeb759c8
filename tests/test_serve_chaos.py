"""Chaos under the network front end: worker kills mid-request.

Wires the deterministic :class:`~repro.api.fault.FaultInjector` token
harness *under a live TCP server*: a process-pool worker is killed
while serving a coalesced batch, and the failure must surface as a
structured ``crash`` error to exactly the client whose request was
poisoned — co-batched clients get their (byte-identical) results, the
pool self-heals, and the server keeps serving.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import pytest

from repro.api import (
    EngineConfig,
    ExecutorPool,
    FaultInjector,
    MappingService,
    RetryPolicy,
)
from repro.serve import (
    ServeClient,
    ThreadedServer,
    canonical_result,
    requests_from_entries,
    response_payload,
)

#: Same small workload the serve tests map; tags differ per client so
#: the injector can poison exactly one request of the coalesced batch.
ENTRY = {
    "matrix": "cage12_like",
    "algos": "UG",
    "procs": 16,
    "ppn": 2,
    "rows_per_unit": 40,
    "seed": 0,
}


@pytest.fixture
def injector(tmp_path):
    inj = FaultInjector(str(tmp_path / "faults"))
    with inj:
        yield inj
    inj.disarm()


def _reference(tag):
    reqs = requests_from_entries([{**ENTRY, "tag": tag}], {}, OrderedDict())
    return [
        canonical_result(response_payload(r))
        for r in MappingService().map_batch(reqs)
    ]


def _serve_two(ts, tags):
    """Barrier-start one client per tag; returns replies keyed by tag.

    Each client pings first: the reply proves the server counts its
    connection, so the coalescing window cannot close before every
    client's request has arrived.
    """
    replies = {}
    lock = threading.Lock()
    barrier = threading.Barrier(len(tags))

    def worker(tag):
        with ServeClient(*ts.address, tenant=tag, timeout=300.0) as client:
            assert client.ping()
            barrier.wait(timeout=60)
            r = client.map([{**ENTRY, "tag": tag}])
            with lock:
                replies[tag] = r

    threads = [threading.Thread(target=worker, args=(t,)) for t in tags]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return replies


class TestServerChaos:
    def test_poison_request_crashes_only_its_own_client(self, injector):
        """Worker killed repeatedly mid-request: the poisoned client gets
        a structured ``crash`` error, its co-batched neighbour completes
        byte-identically, and the server stays up."""
        injector.arm("kill-worker", "p0", count=5)
        with ExecutorPool("process", workers=2) as pool:
            with ThreadedServer(
                pool=pool,
                config=EngineConfig(retry=RetryPolicy(max_crashes=2)),
                coalesce_window=0.5,
                max_in_flight=1,
            ) as ts:
                replies = _serve_two(ts, ["p0", "ok"])
                with ServeClient(*ts.address, timeout=300.0) as client:
                    stats = client.stats()
                    # The server keeps serving after the chaos.
                    assert client.ping()
                    after = client.map([{**ENTRY, "tag": "again"}])

        # Both requests rode one coalesced dispatch...
        assert replies["p0"]["dispatch"] == replies["ok"]["dispatch"]
        # ...and only the poisoned one failed, with the engine's
        # structured crash error forwarded over the wire.
        poisoned = replies["p0"]["results"][0]
        assert replies["p0"]["ok"] is True  # transport ok, result failed
        assert poisoned["ok"] is False
        assert poisoned["error"]["kind"] == "crash"
        assert poisoned["error"]["attempts"] >= 2
        clean = [canonical_result(r) for r in replies["ok"]["results"]]
        assert all(r["ok"] for r in replies["ok"]["results"])
        assert clean == _reference("ok")
        assert after["ok"] and all(r["ok"] for r in after["results"])

        # The pool self-healed (respawns counted) and reports healthy.
        assert stats["pool"]["restarts"] >= 1
        assert stats["pool"]["healthy"] is True
        assert stats["counters"]["result_errors"] == 1
        # Quarantine, not infinite resubmission: tokens stay armed.
        assert injector.pending("kill-worker") > 0

    def test_transient_kill_heals_invisibly(self, injector):
        """A single worker kill is retried to success: no client ever
        sees it, results stay byte-identical, the pool respawns once."""
        injector.arm("kill-worker", "t0")
        with ExecutorPool("process", workers=2) as pool:
            with ThreadedServer(
                pool=pool,
                config=EngineConfig(retry=RetryPolicy(max_crashes=2)),
                coalesce_window=0.5,
                max_in_flight=1,
            ) as ts:
                replies = _serve_two(ts, ["t0", "ok"])
                with ServeClient(*ts.address, timeout=300.0) as client:
                    stats = client.stats()

        for tag in ("t0", "ok"):
            assert replies[tag]["ok"] is True
            assert all(r["ok"] for r in replies[tag]["results"])
            got = [canonical_result(r) for r in replies[tag]["results"]]
            assert got == _reference(tag)
        assert stats["pool"]["restarts"] == 1
        assert stats["pool"]["healthy"] is True
        assert stats["counters"]["result_errors"] == 0
