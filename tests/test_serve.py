"""Network serving front end: protocol, fairness, coalescing, SLOs.

Pins the contracts of :mod:`repro.serve`:

* the length-prefixed-JSON protocol round-trips frames and rejects
  malformed/oversized input with the one PlanError-shaped error object;
* ``requests_from_entries`` is the single parse/validate layer — the
  one-shot CLI and the network server reject identical garbage
  (including requests larger than the paper's largest experiment) with
  identical error dicts;
* :class:`FairQueue` implements weighted fair queuing: a flooding
  tenant cannot starve a quiet one, weights skew service proportionally,
  idle tenants earn no retroactive credit;
* the real-socket server (ephemeral port) answers happy-path requests
  **byte-identically** to a direct ``MappingService.map_batch`` call,
  coalesces N concurrent identical requests into exactly one dispatch
  with exactly one grouping-stage computation, closes the coalescing
  window once every open connection awaits a reply, sheds load with
  structured ``overloaded`` errors when the admission queue is full,
  expires queued deadlines without touching the engine, and propagates
  in-flight deadlines into per-node timeouts, and never runs more than
  ``max_in_flight`` plans at once;
* random frames on a live server get a structured error or a clean
  drop, and leave no connection, ticket or thread behind;
* the ``serve`` / ``stats`` CLI subcommands drive a real server.
"""

from __future__ import annotations

import functools
import json
import os
import socket
import struct
import threading
import time
from collections import OrderedDict
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    ArtifactCache,
    CacheStats,
    DiskArtifactStore,
    EngineConfig,
    MappingService,
)
from repro.api.fault import PlanError, RetryPolicy
from repro.api.registry import register_mapper, unregister_mapper
from repro.api.stages import PLACEMENT_STAGES
from repro.serve import (
    FairQueue,
    LatencyHistogram,
    MappingServer,
    ProtocolError,
    RollingWindow,
    ServeClient,
    ThreadedServer,
    canonical_result,
    error_payload,
    parse_address,
    requests_from_entries,
    response_payload,
)
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    encode_frame,
    recv_frame,
    send_frame,
)

#: Small, fast workload every server test maps (~10 ms end to end).
ENTRY = {
    "matrix": "cage12_like",
    "algos": "UG",
    "procs": 16,
    "ppn": 2,
    "rows_per_unit": 40,
    "seed": 0,
}


class _QueueItem:
    """Minimal stand-in for a _Ticket in FairQueue unit tests."""

    def __init__(self, tenant, cost=1):
        self.tenant = tenant
        self.cost = cost


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class TestLatencyHistogram:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram(min_s=0.0)
        with pytest.raises(ValueError):
            LatencyHistogram(min_s=2.0, max_s=1.0)
        with pytest.raises(ValueError):
            LatencyHistogram(buckets_per_decade=0)

    def test_empty_summary(self):
        assert LatencyHistogram().summary() == {"count": 0}

    def test_percentiles_bounded_by_observed_extremes(self):
        h = LatencyHistogram()
        for s in (0.010, 0.020, 0.030, 0.040):
            h.observe(s)
        assert h.count == 4
        assert 0.010 <= h.percentile(0.5) <= 0.040
        assert h.percentile(1.0) == pytest.approx(0.040)
        s = h.summary()
        assert s["count"] == 4
        assert s["mean_ms"] == pytest.approx(25.0)
        assert s["max_ms"] == pytest.approx(40.0)
        assert s["p50_ms"] <= s["p95_ms"] <= s["p99_ms"] <= s["max_ms"]

    def test_out_of_range_observations_clamp(self):
        h = LatencyHistogram(min_s=1e-3, max_s=1.0)
        h.observe(-5.0)  # clamps to 0, lands in first bucket
        h.observe(50.0)  # overflow bucket
        assert h.count == 2
        assert h.percentile(1.0) == pytest.approx(50.0)


class TestRollingWindow:
    def test_rate_decays_with_the_clock(self):
        now = [0.0]
        w = RollingWindow(window_s=10.0, clock=lambda: now[0])
        for _ in range(5):
            w.observe()
        assert w.count() == 5
        assert w.rate() == pytest.approx(0.5)
        now[0] = 11.0  # everything aged out
        assert w.count() == 0
        with pytest.raises(ValueError):
            RollingWindow(window_s=0)


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------


class TestFraming:
    def test_sync_round_trip(self):
        a, b = socket.socketpair()
        try:
            payload = {"op": "map", "entries": [dict(ENTRY)], "id": 7}
            send_frame(a, payload)
            assert recv_frame(b) == payload
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(encode_frame({"x": 1})[:3])  # truncated header
            a.close()
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_announcement_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_json_body_rejected(self):
        a, b = socket.socketpair()
        try:
            body = b"\xff\xfenot json"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            a.close()
            b.close()


class TestErrorShape:
    def test_matches_plan_error_dict(self):
        plan = PlanError(kind="timeout", message="m", node="n").as_dict()
        proto = ProtocolError("m", kind="timeout", node="n").as_dict()
        assert set(plan) == set(proto)
        assert proto["kind"] == "timeout"
        assert error_payload("overloaded", "full")["kind"] == "overloaded"
        assert set(error_payload("x", "y")) == set(plan)


#: Arbitrary JSON values for the manifest-entry fields: the malformed
#: shapes a client can send, plus a few valid ones so that some entries
#: parse all the way to requests.
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([0, -1, 10**30, 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.sampled_from(["cage12_like", "UG", "UG,UWH", "PATOH", "16", 2, 16]),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)
_ENTRY_FIELDS = (
    "matrix",
    "algos",
    "procs",
    "ppn",
    "rows_per_unit",
    "partitioner",
    "seed",
    "delta",
    "fragmentation",
    "tag",
)
_ENTRIES = st.fixed_dictionaries({}, optional={f: _JSON_VALUES for f in _ENTRY_FIELDS})


@functools.lru_cache(maxsize=None)
def _stub_workload(*key):
    """A tiny fixed (task graph, machine) pair standing in for the build."""
    from repro.graph.task_graph import TaskGraph
    from repro.topology.allocation import AllocationSpec, SparseAllocator
    from repro.topology.torus import Torus3D

    machine = SparseAllocator(Torus3D((2, 2, 2))).allocate(
        AllocationSpec(num_nodes=4, procs_per_node=1, fragmentation=0.0, seed=0)
    )
    return TaskGraph.from_edges(4, [0, 1, 2], [1, 2, 3], [1.0, 1.0, 1.0]), machine


class TestParseLayer:
    @pytest.mark.parametrize(
        "entries",
        [
            [],
            "nope",
            [42],
            [{"algos": "UG"}],  # no matrix
            [{"matrix": "no-such-matrix"}],
            [{"matrix": "cage12_like", "algos": "NOPE"}],
            [{"matrix": "cage12_like", "algos": []}],
            [{"matrix": "cage12_like", "algos": 7}],
            [{"matrix": "cage12_like", "procs": "many"}],
            [{"matrix": "cage12_like", "procs": 7, "ppn": 2}],  # not divisible
            # Mistyped or out-of-range fields that used to escape as
            # ZeroDivisionError, TypeError, AttributeError or OverflowError.
            [{**ENTRY, "ppn": 0}],
            [{**ENTRY, "matrix": ["x"]}],
            [{**ENTRY, "partitioner": ["P"]}],
            [{**ENTRY, "algos": [5]}],
            [{**ENTRY, "procs": 1e400}],
            [{**ENTRY, "delta": 1e400}],
            # Larger than the paper's largest experiment (16,384 ranks,
            # 40,000 rows per unit): refused before the matrix is built.
            [{**ENTRY, "procs": 1048576}],
            [{**ENTRY, "rows_per_unit": 40001}],
            # Below one row per unit: refused, not mapped on a 64-row matrix.
            [{**ENTRY, "rows_per_unit": 0}],
            [{**ENTRY, "rows_per_unit": -5}],
            # More nodes than the paper's largest allocation (16,384 / 16):
            # refused before any |Va|^2 hop matrix is built.
            [{**ENTRY, "procs": 16384, "ppn": 1}],
        ],
    )
    def test_all_malformed_inputs_raise_protocol_error(self, entries):
        with pytest.raises(ProtocolError) as info:
            requests_from_entries(entries, {}, OrderedDict())
        # Every rejection serializes to the one error shape.
        d = info.value.as_dict()
        assert d["kind"] == "bad_request"
        assert d["message"]

    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.one_of(st.lists(_ENTRIES, min_size=1, max_size=3), _JSON_VALUES),
        defaults=st.one_of(_ENTRIES, _JSON_VALUES),
    )
    def test_arbitrary_json_fields_parse_or_raise_protocol_error(self, entries, defaults):
        """Whatever JSON a client sends, the parse layer returns requests
        or raises :class:`ProtocolError` — never any other exception."""
        with mock.patch("repro.serve.protocol.build_workload", _stub_workload):
            try:
                requests = requests_from_entries(entries, defaults, OrderedDict())
            except ProtocolError as exc:
                assert exc.as_dict()["kind"] == "bad_request"
            else:
                assert len(requests) == len(entries)

    def test_any_workload_build_failure_is_a_protocol_error(self, monkeypatch):
        """``"procs": 2**40`` makes the real build raise MemoryError."""
        import repro.serve.protocol as protocol

        def out_of_memory(*key):
            raise MemoryError("Unable to allocate 8.00 TiB")

        monkeypatch.setattr(protocol, "build_workload", out_of_memory)
        with pytest.raises(ProtocolError) as info:
            requests_from_entries([dict(ENTRY)], {}, OrderedDict())
        assert info.value.as_dict()["exception"] == "MemoryError"

    @pytest.mark.parametrize("delta", [0, -1, "-5"])
    def test_nonpositive_delta_is_a_protocol_error(self, delta):
        with pytest.raises(ProtocolError, match="delta") as info:
            requests_from_entries([{**ENTRY, "delta": delta}], {}, OrderedDict())
        assert info.value.as_dict()["kind"] == "bad_request"
        with pytest.raises(ProtocolError, match="delta"):
            requests_from_entries([dict(ENTRY)], {"delta": delta}, OrderedDict())

    def test_defaults_layering_and_workload_reuse(self):
        workloads = OrderedDict()
        reqs = requests_from_entries(
            [dict(ENTRY), {**ENTRY, "tag": "x"}],
            {"delta": 4},
            workloads,
        )
        assert len(reqs) == 2
        assert len(workloads) == 1  # identical workload built once
        assert reqs[0].delta == 4 and reqs[1].delta == 4
        assert reqs[0].tag == 0 and reqs[1].tag == "x"
        assert reqs[0].task_graph is reqs[1].task_graph

    def test_canonical_result_drops_timing_only(self):
        service = MappingService()
        reqs = requests_from_entries([dict(ENTRY)], {}, OrderedDict())
        payload = response_payload(service.map_batch(reqs)[0])
        canon = canonical_result(payload)
        assert "map_time_s" not in canon and "prep_time_s" not in canon
        assert canon["metrics"] == payload["metrics"]
        assert canon["mapping_fp"] == payload["mapping_fp"]
        assert isinstance(payload["mapping_fp"], int)


class TestParseAddress:
    def test_round_trip(self):
        assert parse_address("127.0.0.1:8765") == ("127.0.0.1", 8765)

    @pytest.mark.parametrize("bad", ["nohost", ":1", "h:", "h:x", "h:70000", "h:-1"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)


# ---------------------------------------------------------------------------
# weighted fair queuing
# ---------------------------------------------------------------------------


class TestFairQueue:
    def test_validation(self):
        with pytest.raises(ValueError):
            FairQueue(default_weight=0)
        with pytest.raises(ValueError):
            FairQueue({"a": -1.0})

    def test_flooding_tenant_cannot_starve_quiet_one(self):
        q = FairQueue()
        for _ in range(50):
            q.push(_QueueItem("flood"))
        q.push(_QueueItem("quiet"))
        order = [q.pop().tenant for _ in range(len(q))]
        # The quiet tenant is served second, not fifty-first.
        assert order.index("quiet") == 1
        assert len(order) == 51

    def test_weights_skew_service_proportionally(self):
        q = FairQueue({"gold": 3.0, "bronze": 1.0})
        for _ in range(12):
            q.push(_QueueItem("gold"))
            q.push(_QueueItem("bronze"))
        first8 = [q.pop().tenant for _ in range(8)]
        # 3:1 weights -> ~3 gold per bronze in any prefix.
        assert first8.count("gold") == 6
        assert first8.count("bronze") == 2

    def test_idle_tenant_earns_no_retroactive_credit(self):
        q = FairQueue()
        for _ in range(10):
            q.push(_QueueItem("busy"))
        drained = [q.pop().tenant for _ in range(10)]
        assert drained == ["busy"] * 10
        # "sleeper" was idle the whole time; it re-enters at the current
        # virtual time and must interleave, not pre-empt everything.
        for _ in range(3):
            q.push(_QueueItem("busy"))
            q.push(_QueueItem("sleeper"))
        order = [q.pop().tenant for _ in range(6)]
        assert order[:2] in (["busy", "sleeper"], ["sleeper", "busy"])

    def test_cost_advances_virtual_time(self):
        q = FairQueue()
        q.push(_QueueItem("big", cost=10))
        q.push(_QueueItem("big", cost=10))
        q.push(_QueueItem("small", cost=1))
        q.push(_QueueItem("small", cost=1))
        first = q.pop()  # tie -> "big" by name
        assert first.tenant == "big"
        # big burned 10 units of vtime; both smalls go before big again.
        assert [q.pop().tenant for _ in range(3)] == ["small", "small", "big"]

    def test_depths_and_empty_pop(self):
        q = FairQueue()
        assert q.depths() == {}
        with pytest.raises(IndexError):
            q.pop()
        q.push(_QueueItem("t"))
        assert q.depths() == {"t": 1}


# ---------------------------------------------------------------------------
# real-socket integration
# ---------------------------------------------------------------------------


def _direct_reference(entries, defaults=None):
    """Canonical results of the same entries through the sync service."""
    reqs = requests_from_entries(list(entries), defaults or {}, OrderedDict())
    responses = MappingService().map_batch(reqs, config=EngineConfig(on_error="partial"))
    return [canonical_result(response_payload(r)) for r in responses]


def _registered_client(ts, **kwargs):
    """A connected :class:`ServeClient` the server already counts.

    A TCP connect can return before the server runs the connection's
    handler.  The handler registers its connection before the first
    read, so a ping reply proves the server counts it: a test that
    expects one coalesced dispatch must not start requests before every
    client is counted, or the window may close without the latecomer.
    """
    client = ServeClient(*ts.address, **kwargs).connect()
    assert client.ping()
    return client


class TestServerIntegration:
    def test_happy_path_is_byte_identical_to_direct_service(self):
        with ThreadedServer(backend="process", workers=2) as ts:
            with ServeClient(*ts.address, tenant="t0") as client:
                assert client.ping()
                reply = client.map([dict(ENTRY)])
        assert reply["ok"] is True
        assert reply["coalesced"] == 1
        assert reply["dispatch"] == 1
        got = [canonical_result(r) for r in reply["results"]]
        assert got == _direct_reference([dict(ENTRY)])
        # The fingerprint is the wire-level mapping identity.
        assert got[0]["mapping_fp"] == _direct_reference([dict(ENTRY)])[0]["mapping_fp"]

    def test_coalescing_folds_identical_requests_into_one_computation(self):
        """The ISSUE's acceptance criterion: N concurrent identical
        requests -> one dispatch, one grouping-stage execution, all
        responses byte-identical."""
        n = 5
        replies = [None] * n
        with ThreadedServer(
            backend="serial",
            coalesce_window=0.4,
            max_batch=16,
            max_in_flight=1,
        ) as ts:
            barrier = threading.Barrier(n)

            def worker(i):
                with _registered_client(ts, tenant=f"c{i}") as client:
                    barrier.wait(timeout=30)
                    replies[i] = client.map([dict(ENTRY)])

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with ServeClient(*ts.address) as client:
                stats = client.stats()

        assert all(r["ok"] for r in replies)
        # Exactly one engine dispatch folded the burst...
        assert stats["counters"]["dispatches"] == 1
        assert stats["coalesce"]["coalesced_requests"] == n
        assert [r["coalesced"] for r in replies] == [n] * n
        # ...and the planner computed the shared grouping exactly once.
        assert stats["cache"]["grouping"]["misses"] == 1
        assert stats["cache"]["grouping"]["hits"] >= n - 1
        # All five clients got byte-identical mappings.
        canons = [[canonical_result(r) for r in reply["results"]] for reply in replies]
        assert all(c == canons[0] for c in canons)
        assert canons[0] == _direct_reference([dict(ENTRY)])

    def test_load_shed_when_queue_full(self):
        n = 10
        replies = [None] * n
        with ThreadedServer(
            backend="serial",
            max_pending=2,
            coalesce_window=0.2,
            max_batch=1,
            max_in_flight=1,
        ) as ts:
            barrier = threading.Barrier(n)

            def worker(i):
                with _registered_client(ts, tenant=f"c{i}") as client:
                    barrier.wait(timeout=30)
                    replies[i] = client.map([dict(ENTRY)])

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with ServeClient(*ts.address) as client:
                stats = client.stats()

        shed = [r for r in replies if not r["ok"]]
        served = [r for r in replies if r["ok"]]
        assert served, "someone must be answered"
        assert shed, "admission control must shed past max_pending"
        for r in shed:
            assert r["error"]["kind"] == "overloaded"
            assert "queue_depth" in r
            assert set(r["error"]) == set(error_payload("x", "y"))
        assert stats["counters"]["shed"] == len(shed)
        assert stats["counters"]["completed"] == len(served)

    def test_shed_reply_does_not_wait_for_the_running_batch(self):
        """Admission control answers "no" while a dispatched batch is
        still blocked: a shed reply never waits on execution."""
        started, release = threading.Event(), threading.Event()

        @register_mapper("HELDSRV", description="blocks until released")
        def held(ctx):
            started.set()
            assert release.wait(timeout=60), "held batch was never released"
            return PLACEMENT_STAGES["greedy"](ctx)

        held_reply = []
        try:
            with ThreadedServer(
                backend="serial",
                max_pending=1,
                coalesce_window=0.0,
                max_in_flight=1,
            ) as ts:

                def send_held():
                    with ServeClient(*ts.address, tenant="held", timeout=60) as client:
                        held_reply.append(client.map([{**ENTRY, "algos": "HELDSRV"}]))

                holder = threading.Thread(target=send_held)
                holder.start()
                assert started.wait(timeout=30), "held batch never started"
                overflow = []
                for i in range(3):
                    with ServeClient(*ts.address, tenant=f"o{i}", timeout=30) as client:
                        overflow.append(client.map([dict(ENTRY)]))
                # Every overflow reply arrived while the batch was held.
                assert not release.is_set() and holder.is_alive()
                assert not held_reply
                release.set()
                holder.join(timeout=60)
                with ServeClient(*ts.address) as client:
                    stats = client.stats()
        finally:
            release.set()
            unregister_mapper("HELDSRV")
        assert [r["error"]["kind"] for r in overflow] == ["overloaded"] * 3
        assert held_reply and held_reply[0]["ok"] is True
        assert held_reply[0]["results"][0]["ok"] is True
        assert stats["counters"]["shed"] == 3
        assert stats["counters"]["completed"] == 1

    def test_queued_deadline_expires_without_execution(self):
        with ThreadedServer(
            backend="serial",
            coalesce_window=0.3,
            max_in_flight=1,
        ) as ts:
            with _registered_client(ts), ServeClient(*ts.address) as client:
                # The idle connection holds the window open, which
                # guarantees >= 0.3 s of queueing; a 1 ms deadline must
                # expire there.
                reply = client.map([dict(ENTRY)], deadline_s=0.001)
                stats = client.stats()
        assert reply["ok"] is False
        assert reply["error"]["kind"] == "timeout"
        assert "expired" in reply["error"]["message"]
        assert stats["counters"]["deadline_expired"] == 1
        # Never dispatched: the engine was not touched for this ticket.
        assert stats["counters"]["dispatches"] == 0

    def test_deadline_mid_plan_becomes_node_timeout(self):
        @register_mapper("SLEEPYSRV", description="sleeps, then places greedily")
        def sleepy(ctx):
            time.sleep(5.0)
            return PLACEMENT_STAGES["greedy"](ctx)  # pragma: no cover

        entry = {**ENTRY, "algos": "SLEEPYSRV"}
        try:
            with ThreadedServer(
                backend="process", workers=2, coalesce_window=0.0
            ) as ts:
                with ServeClient(*ts.address) as client:
                    t0 = time.perf_counter()
                    reply = client.map([entry], deadline_s=0.5)
                    elapsed = time.perf_counter() - t0
        finally:
            unregister_mapper("SLEEPYSRV")
        # The request was dispatched, its deadline became the engine's
        # per-node timeout, and the reply came back as a structured
        # per-result timeout long before the 5 s sleep finished.
        assert reply["ok"] is True
        assert reply["results"][0]["ok"] is False
        assert reply["results"][0]["error"]["kind"] == "timeout"
        assert elapsed < 4.0

    def test_tenant_fairness_under_skewed_load(self):
        flood_n = 6
        replies = {}
        lock = threading.Lock()
        with ThreadedServer(
            backend="serial",
            coalesce_window=0.4,
            max_batch=2,
            max_in_flight=1,
        ) as ts:
            barrier = threading.Barrier(flood_n + 1)

            def worker(tenant, key):
                with _registered_client(ts, tenant=tenant) as client:
                    barrier.wait(timeout=30)
                    r = client.map([dict(ENTRY)])
                    with lock:
                        replies[key] = r

            threads = [
                threading.Thread(target=worker, args=("alpha", f"a{i}"))
                for i in range(flood_n)
            ] + [threading.Thread(target=worker, args=("beta", "b0"))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert all(r["ok"] for r in replies.values())
        beta_dispatch = replies["b0"]["dispatch"]
        alpha_dispatches = sorted(replies[f"a{i}"]["dispatch"] for i in range(flood_n))
        # WFQ: the quiet tenant rides the first batches; the flood's
        # tail waits behind its own virtual time.
        assert beta_dispatch <= 2
        assert alpha_dispatches[-1] >= 3
        assert beta_dispatch < alpha_dispatches[-1]

    def test_bad_requests_and_unknown_ops_are_structured(self):
        with ThreadedServer(backend="serial") as ts:
            with ServeClient(*ts.address) as client:
                r1 = client.map([{"matrix": "no-such-matrix"}])
                r2 = client.request({"op": "frobnicate"})
                r3 = client.request({"op": "map", "entries": []})
                stats = client.stats()
        for r in (r1, r2, r3):
            assert r["ok"] is False
            assert set(r["error"]) == set(error_payload("x", "y"))
        assert r1["error"]["kind"] == "bad_request"
        assert "unknown matrix" in r1["error"]["message"]
        assert r2["error"]["kind"] == "bad_request"
        assert r3["error"]["kind"] == "bad_request"
        assert stats["counters"]["bad_request"] == 3

    def test_nonpositive_delta_frame_is_a_bad_request(self):
        with ThreadedServer(backend="serial") as ts:
            with ServeClient(*ts.address) as client:
                bad = client.map([{**ENTRY, "algos": "UMC", "delta": 0}])
                good = client.map([{**ENTRY, "algos": "UMC"}])
                stats = client.stats()
        assert bad["ok"] is False
        assert bad["error"]["kind"] == "bad_request"
        assert "delta" in bad["error"]["message"]
        assert good["ok"] is True
        assert all(r["ok"] for r in good["results"])
        assert stats["counters"]["bad_request"] == 1

    def test_malformed_entry_does_not_stop_the_dispatcher(self):
        with ThreadedServer(backend="serial") as ts:
            with ServeClient(*ts.address) as client:
                bad = client.map([{**ENTRY, "ppn": 0}], reply_timeout=10)
                good = client.map([dict(ENTRY)], reply_timeout=10)
                stats = client.stats()
            assert not ts.server._dispatcher_task.done()
        assert bad["ok"] is False
        assert bad["error"]["kind"] == "bad_request"
        assert good["ok"] is True
        assert all(r["ok"] for r in good["results"])
        assert stats["counters"]["bad_request"] == 1

    def test_oversized_reply_is_answered_and_dispatch_continues(self, monkeypatch):
        import repro.serve.protocol as protocol

        # The tag fits the request frame, but the reply echoes it once
        # per algorithm and does not fit a reply frame.
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)
        big_tag = {**ENTRY, "algos": "UG,UWH", "tag": "t" * 2500}
        with ThreadedServer(backend="serial") as ts:
            with ServeClient(*ts.address) as client:
                big = client.map([big_tag], reply_timeout=10)
                good = client.map([dict(ENTRY)], reply_timeout=10)
        assert big["ok"] is False
        assert "exceeds" in big["error"]["message"]
        assert good["ok"] is True

    def test_unexpected_build_error_fails_only_its_ticket(self, monkeypatch):
        import repro.serve.server as server_module

        real = server_module.requests_from_entries

        def flaky(entries, defaults, workloads):
            if entries[0].get("tag") == "boom":
                raise ZeroDivisionError("boom")
            return real(entries, defaults, workloads)

        monkeypatch.setattr(server_module, "requests_from_entries", flaky)
        with ThreadedServer(backend="serial") as ts:
            with ServeClient(*ts.address) as client:
                bad = client.map([{**ENTRY, "tag": "boom"}], reply_timeout=10)
                good = client.map([dict(ENTRY)], reply_timeout=10)
        assert bad["ok"] is False
        assert bad["error"]["kind"] == "bad_request"
        assert bad["error"]["exception"] == "ZeroDivisionError"
        assert good["ok"] is True

    def test_garbage_bytes_reject_and_close_connection(self):
        with ThreadedServer(backend="serial") as ts:
            sock = socket.create_connection(ts.address, timeout=10)
            try:
                sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 5))
                reply = recv_frame(sock)
                assert reply["ok"] is False
                assert reply["id"] is None
                assert reply["error"]["kind"] == "bad_request"
                # The server dropped the unusable connection.
                assert recv_frame(sock) is None
            finally:
                sock.close()

    def test_non_object_frames_are_answered_and_keep_the_connection(self):
        # A JSON ``null`` body is a frame, not the end of the stream.
        with ThreadedServer(backend="serial") as ts:
            sock = socket.create_connection(ts.address, timeout=10)
            try:
                for body in (None, [1], 3, "map"):
                    send_frame(sock, body)
                    reply = recv_frame(sock)
                    assert reply["ok"] is False
                    assert reply["error"]["kind"] == "bad_request"
                send_frame(sock, {"op": "ping"})
                assert recv_frame(sock)["pong"] is True
            finally:
                sock.close()

    def test_shutdown_op_drains_and_stops(self):
        ts = ThreadedServer(backend="serial")
        ts.start()
        try:
            with ServeClient(*ts.address) as client:
                reply = client.map([dict(ENTRY)])
                assert reply["ok"]
                assert client.shutdown().get("stopping") is True
            # The loop thread exits on its own after the shutdown op.
            ts._thread.join(timeout=30)
            assert not ts._thread.is_alive()
            with pytest.raises(OSError):
                socket.create_connection(ts.address, timeout=2)
        finally:
            ts.stop()

    def test_requests_during_drain_get_shutdown_errors(self):
        with ThreadedServer(backend="serial") as ts:
            server = ts.server
            with ServeClient(*ts.address) as client:
                assert client.map([dict(ENTRY)])["ok"]
                server._stopping = True  # simulate drain window
                reply = client.map([dict(ENTRY)])
                server._stopping = False
        assert reply["ok"] is False
        assert reply["error"]["kind"] == "shutdown"

    def test_stats_payload_shape(self):
        with ThreadedServer(backend="serial") as ts:
            with ServeClient(*ts.address) as client:
                client.map([dict(ENTRY)])
                stats = client.stats()
        assert stats["server"]["listening"] == list(ts.address)
        assert stats["queue"]["pending"] == 0
        assert stats["counters"]["accepted"] == 1
        assert stats["latency"]["map"]["count"] == 1
        assert stats["latency"]["map"]["p50_ms"] <= stats["latency"]["map"]["p99_ms"]
        assert stats["server"]["max_in_flight"] == 2
        assert stats["server"]["in_flight"] == 0
        assert stats["server"]["connections"] == 1  # the asking client
        # The lone client waited for its reply: the window closed at once.
        assert stats["coalesce"]["closed_early"] == 1
        assert stats["pool"] is None  # no ExecutorPool in this config
        assert "grouping" in stats["cache"]

    def test_stats_report_failed_store_writes(self, tmp_path, monkeypatch):
        """Every cache namespace carries ``store_errors``; a store whose
        writes fail shows them instead of looking healthy."""
        store = DiskArtifactStore(str(tmp_path / "store"))

        def failing_save(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(store, "save", failing_save)
        with ThreadedServer(backend="serial", cache=ArtifactCache(store=store)) as ts:
            with ServeClient(*ts.address) as client:
                assert client.map([dict(ENTRY)])["ok"]
                stats = client.stats()
        for ns, block in stats["cache"].items():
            assert set(block) == set(CacheStats().as_dict()), ns
        assert stats["cache"]["grouping"]["store_errors"] >= 1

    def test_driver_threads_bound_concurrent_plans(self):
        """max_in_flight=1: concurrent clients' plans never overlap, and
        ``in_flight`` is back to 0 once every reply is out."""
        n = 4
        lock = threading.Lock()
        running, peak = [0], [0]
        replies = [None] * n
        with ThreadedServer(
            backend="serial", max_in_flight=1, coalesce_window=0, max_batch=1
        ) as ts:
            service = ts.server.service
            original = service.map_batch

            def sleeping(requests, *, config=None):
                with lock:
                    running[0] += 1
                    peak[0] = max(peak[0], running[0])
                try:
                    time.sleep(0.1)
                    return original(requests, config=config)
                finally:
                    with lock:
                        running[0] -= 1

            service.map_batch = sleeping
            barrier = threading.Barrier(n)

            def worker(i):
                with ServeClient(*ts.address, tenant=f"c{i}") as client:
                    barrier.wait(timeout=30)
                    replies[i] = client.map([dict(ENTRY)], reply_timeout=60)

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with ServeClient(*ts.address) as client:
                stats = client.stats()
        assert all(r["ok"] for r in replies)
        assert stats["counters"]["dispatches"] == n
        assert peak[0] == 1
        assert stats["server"]["in_flight"] == 0


class TestDispatchConfig:
    """Every dispatched batch runs with ``replace(service.config, ...)``:
    the config's retry as is, its node_timeout tightened by the tickets'
    deadlines; whatever a dispatch raises, every ticket is answered."""

    @staticmethod
    def _spy(ts, fail=False):
        configs = []
        service = ts.server.service
        original = service.map_batch

        def spy(requests, *, config=None):
            configs.append(config)
            if fail:
                raise ValueError("dispatch blew up")
            return original(requests, config=config)

        service.map_batch = spy
        return configs

    def test_service_config_shapes_every_dispatch(self):
        retry = RetryPolicy(max_attempts=2)
        config = EngineConfig(retry=retry, node_timeout=30.0)
        with ThreadedServer(backend="process", workers=2, config=config) as ts:
            configs = self._spy(ts)
            with ServeClient(*ts.address) as client:
                assert client.map([dict(ENTRY)])["ok"]
                assert client.map([dict(ENTRY)], deadline_s=10.0)["ok"]
        plain, tight = configs
        assert plain.retry is retry and tight.retry is retry
        assert plain.on_error == tight.on_error == "partial"
        assert plain.node_timeout == 30.0
        assert 0 < tight.node_timeout <= 10.0
        assert plain.backend == tight.backend == "process"
        assert plain.workers == tight.workers == 2

    @pytest.mark.parametrize(
        "deadline",
        [float("nan"), "nan", float("inf"), "-inf", pytest.param(10**400, id="int-1e400")],
    )
    def test_non_finite_deadline_is_a_bad_request(self, deadline):
        replies = {}
        with ThreadedServer(backend="serial", coalesce_window=0.3) as ts:

            def send(tag, frame):
                with ServeClient(*ts.address) as client:
                    replies[tag] = client.request(frame, reply_timeout=30)

            threads = [
                threading.Thread(
                    target=send,
                    args=(
                        "bad",
                        {"op": "map", "entries": [dict(ENTRY)], "deadline_s": deadline},
                    ),
                ),
                threading.Thread(
                    target=send, args=("good", {"op": "map", "entries": [dict(ENTRY)]})
                ),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with ServeClient(*ts.address) as client:
                stats = client.stats()
        assert replies["bad"]["ok"] is False
        assert replies["bad"]["error"]["kind"] == "bad_request"
        assert "finite" in replies["bad"]["error"]["message"]
        assert replies["good"]["ok"] is True
        assert all(r["ok"] for r in replies["good"]["results"])
        assert stats["queue"]["pending"] == 0
        assert stats["counters"]["bad_request"] == 1

    def test_failed_dispatch_answers_every_coalesced_ticket(self):
        n = 2
        replies = [None] * n
        with ThreadedServer(backend="serial", coalesce_window=0.4) as ts:
            self._spy(ts, fail=True)
            barrier = threading.Barrier(n)

            def worker(i):
                with _registered_client(ts, tenant=f"c{i}") as client:
                    barrier.wait(timeout=30)
                    replies[i] = client.map([dict(ENTRY)], reply_timeout=30)

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with ServeClient(*ts.address) as client:
                stats = client.stats()
                assert client.ping()
        assert stats["counters"]["dispatches"] == 1
        for reply in replies:
            assert reply["ok"] is False
            assert reply["error"]["kind"] == "error"
            assert reply["error"]["exception"] == "ValueError"
        assert stats["queue"]["pending"] == 0
        assert stats["counters"]["completed"] == n


class TestCoalescingWindow:
    """The window lasts at most ``coalesce_window`` and ends once every
    open connection has an unanswered ``map``: such a client sends
    nothing more, so waiting on could only add latency."""

    def test_window_closes_once_every_connection_waits(self):
        n, window = 4, 5.0
        replies, elapsed = [None] * n, [None] * n
        with ThreadedServer(
            backend="serial", coalesce_window=window, max_batch=16, max_in_flight=1
        ) as ts:
            barrier = threading.Barrier(n)

            def worker(i):
                with _registered_client(ts, tenant=f"c{i}") as client:
                    barrier.wait(timeout=30)
                    t0 = time.perf_counter()
                    replies[i] = client.map([dict(ENTRY)], reply_timeout=60)
                    elapsed[i] = time.perf_counter() - t0

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            with ServeClient(*ts.address) as client:
                stats = client.stats()
        assert all(r["ok"] for r in replies)
        # One dispatch folded every client, without waiting the window out.
        assert stats["counters"]["dispatches"] == 1
        assert [r["coalesced"] for r in replies] == [n] * n
        assert stats["coalesce"]["closed_early"] == 1
        assert max(elapsed) < window / 2

    def test_idle_connection_holds_the_window(self):
        window = 0.3
        with ThreadedServer(backend="serial", coalesce_window=window) as ts:
            with _registered_client(ts) as idle, ServeClient(*ts.address) as client:
                t0 = time.perf_counter()
                reply = client.map([dict(ENTRY)])
                elapsed = time.perf_counter() - t0
                stats = idle.stats()
        assert reply["ok"] is True
        assert elapsed >= window
        assert stats["server"]["connections"] == 2
        assert stats["coalesce"]["closed_early"] == 0

    def test_closing_the_idle_connection_ends_the_window(self):
        window = 5.0
        box = []
        with ThreadedServer(backend="serial", coalesce_window=window) as ts:
            with _registered_client(ts) as client:
                idle = _registered_client(ts)
                try:

                    def send():
                        t0 = time.perf_counter()
                        box.append(client.map([dict(ENTRY)], reply_timeout=60))
                        box.append(time.perf_counter() - t0)

                    sender = threading.Thread(target=send)
                    sender.start()
                    # stats is not a map: the idle connection stays idle.
                    while idle.stats()["queue"]["depth"] == 0:
                        time.sleep(0.01)
                    assert not box  # the window holds the request
                finally:
                    idle.close()
                sender.join(timeout=60)
                assert not sender.is_alive()
                stats = client.stats()
        reply, elapsed = box
        assert reply["ok"] is True
        assert elapsed < window / 2
        assert stats["coalesce"]["closed_early"] == 1

    def test_refused_requests_leave_their_connection_idle(self):
        """A ``bad_request`` or shed reply answers a request that was
        never admitted, and a ``bad_request`` from a ticket's entries
        answers an admitted one: after each the connection is idle, so
        it holds the next window open."""
        window = 0.3
        held = []
        with ThreadedServer(
            backend="serial", coalesce_window=window, max_pending=1
        ) as ts:
            with _registered_client(ts) as a, _registered_client(ts) as b:
                assert a.map([])["error"]["kind"] == "bad_request"  # refused
                bad = a.map([{**ENTRY, "ppn": 0}])  # admitted, then refused
                assert bad["error"]["kind"] == "bad_request"

                def send():
                    t0 = time.perf_counter()
                    held.append(b.map([dict(ENTRY)], reply_timeout=60))
                    held.append(time.perf_counter() - t0)

                sender = threading.Thread(target=send)
                sender.start()
                while a.stats()["queue"]["pending"] == 0:
                    time.sleep(0.01)
                shed = a.map([dict(ENTRY)])
                sender.join(timeout=60)
                assert not sender.is_alive()
                stats = a.stats()
        assert shed["error"]["kind"] == "overloaded"
        reply, elapsed = held
        assert reply["ok"] is True
        # a was idle throughout, so b's request waited the whole window.
        assert elapsed >= window
        assert stats["coalesce"]["closed_early"] == 0
        assert stats["queue"]["pending"] == 0


#: Frame fields a ``map`` (or any op) frame may carry, with any JSON
#: value; ``op`` never draws ``shutdown``, which would stop the server.
_FRAME_FIELDS = {
    "op": st.one_of(st.sampled_from(["map", "stats", "ping", "nope"]), _JSON_SCALARS),
    "id": _JSON_SCALARS,
    "entries": st.one_of(st.lists(_ENTRIES, max_size=2), _JSON_VALUES),
    "entry": st.one_of(_ENTRIES, _JSON_VALUES),
    "defaults": st.one_of(_ENTRIES, _JSON_VALUES),
    "tenant": _JSON_SCALARS,
    "deadline_s": _JSON_SCALARS,
}
_FRAMES = st.one_of(
    st.fixed_dictionaries({}, optional=_FRAME_FIELDS), _JSON_VALUES
).filter(lambda f: not (isinstance(f, dict) and f.get("op") == "shutdown"))

#: How a fuzzed connection ends: a clean close, a malformed last frame
#: (answered with one error, then dropped), a reset, or a close while
#: its last ``map`` is still unanswered.
_TAILS = st.sampled_from(
    ["eof", "oversized", "not_json", "short_header", "short_body", "reset", "abandon"]
)


def _assert_structured(reply):
    assert isinstance(reply, dict) and isinstance(reply.get("ok"), bool), reply
    if not reply["ok"]:
        assert set(reply["error"]) == set(error_payload("x", "y")), reply


def _fuzz_connection(address, frames, tail):
    """Send *frames*, check one structured reply each, then end by *tail*."""
    sock = socket.create_connection(address, timeout=30)
    try:
        sock.sendall(b"".join(encode_frame(f) for f in frames))
        for _ in frames:
            _assert_structured(recv_frame(sock))
        if tail == "abandon":
            send_frame(sock, {"op": "map", "entries": [dict(ENTRY)]})
        if tail in ("reset", "abandon"):
            # Close with an RST, whatever the server still has to say.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            return
        sock.sendall(
            {
                "eof": b"",
                "oversized": struct.pack(">I", MAX_FRAME_BYTES + 1),
                "not_json": struct.pack(">I", 3) + b"\xff{]",
                "short_header": b"\x00\x00",
                "short_body": struct.pack(">I", 10) + b"{}",
            }[tail]
        )
        sock.shutdown(socket.SHUT_WR)
        if tail != "eof":
            reply = recv_frame(sock)
            _assert_structured(reply)
            assert reply["id"] is None and reply["error"]["kind"] == "bad_request"
        assert recv_frame(sock) is None  # the server closed the connection
    finally:
        sock.close()


def _open_fds():
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0


class TestFrameFuzz:
    def test_random_frames_leave_the_server_up_and_clean(self):
        """Bad lengths, non-object JSON, mistyped fields and connections
        closed mid-frame, all against one live server: every input gets
        a structured error or a clean drop, and afterwards no
        connection, ticket, thread or file descriptor is left over."""
        threads_before = set(threading.enumerate())
        fds_before = _open_fds()
        with mock.patch("repro.serve.protocol.build_workload", _stub_workload):
            with ThreadedServer(backend="serial") as ts:
                with ServeClient(*ts.address) as monitor:
                    baseline = monitor.stats()["server"]["connections"]

                    @settings(
                        max_examples=60,
                        deadline=None,
                        suppress_health_check=[HealthCheck.too_slow],
                    )
                    @given(frames=st.lists(_FRAMES, max_size=4), tail=_TAILS)
                    def exchange(frames, tail):
                        _fuzz_connection(ts.address, frames, tail)

                    exchange()
                    give_up = time.monotonic() + 30
                    while True:
                        stats = monitor.stats()
                        settled = (
                            stats["server"]["connections"] == baseline
                            and stats["queue"]["pending"] == 0
                        )
                        if settled or time.monotonic() > give_up:
                            break
                        time.sleep(0.05)
                    assert monitor.ping()
                assert not ts.server._dispatcher_task.done()
        assert stats["server"]["connections"] == baseline
        assert stats["queue"]["pending"] == 0
        assert stats["counters"]["accepted"] == stats["counters"]["completed"]
        assert set(threading.enumerate()) <= threads_before
        assert _open_fds() <= fds_before


class TestServerConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            MappingServer(max_pending=0)
        with pytest.raises(ValueError):
            MappingServer(coalesce_window=-1)
        with pytest.raises(ValueError):
            MappingServer(max_batch=0)
        with pytest.raises(ValueError):
            MappingServer(max_in_flight=0)


# ---------------------------------------------------------------------------
# CLI subcommands
# ---------------------------------------------------------------------------


class TestServeCli:
    def test_stats_cli_against_live_server(self, capsys):
        from repro.api.cli import main

        with ThreadedServer(backend="serial") as ts:
            with ServeClient(*ts.address) as client:
                assert client.map([dict(ENTRY)])["ok"]
            host, port = ts.address
            rc = main(["stats", "--connect", f"{host}:{port}"])
            human = capsys.readouterr().out
            rc_json = main(["stats", "--connect", f"{host}:{port}", "--json"])
            payload = json.loads(capsys.readouterr().out)
        assert rc == 0 and rc_json == 0
        assert "counters:" in human and "endpoint" in human
        assert "connections=" in human and "closed_early=1" in human
        assert payload["coalesce"]["closed_early"] == 1
        assert payload["counters"]["completed"] == 1
        assert payload["latency"]["map"]["count"] == 1

    def test_stats_cli_unreachable_server_fails_cleanly(self, capsys):
        from repro.api.cli import main

        # Grab a port that is definitely closed.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        rc = main(["stats", "--connect", f"127.0.0.1:{port}"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_subcommand_end_to_end(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys as _sys

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
        proc = subprocess.Popen(
            [
                _sys.executable,
                "-m",
                "repro.api",
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--backend",
                "process",
                "--workers",
                "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            host, port = json.loads(line)["listening"]
            with ServeClient(host, port, tenant="cli-e2e") as client:
                reply = client.map([dict(ENTRY)])
            assert reply["ok"], reply
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=60)
            stderr = proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert rc == 0, stderr
        assert "served 1 requests" in stderr
