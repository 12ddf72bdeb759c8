"""Network serving front end: protocol, fairness, coalescing, SLOs.

Pins the contracts of :mod:`repro.serve`:

* the length-prefixed-JSON protocol round-trips frames and rejects
  malformed/oversized input with the one PlanError-shaped error object;
* ``requests_from_entries`` is the single parse/validate layer — the
  ``map-batch --follow`` CLI and the network server reject identical
  garbage with identical error dicts;
* :class:`FairQueue` implements weighted fair queuing: a flooding
  tenant cannot starve a quiet one, weights skew service proportionally,
  idle tenants earn no retroactive credit;
* the real-socket server (ephemeral port) answers happy-path requests
  **byte-identically** to a direct ``MappingService.map_batch`` call,
  coalesces N concurrent identical requests into exactly one dispatch
  with exactly one grouping-stage computation, sheds load with
  structured ``overloaded`` errors when the admission queue is full,
  expires queued deadlines without touching the engine, and propagates
  in-flight deadlines into per-node timeouts;
* the ``serve`` / ``stats`` CLI subcommands drive a real server.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from collections import OrderedDict

import pytest

from repro.api import MappingService
from repro.api.fault import PlanError
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
    summarize_latencies,
)
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    encode_frame,
    parse_stream_line,
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

    def test_merge_requires_same_layout_and_is_exact(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        for s in (0.01, 0.02):
            a.observe(s)
        for s in (0.03, 0.04):
            b.observe(s)
        a.merge(b)
        assert a.count == 4
        assert a.max_seen == pytest.approx(0.04)
        with pytest.raises(ValueError):
            a.merge(LatencyHistogram(buckets_per_decade=5))

    def test_exact_summary_matches_histogram_keys(self):
        exact = summarize_latencies([0.01, 0.02, 0.03])
        h = LatencyHistogram()
        for s in (0.01, 0.02, 0.03):
            h.observe(s)
        assert set(exact) == set(h.summary())
        assert exact["p99_ms"] == pytest.approx(30.0)
        assert summarize_latencies([]) == {"count": 0}


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


class TestParseLayer:
    def test_stream_line_variants(self):
        kind, payload = parse_stream_line('{"defaults": {"procs": 32}}')
        assert kind == "defaults" and payload == {"procs": 32}
        kind, payload = parse_stream_line('{"matrix": "m"}')
        assert kind == "batch" and payload == [{"matrix": "m"}]
        kind, payload = parse_stream_line('[{"matrix": "a"}, {"matrix": "b"}]')
        assert kind == "batch" and len(payload) == 2
        with pytest.raises(ProtocolError):
            parse_stream_line("not json")
        with pytest.raises(ProtocolError):
            parse_stream_line('{"defaults": 3}')

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
        ],
    )
    def test_all_malformed_inputs_raise_protocol_error(self, entries):
        with pytest.raises(ProtocolError) as info:
            requests_from_entries(entries, {}, OrderedDict())
        # Every rejection serializes to the one error shape.
        d = info.value.as_dict()
        assert d["kind"] == "bad_request"
        assert d["message"]

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
    responses = MappingService().map_batch(reqs, on_error="partial")
    return [canonical_result(response_payload(r)) for r in responses]


class TestServerIntegration:
    def test_happy_path_is_byte_identical_to_direct_service(self):
        with ThreadedServer(backend="thread", workers=2) as ts:
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
            backend="thread",
            workers=2,
            coalesce_window=0.4,
            max_batch=16,
            max_in_flight=1,
        ) as ts:
            barrier = threading.Barrier(n)

            def worker(i):
                with ServeClient(*ts.address, tenant=f"c{i}") as client:
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
            backend="thread",
            workers=2,
            max_pending=2,
            coalesce_window=0.2,
            max_batch=1,
            max_in_flight=1,
        ) as ts:
            barrier = threading.Barrier(n)

            def worker(i):
                with ServeClient(*ts.address, tenant=f"c{i}") as client:
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

    def test_queued_deadline_expires_without_execution(self):
        with ThreadedServer(
            backend="thread",
            workers=2,
            coalesce_window=0.3,
            max_in_flight=1,
        ) as ts:
            with ServeClient(*ts.address) as client:
                # The window guarantees >= 0.3 s of queueing; a 1 ms
                # deadline must expire there.
                reply = client.map([dict(ENTRY)], deadline_s=0.001)
                stats = client.stats()
        assert reply["ok"] is False
        assert reply["error"]["kind"] == "timeout"
        assert "expired" in reply["error"]["message"]
        assert stats["counters"]["deadline_expired"] == 1
        # Never dispatched: the engine was not touched for this ticket.
        assert stats["counters"]["dispatches"] == 0

    def test_deadline_mid_plan_becomes_node_timeout(self):
        from repro.api import ExecutorPool

        @register_mapper("SLEEPYSRV", description="sleeps, then places greedily")
        def sleepy(ctx):
            time.sleep(5.0)
            return PLACEMENT_STAGES["greedy"](ctx)  # pragma: no cover

        entry = {**ENTRY, "algos": "SLEEPYSRV"}
        try:
            # A persistent pool: the spawn-per-call thread backend joins
            # its executor at batch end, which would hide the early
            # timeout reply behind the still-sleeping worker.
            with ExecutorPool("thread", workers=2) as pool:
                with ThreadedServer(pool=pool, coalesce_window=0.0) as ts:
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
            backend="thread",
            workers=2,
            coalesce_window=0.4,
            max_batch=2,
            max_in_flight=1,
        ) as ts:
            barrier = threading.Barrier(flood_n + 1)

            def worker(tenant, key):
                with ServeClient(*ts.address, tenant=tenant) as client:
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
        with ThreadedServer(backend="thread", workers=2) as ts:
            with ServeClient(*ts.address) as client:
                client.map([dict(ENTRY)])
                stats = client.stats()
        assert stats["server"]["listening"] == list(ts.address)
        assert stats["queue"]["pending"] == 0
        assert stats["counters"]["accepted"] == 1
        assert stats["latency"]["map"]["count"] == 1
        assert stats["latency"]["map"]["p50_ms"] <= stats["latency"]["map"]["p99_ms"]
        assert stats["aio"]["max_in_flight"] == 2
        assert stats["pool"] is None  # no ExecutorPool in this config
        assert "grouping" in stats["cache"]


class TestServerConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            MappingServer(max_pending=0)
        with pytest.raises(ValueError):
            MappingServer(coalesce_window=-1)
        with pytest.raises(ValueError):
            MappingServer(max_batch=0)


# ---------------------------------------------------------------------------
# CLI subcommands
# ---------------------------------------------------------------------------


class TestServeCli:
    def test_stats_cli_against_live_server(self, capsys):
        from repro.api.cli import main

        with ThreadedServer(backend="thread", workers=2) as ts:
            with ServeClient(*ts.address) as client:
                assert client.map([dict(ENTRY)])["ok"]
            host, port = ts.address
            rc = main(["stats", "--connect", f"{host}:{port}"])
            human = capsys.readouterr().out
            rc_json = main(["stats", "--connect", f"{host}:{port}", "--json"])
            payload = json.loads(capsys.readouterr().out)
        assert rc == 0 and rc_json == 0
        assert "counters:" in human and "endpoint" in human
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
                "thread",
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
