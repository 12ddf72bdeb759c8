"""Deterministic load generator for the network serving front end.

Drives a :class:`~repro.serve.server.MappingServer` with closed-loop
client threads (each sends its next request only after the previous
reply) and reports exact latency percentiles per phase.  Closed-loop
load is *deterministic in structure*: the number of clients bounds the
number of requests ever pending, so the nominal phase cannot shed by
construction and the overload phase (more clients than ``max_pending``)
must shed — the tail-latency gate in ``compare_bench.py --gate-tail``
leans on both invariants, which hold on any hardware.

Three phases (standalone mode):

``nominal``
    Few clients against a generously provisioned server.  Expected:
    zero shed, the p50/p95/p99 that describe healthy serving.
``overload``
    Many clients against ``max_pending=1`` with a single in-flight
    plan.  Expected: structural load shedding; the phase separates the
    latency of *answered* requests from the latency of *shed* replies —
    admission control is working iff the latter is far below the
    former.
``coalesce``
    A barrier-synchronized burst of identical requests into a long
    batching window.  Expected: one dispatch folding the burst, one
    grouping-stage miss in the artifact cache (the planner deduped the
    rest).

Usage::

    PYTHONPATH=src python benchmarks/serve_load.py [--json]
        [--backend thread] [--workers 2] [--update BENCH_n.json]
    PYTHONPATH=src python benchmarks/serve_load.py \
        --connect HOST:PORT [--clients 2] [--requests 8] [--expect-no-shed]

``--update`` merges the measured ``serving`` section into an existing
snapshot (``emit_bench.py`` embeds the same section natively).
``--connect`` drives an already-running server (the CI smoke job) with
the nominal phase only; ``--expect-no-shed`` exits non-zero if the
server shed anything.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.serve.client import ServeClient
from repro.serve.metrics import summarize_latencies
from repro.serve.protocol import parse_address

#: The one request every phase sends: small enough that the CI host
#: serves a phase in seconds, identical across clients so the planner's
#: dedup (and the coalesce phase's cache assertion) has work to do.
ENTRY = {
    "matrix": "cage12_like",
    "algos": "UG",
    "procs": 16,
    "ppn": 2,
    "rows_per_unit": 40,
    "seed": 0,
}

NOMINAL_CLIENTS = 2
NOMINAL_REQUESTS = 8
OVERLOAD_CLIENTS = 8
OVERLOAD_REQUESTS = 4
COALESCE_CLIENTS = 6
COALESCE_WINDOW_S = 0.3


def drive(
    address: Tuple[str, int],
    clients: int,
    requests_per_client: int,
    *,
    tenant_prefix: str = "load",
    start_barrier: bool = False,
) -> dict:
    """Closed-loop phase: *clients* threads, each sending sequentially.

    Returns completed/shed/error counts, exact latency summaries (one
    for answered requests, one for shed replies) and the coalesce
    counts reported in the replies themselves.
    """
    ok_lat: List[float] = []
    shed_lat: List[float] = []
    errors: List[dict] = []
    coalesced: List[int] = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients) if start_barrier else None

    def worker(index: int) -> None:
        with ServeClient(
            address[0], address[1], tenant=f"{tenant_prefix}-{index}", timeout=300.0
        ) as client:
            if barrier is not None:
                barrier.wait(timeout=60)
            for _ in range(requests_per_client):
                t0 = time.perf_counter()
                reply = client.map([dict(ENTRY)])
                dt = time.perf_counter() - t0
                with lock:
                    if reply.get("ok"):
                        ok_lat.append(dt)
                        coalesced.append(int(reply.get("coalesced", 1)))
                    elif (reply.get("error") or {}).get("kind") == "overloaded":
                        shed_lat.append(dt)
                    else:
                        errors.append(reply.get("error") or {})

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"load-{i}")
        for i in range(clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0

    total = clients * requests_per_client
    return {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "total": total,
        "completed": len(ok_lat),
        "shed": len(shed_lat),
        "errors": len(errors),
        "elapsed_s": elapsed,
        "requests_per_s": total / elapsed if elapsed > 0 else 0.0,
        "latency": summarize_latencies(ok_lat),
        "shed_latency": summarize_latencies(shed_lat),
        "max_coalesced": max(coalesced, default=0),
    }


def _server_snapshot(address: Tuple[str, int]) -> dict:
    with ServeClient(address[0], address[1], timeout=30.0) as client:
        return client.stats()


def measure_serving(backend: str = "thread", workers: Optional[int] = 2) -> dict:
    """The snapshot's ``serving`` section: nominal / overload / coalesce.

    Each phase gets a fresh in-process :class:`ThreadedServer` so its
    counters describe exactly that phase.  The ``thread`` backend is
    the default: it supports per-node deadlines (serial does not) and
    keeps the measurement free of process-spawn noise.
    """
    from repro.serve.server import ThreadedServer

    out: Dict[str, object] = {"backend": backend, "workers": workers}

    with ThreadedServer(
        backend=backend,
        workers=workers,
        max_pending=64,
        coalesce_window=0.01,
        max_in_flight=2,
    ) as ts:
        phase = drive(ts.address, NOMINAL_CLIENTS, NOMINAL_REQUESTS)
        stats = _server_snapshot(ts.address)
        phase["server"] = {
            "counters": stats["counters"],
            "coalesce": stats["coalesce"],
            "map_latency": stats["latency"]["map"],
        }
        out["nominal"] = phase

    # max_pending=1 + one in-flight plan + a batching window: with 8
    # closed-loop clients the queue is structurally always contended,
    # so admission control must shed.
    with ThreadedServer(
        backend=backend,
        workers=workers,
        max_pending=1,
        coalesce_window=0.05,
        max_batch=1,
        max_in_flight=1,
    ) as ts:
        out["overload"] = drive(
            ts.address, OVERLOAD_CLIENTS, OVERLOAD_REQUESTS, tenant_prefix="ovl"
        )

    # A synchronized burst of identical requests into one long window:
    # the dispatcher folds them into one batch and the planner computes
    # the shared grouping once.
    with ThreadedServer(
        backend=backend,
        workers=workers,
        max_pending=64,
        coalesce_window=COALESCE_WINDOW_S,
        max_batch=16,
        max_in_flight=1,
    ) as ts:
        phase = drive(
            ts.address,
            COALESCE_CLIENTS,
            1,
            tenant_prefix="burst",
            start_barrier=True,
        )
        stats = _server_snapshot(ts.address)
        grouping = stats["cache"].get("grouping", {})
        out["coalesce"] = {
            "requests": COALESCE_CLIENTS,
            "window_s": COALESCE_WINDOW_S,
            "completed": phase["completed"],
            "dispatches": stats["coalesce"]["dispatches"],
            "coalesced_requests": stats["coalesce"]["coalesced_requests"],
            "mean_batch": stats["coalesce"]["mean_batch"],
            "max_coalesced": phase["max_coalesced"],
            "grouping_misses": grouping.get("misses"),
            "grouping_hits": grouping.get("hits"),
            "latency": phase["latency"],
        }
    return out


def _print_summary(section: dict, stream=sys.stdout) -> None:
    for name in ("nominal", "overload"):
        phase = section.get(name)
        if not phase:
            continue
        lat = phase["latency"]
        line = (
            f"  {name}: {phase['completed']}/{phase['total']} answered, "
            f"{phase['shed']} shed, {phase['errors']} errors; "
        )
        if lat.get("count"):
            line += (
                f"p50 {lat['p50_ms']:.1f} ms, p95 {lat['p95_ms']:.1f} ms, "
                f"p99 {lat['p99_ms']:.1f} ms"
            )
        else:
            line += "no answered requests"
        print(line, file=stream)
        shed_lat = phase.get("shed_latency", {})
        if shed_lat.get("count"):
            print(
                f"    shed replies: p95 {shed_lat['p95_ms']:.2f} ms "
                f"(admission says no fast)",
                file=stream,
            )
    coalesce = section.get("coalesce")
    if coalesce:
        print(
            f"  coalesce: {coalesce['requests']} identical requests -> "
            f"{coalesce['dispatches']} dispatch(es), "
            f"grouping misses {coalesce['grouping_misses']}, "
            f"max batch {coalesce['max_coalesced']}",
            file=stream,
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Closed-loop load generator for the mapping server."
    )
    parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="drive an already-running server (nominal phase only) "
        "instead of starting in-process servers",
    )
    parser.add_argument(
        "--backend", default="thread", help="engine backend (standalone mode)"
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="engine workers (standalone mode)"
    )
    parser.add_argument(
        "--clients", type=int, default=NOMINAL_CLIENTS, help="--connect: client threads"
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=NOMINAL_REQUESTS,
        help="--connect: requests per client",
    )
    parser.add_argument(
        "--expect-no-shed",
        action="store_true",
        help="exit 1 if anything was shed (CI smoke assertion)",
    )
    parser.add_argument("--json", action="store_true", help="emit the section as JSON")
    parser.add_argument(
        "--update",
        default=None,
        metavar="SNAPSHOT.json",
        help="merge the measured section into an existing snapshot "
        "as its 'serving' key",
    )
    args = parser.parse_args(argv)

    if args.connect:
        address = parse_address(args.connect)
        phase = drive(address, args.clients, args.requests, tenant_prefix="smoke")
        stats = _server_snapshot(address)
        phase["server"] = {
            "counters": stats["counters"],
            "coalesce": stats["coalesce"],
        }
        section: dict = {"mode": "connect", "nominal": phase}
    else:
        section = measure_serving(args.backend, args.workers)

    if args.update:
        with open(args.update) as fh:
            snapshot = json.load(fh)
        snapshot["serving"] = section
        with open(args.update, "w") as fh:
            json.dump(snapshot, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"updated {args.update}", file=sys.stderr)

    if args.json:
        print(json.dumps(section, indent=1, sort_keys=True))
    else:
        print("serving load:")
        _print_summary(section)

    if args.expect_no_shed:
        shed = sum(
            phase.get("shed", 0)
            for name, phase in section.items()
            if isinstance(phase, dict) and name in ("nominal",)
        )
        if shed:
            print(f"error: {shed} requests shed at nominal load", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
