"""``python -m repro.api`` — command-line front end of the MappingService.

Subcommands
-----------
``list``
    Show every registered mapper and its declared stage composition.
``map``
    Build a workload from a corpus matrix (generate → partition →
    task graph → sparse torus allocation), run one or more mapping
    algorithms through :class:`~repro.api.service.MappingService`, and
    print the fine-level metrics — as a table or as JSON.
``map-batch``
    Run many requests from a JSON manifest through the parallel
    execution engine (``--backend serial|process``,
    ``--workers N``, ``--store-dir`` for the cross-process artifact
    store) and report per-request results plus batch throughput.
    Fault-tolerance knobs: ``--retries N`` (exponential backoff),
    ``--node-timeout SEC`` (per-node deadline) and ``--partial``
    (failed requests become structured error entries instead of
    aborting the batch).
``serve``
    Run the network front end of :mod:`repro.serve`, the one
    long-running front end: one warm artifact cache (and, on the
    process backend, one :class:`~repro.api.pool.ExecutorPool`)
    serves every request, so cache warm-up and pool spawn are paid
    once.  It is a TCP server speaking
    length-prefixed JSON with admission control
    (``--max-pending`` load shedding), weighted-fair-queuing tenant
    isolation (``--tenant-weight``), request coalescing
    (``--coalesce-window`` / ``--max-batch``) and per-endpoint latency
    percentiles via its ``stats`` op.
``stats``
    Query a running ``serve`` instance's observability snapshot:
    queue depths, shed/coalesce counters, p50/p95/p99 latencies, pool
    health and cache statistics.

Examples::

    python -m repro.api list
    python -m repro.api map --matrix cage15_like --algos UWH,UMC --json
    python -m repro.api map --matrix rgg_n23_like --procs 128 --ppn 4 \
        --algos DEF,UG,UWH --stats
    python -m repro.api map-batch --manifest reqs.json --workers 4 \
        --backend process --json
    python -m repro.api serve --listen 127.0.0.1:8765 --backend process \
        --workers 4 --max-pending 64 --tenant-weight batch=1 \
        --tenant-weight interactive=4
    python -m repro.api stats --connect 127.0.0.1:8765

The manifest is either a JSON list of request objects or
``{"defaults": {...}, "requests": [...]}``; each request names a corpus
``matrix`` and optionally ``algos``, ``procs``, ``ppn``,
``rows_per_unit``, ``partitioner``, ``seed``, ``delta``,
``fragmentation`` and ``tag`` (defaults fill the gaps)::

    {"defaults": {"procs": 64, "ppn": 4, "algos": "DEF,UG,UWH"},
     "requests": [{"matrix": "cage15_like"},
                  {"matrix": "rgg_n23_like", "algos": ["UMC"], "seed": 3}]}
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import OrderedDict
from typing import List, Optional

from repro.api.cache import ArtifactCache
from repro.api.config import EngineConfig
from repro.api.executor import BACKENDS
from repro.api.registry import UnknownMapperError, get_spec, registered_mappers
from repro.api.request import MapRequest
from repro.api.service import MappingService
from repro.api.store import DiskArtifactStore
from repro.data.corpus import CORPUS
from repro.partition.toolbox import PARTITIONER_NAMES
from repro.serve.protocol import build_workload, requests_from_entries, response_payload

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.api",
        description="Registry-driven topology-aware task mapping service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show registered mappers and their stages")
    p_list.add_argument("--json", action="store_true", help="emit JSON")

    p_map = sub.add_parser("map", help="map a corpus matrix with one or more algorithms")
    p_map.add_argument(
        "--matrix",
        required=True,
        help=f"corpus matrix name, e.g. {CORPUS[0].name!r}",
    )
    p_map.add_argument(
        "--algos",
        default="UG,UWH",
        help="comma-separated mapper names (default: UG,UWH)",
    )
    p_map.add_argument("--procs", type=int, default=64, help="MPI ranks (default 64)")
    p_map.add_argument("--ppn", type=int, default=4, help="processors per node")
    p_map.add_argument(
        "--rows-per-unit",
        type=int,
        default=120,
        help="matrix scale: rows per processor unit (default 120)",
    )
    p_map.add_argument(
        "--partitioner",
        default="PATOH",
        help=f"one of {', '.join(PARTITIONER_NAMES)}",
    )
    p_map.add_argument("--seed", type=int, default=0)
    p_map.add_argument(
        "--delta", type=_positive_int, default=8, help="refinement budget Δ (>= 1)"
    )
    p_map.add_argument(
        "--fragmentation",
        type=float,
        default=0.3,
        help="sparse-allocation fragmentation (default 0.3)",
    )
    p_map.add_argument("--json", action="store_true", help="emit JSON")
    p_map.add_argument(
        "--stats", action="store_true", help="print artifact-cache statistics"
    )
    _add_engine_args(p_map)

    p_batch = sub.add_parser(
        "map-batch",
        help="run many requests from a JSON manifest through the engine",
        description="Run many mapping requests from a JSON manifest through "
        "the parallel execution engine.  Note: the manifest's workloads "
        "(matrix generation + partitioning) are built sequentially in this "
        "process before the engine starts; --backend/--workers parallelize "
        "the mapping work only.",
    )
    p_batch.add_argument(
        "--manifest",
        required=True,
        help="JSON file: list of requests, or {defaults, requests}",
    )
    p_batch.add_argument("--json", action="store_true", help="emit JSON")
    p_batch.add_argument(
        "--stats", action="store_true", help="print artifact-cache statistics"
    )
    _add_engine_args(p_batch)

    p_serve = sub.add_parser(
        "serve",
        help="run the network mapping server (length-prefixed JSON over TCP)",
        description="Run the asyncio network front end: admission control "
        "with load shedding (--max-pending), weighted-fair-queuing tenant "
        "isolation (--tenant-weight), request coalescing into planner-"
        "deduped batches (--coalesce-window/--max-batch) and a stats op "
        "exposing p50/p95/p99 per endpoint.  Prints one "
        '{"listening": [host, port]} line on stdout once bound; SIGINT/'
        "SIGTERM (or a client shutdown op) drain in-flight work and exit.",
    )
    p_serve.add_argument(
        "--listen",
        default="127.0.0.1:8765",
        metavar="HOST:PORT",
        help="bind address (default 127.0.0.1:8765; port 0 = ephemeral)",
    )
    p_serve.add_argument(
        "--max-pending",
        type=int,
        default=64,
        metavar="N",
        help="admission bound: map requests admitted but unanswered; "
        "past it new requests are shed with an 'overloaded' error "
        "(default 64)",
    )
    p_serve.add_argument(
        "--coalesce-window",
        type=float,
        default=0.005,
        metavar="SEC",
        help="batching window: the dispatcher collects concurrent requests "
        "for at most SEC seconds; ends once every open connection awaits "
        "a reply (default 0.005; 0 dispatches eagerly)",
    )
    p_serve.add_argument(
        "--max-batch",
        type=int,
        default=16,
        metavar="N",
        help="most requests folded into one map_batch call (default 16)",
    )
    p_serve.add_argument(
        "--max-in-flight",
        type=int,
        default=2,
        metavar="N",
        help="driver threads, and so the most plans executing at once "
        "(default 2)",
    )
    p_serve.add_argument(
        "--tenant-weight",
        action="append",
        default=[],
        metavar="NAME=W",
        help="weighted-fair-queuing weight for a tenant (repeatable; "
        "higher = more service)",
    )
    p_serve.add_argument(
        "--default-tenant-weight",
        type=float,
        default=1.0,
        metavar="W",
        help="weight of tenants not named by --tenant-weight (default 1)",
    )
    p_serve.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SEC",
        help="reap idle pool workers after SEC seconds "
        "(they respawn lazily on the next request)",
    )
    _add_engine_args(p_serve)

    p_stats = sub.add_parser(
        "stats",
        help="query a running server's observability snapshot",
        description="Connect to a running 'serve' instance and print its "
        "stats op: queue depths per tenant, shed/coalesce counters, "
        "per-endpoint latency percentiles, in-flight plans, "
        "ExecutorPool health and artifact-cache statistics.",
    )
    p_stats.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address of the running server",
    )
    p_stats.add_argument("--json", action="store_true", help="emit JSON")

    return parser


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    """Engine + cache knobs shared by ``map`` and ``map-batch``."""
    parser.add_argument(
        "--cache-entries",
        type=int,
        default=None,
        metavar="N",
        help="bound the artifact cache to N entries (LRU eviction)",
    )
    parser.add_argument(
        "--cache-bytes",
        type=int,
        default=None,
        metavar="N",
        help="bound the artifact cache to ~N resident bytes (LRU eviction)",
    )
    parser.add_argument(
        "--backend",
        default="serial",
        choices=BACKENDS,
        help="execution backend of the batch engine (default serial)",
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="pool width for the process backend (default: CPUs)",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="cross-process artifact store directory (persists groupings, "
        "route tables and DEF baselines across runs and pool workers)",
    )
    parser.add_argument(
        "--retries",
        type=_nonnegative_int,
        default=None,
        metavar="N",
        help="retry a failing plan node up to N extra times with "
        "exponential backoff (default: no retries)",
    )
    parser.add_argument(
        "--node-timeout",
        type=_positive_float,
        default=None,
        metavar="SEC",
        help="per-node deadline on the process backend; a node "
        "past it fails with a structured timeout error",
    )
    parser.add_argument(
        "--partial",
        action="store_true",
        help="return partial batch results: a failed request becomes a "
        "structured error entry instead of aborting the whole batch "
        "(serve always returns partial results)",
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _cmd_list(args: argparse.Namespace) -> int:
    names = registered_mappers()
    if args.json:
        payload = {
            name: {
                "stages": list(get_spec(name).stage_names()),
                "description": get_spec(name).description,
            }
            for name in names
        }
        print(json.dumps(payload, indent=1))
        return 0
    print(f"{'mapper':>8s}  {'stages':<40s} description")
    print("-" * 78)
    for name in names:
        spec = get_spec(name)
        chain = " → ".join(spec.stage_names())
        print(f"{name:>8s}  {chain:<40s} {spec.description}")
    return 0


def _fault_fields(args: argparse.Namespace) -> dict:
    """The :class:`~repro.api.config.EngineConfig` fault fields of the flags."""
    from repro.api.fault import RetryPolicy

    return {
        "retry": RetryPolicy(max_attempts=args.retries + 1) if args.retries else None,
        "node_timeout": args.node_timeout,
        "on_error": "partial" if args.partial else "raise",
    }


def _build_service(args: argparse.Namespace) -> MappingService:
    """Service whose config holds the CLI's engine, cache and fault flags."""
    return MappingService(
        config=EngineConfig(
            backend=args.backend,
            workers=args.workers,
            store_dir=args.store_dir,
            cache_entries=args.cache_entries,
            cache_bytes=args.cache_bytes,
            **_fault_fields(args),
        )
    )


def _cmd_map(args: argparse.Namespace) -> int:
    algos = tuple(a.strip() for a in args.algos.split(",") if a.strip())
    if not algos:
        raise ValueError("--algos needs at least one mapper name")
    for a in algos:  # fail fast, before the workload build
        get_spec(a)

    tg, machine = build_workload(
        args.matrix,
        args.procs,
        args.ppn,
        args.rows_per_unit,
        args.partitioner,
        args.seed,
        args.fragmentation,
    )
    service = _build_service(args)
    responses = service.map_batch(
        MapRequest(
            task_graph=tg,
            machine=machine,
            algorithms=algos,
            seed=args.seed,
            delta=args.delta,
            evaluate=True,
        )
    )

    if args.json:
        payload = {
            "matrix": args.matrix,
            "partitioner": args.partitioner,
            "procs": args.procs,
            "nodes": machine.num_alloc_nodes,
            "torus": list(machine.torus.dims),
            "seed": args.seed,
            "results": [
                {
                    "algorithm": r.algorithm,
                    "error": r.error.as_dict(),
                }
                if not r.ok
                else {
                    "algorithm": r.algorithm,
                    "metrics": {
                        k: float(v) for k, v in r.metrics.as_dict().items()
                    },
                    "map_time_s": r.map_time,
                    "prep_time_s": r.prep_time,
                    "stage_times_s": {k: float(v) for k, v in r.stage_times.items()},
                    "grouping_cached": r.grouping_cached,
                }
                for r in responses
            ],
        }
        if args.stats:
            payload["cache_stats"] = _stats_payload(service.cache)
            payload["cache_total_bytes"] = service.cache.total_bytes
            if service.cache.store is not None:
                payload["store_files"] = {
                    ns: service.cache.store.file_count(ns)
                    for ns in sorted(service.cache.store.namespaces)
                }
                payload["store_stats"] = service.cache.store.stats()
        print(json.dumps(payload, indent=1))
        return 0

    print(
        f"{args.matrix} via {args.partitioner}: {args.procs} ranks on "
        f"{machine.num_alloc_nodes} nodes (torus {machine.torus.dims})"
    )
    print(
        f"\n{'mapper':>8s} {'TH':>9s} {'WH':>11s} {'MMC':>6s} {'MC':>9s} "
        f"{'map(ms)':>8s} {'shared-grouping':>16s}"
    )
    print("-" * 72)
    for r in responses:
        if not r.ok:
            print(f"{r.algorithm:>8s} error: {r.error}")
            continue
        m = r.metrics
        shared = "hit" if r.grouping_cached else "computed"
        spec = get_spec(r.algorithm)
        if spec.group_in_map_time:
            shared = "own"
        print(
            f"{r.algorithm:>8s} {m.th:9.0f} {m.wh:11.0f} {m.mmc:6.0f} "
            f"{m.mc:9.2f} {r.map_time * 1e3:8.2f} {shared:>16s}"
        )
    if args.stats:
        _print_stats(service, args.backend)
    return 0


def _manifest_requests(args: argparse.Namespace) -> List[MapRequest]:
    """Parse the manifest into MapRequests (workloads built once per key)."""
    with open(args.manifest) as fh:
        payload = json.load(fh)
    if isinstance(payload, list):
        defaults, entries = {}, payload
    elif isinstance(payload, dict):
        defaults = payload.get("defaults", {})
        entries = payload.get("requests")
    else:
        raise ValueError("manifest must be a JSON list or object")
    if not isinstance(entries, list) or not entries:
        raise ValueError("manifest needs a non-empty 'requests' list")
    return requests_from_entries(entries, defaults, OrderedDict())


def _cmd_map_batch(args: argparse.Namespace) -> int:
    requests = _manifest_requests(args)
    service = _build_service(args)
    t0 = time.perf_counter()
    responses = service.map_batch(requests)
    elapsed = time.perf_counter() - t0
    errors = sum(1 for r in responses if not r.ok)
    summary = {
        "backend": args.backend,
        "workers": args.workers,
        "requests": len(requests),
        "responses": len(responses),
        "errors": errors,
        "elapsed_s": elapsed,
        "requests_per_s": len(requests) / elapsed if elapsed > 0 else 0.0,
    }

    if args.json:
        payload = {
            **summary,
            "results": [response_payload(r) for r in responses],
        }
        if args.stats:
            payload["cache_stats"] = _stats_payload(service.cache)
            if service.cache.store is not None:
                payload["store_files"] = {
                    ns: service.cache.store.file_count(ns)
                    for ns in sorted(service.cache.store.namespaces)
                }
                payload["store_stats"] = service.cache.store.stats()
        print(json.dumps(payload, indent=1))
        return 0

    print(
        f"{summary['requests']} requests -> {summary['responses']} responses "
        f"in {elapsed:.3f} s ({summary['requests_per_s']:.2f} req/s, "
        f"backend={args.backend}, workers={args.workers or 'auto'})"
    )
    print(f"\n{'tag':>6s} {'mapper':>8s} {'WH':>11s} {'MC':>9s} {'map(ms)':>8s}")
    print("-" * 48)
    for r in responses:
        if not r.ok:
            print(f"{str(r.tag):>6s} {r.algorithm:>8s} error: {r.error}")
            continue
        m = r.metrics
        print(
            f"{str(r.tag):>6s} {r.algorithm:>8s} {m.wh:11.0f} {m.mc:9.2f} "
            f"{r.map_time * 1e3:8.2f}"
        )
    if args.stats:
        _print_stats(service, args.backend)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the network server until a signal or client ``shutdown`` op.

    One :class:`ExecutorPool` (on the process backend), built with the
    width the flags name, and one front-end cache
    layered over the pool's store live for the whole run, so spawn and
    warm-up costs are paid once.  On top sits the asyncio
    :class:`~repro.serve.server.MappingServer` with its admission /
    fairness / coalescing machinery.  Once bound, one
    ``{"listening": [host, port]}`` line goes to stdout (flushed — the
    CI smoke job reads it to discover an ephemeral port); the exit
    summary goes to stderr.
    """
    import asyncio
    import signal

    from repro.api.pool import ExecutorPool
    from repro.serve.protocol import parse_address
    from repro.serve.server import MappingServer

    host, port = parse_address(args.listen)
    weights = {}
    for item in args.tenant_weight:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValueError(f"--tenant-weight {item!r} is not NAME=WEIGHT")
        weights[name] = float(value)
    config = EngineConfig(
        backend=args.backend, workers=args.workers, **_fault_fields(args)
    )

    pool = None
    if args.backend == "process":
        pool = ExecutorPool(
            "process",
            workers=args.workers,
            store_dir=args.store_dir,
            idle_timeout=args.idle_timeout,
        )
    store = pool.store if pool is not None else (
        DiskArtifactStore(args.store_dir) if args.store_dir is not None else None
    )
    snapshot: dict = {}

    async def _amain() -> None:
        server = MappingServer(
            pool=pool,
            host=host,
            port=port,
            max_pending=args.max_pending,
            coalesce_window=args.coalesce_window,
            max_batch=args.max_batch,
            tenant_weights=weights or None,
            default_tenant_weight=args.default_tenant_weight,
            max_in_flight=args.max_in_flight,
            cache=ArtifactCache(
                max_entries=args.cache_entries,
                max_bytes=args.cache_bytes,
                store=store,
            ),
            config=config,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, ValueError):
                pass  # non-main thread (in-process tests)
        bound = await server.start()
        print(json.dumps({"listening": list(bound)}), flush=True)
        try:
            await server.serve_until(stop)
        finally:
            snapshot.update(server.stats_payload())

    try:
        asyncio.run(_amain())
    finally:
        if pool is not None:
            pool.shutdown()
    counters = snapshot.get("counters", {})
    lat = snapshot.get("latency", {}).get("map", {})
    print(
        f"served {counters.get('completed', 0)} requests "
        f"({counters.get('shed', 0)} shed, "
        f"{counters.get('deadline_expired', 0)} expired, "
        f"{counters.get('result_errors', 0)} result errors) over "
        f"{counters.get('dispatches', 0)} dispatches; "
        f"map p50={lat.get('p50_ms', 0.0):.1f} ms "
        f"p99={lat.get('p99_ms', 0.0):.1f} ms "
        f"(backend={args.backend}, workers={args.workers or 'auto'})",
        file=sys.stderr,
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient
    from repro.serve.protocol import parse_address

    host, port = parse_address(args.connect)
    with ServeClient(host, port, timeout=10.0) as client:
        snapshot = client.stats()
    if args.json:
        print(json.dumps(snapshot, indent=1))
        return 0

    server = snapshot["server"]
    queue = snapshot["queue"]
    counters = snapshot["counters"]
    coalesce = snapshot["coalesce"]
    listening = server.get("listening")
    addr = f"{listening[0]}:{listening[1]}" if listening else "?"
    print(
        f"server {addr}  up {server['uptime_s']:.1f} s  "
        f"(max_pending={server['max_pending']}, "
        f"window={server['coalesce_window_s'] * 1e3:g} ms, "
        f"max_batch={server['max_batch']}, "
        f"in_flight={server['in_flight']}/{server['max_in_flight']}, "
        f"connections={server['connections']}"
        f"{', draining' if server['stopping'] else ''})"
    )
    tenants = (
        ", ".join(f"{t}={n}" for t, n in sorted(queue["tenants"].items()))
        or "-"
    )
    print(
        f"queue: pending={queue['pending']} depth={queue['depth']} "
        f"recent_rps={queue['recent_rps']:.2f} tenants: {tenants}"
    )
    print(
        "counters: "
        + " ".join(f"{k}={counters[k]}" for k in sorted(counters))
    )
    print(
        f"coalesce: dispatches={coalesce['dispatches']} "
        f"coalesced_requests={coalesce['coalesced_requests']} "
        f"closed_early={coalesce['closed_early']} "
        f"mean_batch={coalesce['mean_batch']:.2f}"
    )
    print(
        f"\n{'endpoint':>12s} {'count':>7s} {'mean':>8s} {'p50':>8s} "
        f"{'p95':>8s} {'p99':>8s} {'max':>8s}  (ms)"
    )
    print("-" * 68)
    for name in sorted(snapshot["latency"]):
        h = snapshot["latency"][name]
        if not h.get("count"):
            print(f"{name:>12s} {0:7d}")
            continue
        print(
            f"{name:>12s} {h['count']:7d} {h['mean_ms']:8.2f} "
            f"{h['p50_ms']:8.2f} {h['p95_ms']:8.2f} {h['p99_ms']:8.2f} "
            f"{h['max_ms']:8.2f}"
        )
    pool = snapshot.get("pool")
    if pool:
        print(
            f"\npool: backend={pool['backend']} "
            f"workers={pool['workers'] or 'auto'} "
            f"live={pool['live_workers']} spawns={pool['spawn_count']} "
            f"restarts={pool['restarts']} "
            f"healthy={'yes' if pool['healthy'] else 'NO'}"
        )
    cache = snapshot.get("cache") or {}
    busy = {
        ns: s for ns, s in cache.items() if s["hits"] or s["misses"] or s["size"]
    }
    if busy:
        parts = []
        for ns, s in sorted(busy.items()):
            failed = f", {s['store_errors']} failed writes" if s["store_errors"] else ""
            parts.append(f"{ns}: {s['hits']}h/{s['misses']}m ({s['size']} live{failed})")
        print(f"cache: {', '.join(parts)}")
    return 0


def _stats_payload(cache: ArtifactCache) -> dict:
    return {ns: s.as_dict() for ns, s in cache.stats().items()}


def _print_stats(service: MappingService, backend: str) -> None:
    """Cache statistics footer, honest about the process backend.

    The process backend's cache activity happens in the pool workers'
    private caches, which die with the pool — the parent's counters
    stay empty.  What *is* observable from the parent is the shared
    disk store, so its per-namespace file counts are reported instead.
    """
    print("\nArtifact cache:")
    print(service.cache.format_stats())
    if backend == "process":
        print(
            "(process backend: pool workers keep private caches, so the "
            "counters above exclude their activity)"
        )
    store = service.cache.store
    if store is not None:
        counts = {
            ns: store.file_count(ns)
            for ns in sorted(store.namespaces)
            if store.file_count(ns)
        }
        summary = (
            ", ".join(f"{ns}: {n}" for ns, n in counts.items()) or "(empty)"
        )
        print(f"Artifact store ({store.root}): {summary}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "map-batch":
            return _cmd_map_batch(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "stats":
            return _cmd_stats(args)
        return _cmd_map(args)
    except (OSError, ValueError, UnknownMapperError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
