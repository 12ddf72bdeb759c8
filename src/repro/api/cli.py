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
    execution engine (``--backend serial|thread|process``,
    ``--workers N``, ``--store-dir`` for the cross-process artifact
    store) and report per-request results plus batch throughput.
    Fault-tolerance knobs: ``--retries N`` (exponential backoff),
    ``--node-timeout SEC`` (per-node deadline) and ``--partial``
    (failed requests become structured error entries instead of
    aborting the batch).

    With ``--follow``, the manifest becomes a JSONL *stream* (``-`` =
    stdin) and the process turns into a long-running server: one
    :class:`~repro.api.pool.ExecutorPool` and one warm artifact cache
    serve every incoming batch, so pool spawn and cache warm-up are
    paid once, not per batch.  Each input line is a request object, a
    list of request objects (one batch), or ``{"defaults": {...}}`` to
    update the stream's defaults; each served batch emits one JSON
    line on stdout.  ``--idle-timeout`` reaps idle workers between
    bursts (they respawn lazily).
``serve``
    Run the network front end of :mod:`repro.serve`: a TCP server
    speaking length-prefixed JSON with admission control
    (``--max-pending`` load shedding), weighted-fair-queuing tenant
    isolation (``--tenant-weight``), request coalescing
    (``--coalesce-window`` / ``--max-batch``) and per-endpoint latency
    percentiles via its ``stats`` op.
``stats``
    Query a running ``serve`` instance's observability snapshot:
    queue depths, shed/coalesce counters, p50/p95/p99 latencies, pool
    health and cache statistics.
``store-serve``
    Run a remote content-addressed artifact store: a TCP object server
    any number of engines and shard hosts layer under their local
    store tiers (``--store-remote HOST:PORT``).
``shard-serve``
    Run one shard host for multi-host batch execution: it executes
    individual plan nodes for a coordinating ``map-batch --hosts ...``
    process, sharing artifacts through the ``store-serve`` store.

Examples::

    python -m repro.api list
    python -m repro.api map --matrix cage15_like --algos UWH,UMC --json
    python -m repro.api map --matrix rgg_n23_like --procs 128 --ppn 4 \
        --algos DEF,UG,UWH --stats
    python -m repro.api map-batch --manifest reqs.json --workers 4 \
        --backend process --json
    ... | python -m repro.api map-batch --follow --manifest - \
        --backend process --workers 4 --idle-timeout 30
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
from repro.api.executor import BACKENDS
from repro.api.registry import UnknownMapperError, get_spec, registered_mappers
from repro.api.request import MapRequest
from repro.api.service import MappingService
from repro.api.shm import STORE_TIERS, make_store
from repro.data.corpus import CORPUS
from repro.kernels.backend import (
    ENV_VAR as KERNEL_ENV_VAR,
    KERNEL_BACKENDS,
    backend_info,
    set_backend,
)
from repro.partition.toolbox import PARTITIONER_NAMES
from repro.serve.protocol import (
    ProtocolError,
    build_workload,
    error_payload,
    parse_stream_line,
    requests_from_entries,
    response_payload,
)

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
    p_map.add_argument("--delta", type=int, default=8, help="refinement budget Δ")
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
        help="JSON file: list of requests, or {defaults, requests}; with "
        "--follow: a JSONL stream of request objects/batches ('-' = stdin)",
    )
    p_batch.add_argument("--json", action="store_true", help="emit JSON")
    p_batch.add_argument(
        "--stats", action="store_true", help="print artifact-cache statistics"
    )
    p_batch.add_argument(
        "--follow",
        action="store_true",
        help="serve mode: read request batches line by line from the "
        "manifest stream, keeping one worker pool and warm caches alive "
        "across batches; one JSON result line per batch",
    )
    p_batch.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SEC",
        help="serve mode: reap idle pool workers after SEC seconds "
        "(they respawn lazily on the next batch)",
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
        help="batching window: seconds the dispatcher collects concurrent "
        "requests before folding them into one engine batch (default "
        "0.005; 0 dispatches eagerly)",
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
        help="concurrent plans executing in the async service (default 2)",
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
        "per-endpoint latency percentiles, async in-flight counts, "
        "ExecutorPool health and artifact-cache statistics.",
    )
    p_stats.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address of the running server",
    )
    p_stats.add_argument("--json", action="store_true", help="emit JSON")

    p_store = sub.add_parser(
        "store-serve",
        help="run a remote content-addressed artifact store",
        description="Serve a content-addressed artifact store over TCP. "
        "Engines and shard hosts layer it under their local tiers via "
        "--store-remote HOST:PORT: writes replicate in, reads promote "
        "into local shm/memory.  The on-disk layout is identical to a "
        "local --store-dir, so an existing store directory can be served "
        'as-is.  Prints one {"listening": [host, port]} line once bound; '
        "SIGINT/SIGTERM shut down cleanly.",
    )
    p_store.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="bind address (default 127.0.0.1:0 = ephemeral port)",
    )
    p_store.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="store root directory (default: a private temp directory)",
    )

    p_shard = sub.add_parser(
        "shard-serve",
        help="run one shard host for multi-host batch execution",
        description="Serve plan-node execution for a coordinating "
        "'map-batch --hosts ...' process.  The host's cache layers over "
        "its local store tiers with the cluster's --store-remote store "
        "underneath, so batch payloads stream in and shared artifacts "
        "(groupings, DEF baselines) replicate out to sibling hosts.  "
        'Prints one {"listening": [host, port]} line once bound; SIGINT/'
        "SIGTERM drain in-flight nodes and exit.",
    )
    p_shard.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="bind address (default 127.0.0.1:0 = ephemeral port)",
    )
    p_shard.add_argument(
        "--capacity",
        type=int,
        default=None,
        metavar="N",
        help="concurrent plan nodes this host advertises (default: CPUs)",
    )
    p_shard.add_argument(
        "--host-id",
        default=None,
        metavar="ID",
        help="stable identity reported to coordinators (default: pid-based)",
    )
    _add_engine_args(p_shard)
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
        type=int,
        default=None,
        metavar="N",
        help="pool width for the thread/process backends (default: CPUs)",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="cross-process artifact store directory (persists groupings, "
        "route tables and DEF baselines across runs and pool workers)",
    )
    parser.add_argument(
        "--store-tier",
        default="auto",
        choices=STORE_TIERS,
        help="artifact store tier: shm (shared-memory segments + disk "
        "write-through; pool workers attach arrays zero-copy), disk "
        "(files only), or auto-detect (default; shm where "
        "/dev/shm-style segments work, disk elsewhere)",
    )
    parser.add_argument(
        "--store-remote",
        default=None,
        metavar="HOST:PORT",
        help="remote artifact store (a running 'store-serve' process) "
        "layered under the local store tiers: writes replicate to it, "
        "reads promote from it — required for --hosts runs whose shard "
        "hosts do not share a filesystem",
    )
    parser.add_argument(
        "--hosts",
        default=None,
        metavar="H1:P1,H2:P2,...",
        help="shard-host addresses (running 'shard-serve' processes); "
        "when given, map-batch runs on the multi-host coordinator "
        "instead of a local backend",
    )
    parser.add_argument(
        "--steal-threshold",
        type=int,
        default=2,
        metavar="N",
        help="sharded runs: ready-backlog depth above which an idle "
        "host steals unpinned nodes from a hot shard (default 2)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retry a failing plan node up to N extra times with "
        "exponential backoff (default: no retries)",
    )
    parser.add_argument(
        "--node-timeout",
        type=float,
        default=None,
        metavar="SEC",
        help="per-node deadline on the thread/process backends; a node "
        "past it fails with a structured timeout error",
    )
    parser.add_argument(
        "--partial",
        action="store_true",
        help="return partial batch results: a failed request becomes a "
        "structured error entry instead of aborting the whole batch "
        "(--follow mode always serves partial results)",
    )
    parser.add_argument(
        "--kernel-backend",
        default=None,
        choices=("auto",) + KERNEL_BACKENDS,
        help="kernel implementation tier: numba (JIT-compiled hot paths), "
        "numpy (always-available reference), or auto-detect (default; "
        "numba when installed).  An unsatisfiable numba request falls "
        "back to numpy with the reason reported",
    )


def _install_kernel_backend(args: argparse.Namespace) -> None:
    """Install the requested kernel backend for this process and its pools.

    An explicit ``--kernel-backend`` is mirrored into the environment so
    process-pool workers — one-shot engine pools and persistent
    ``ExecutorPool`` workers alike — resolve the same choice on spawn.
    """
    choice = getattr(args, "kernel_backend", None)
    if choice is not None:
        import os

        os.environ[KERNEL_ENV_VAR] = choice
    set_backend(choice)


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
        payload["kernel_backend"] = backend_info()
        print(json.dumps(payload, indent=1))
        return 0
    print(f"{'mapper':>8s}  {'stages':<40s} description")
    print("-" * 78)
    for name in names:
        spec = get_spec(name)
        chain = " → ".join(spec.stage_names())
        print(f"{name:>8s}  {chain:<40s} {spec.description}")
    info = backend_info()
    note = f" — {info['fallback_reason']}" if info["fallback_reason"] else ""
    print(
        f"\nkernel backend: {info['backend']} "
        f"(requested {info['requested']}){note}"
    )
    return 0


def _parse_hosts(value: Optional[str]) -> tuple:
    """``--hosts`` comma list -> tuple of ``host:port`` strings."""
    if not value:
        return ()
    return tuple(h.strip() for h in value.split(",") if h.strip())


def _engine_config(args: argparse.Namespace):
    """The CLI's :class:`~repro.api.config.EngineConfig` from its flags."""
    from repro.api.config import EngineConfig

    return EngineConfig(
        backend=args.backend,
        workers=args.workers,
        store_dir=args.store_dir,
        store_tier=args.store_tier,
        store_remote=getattr(args, "store_remote", None),
        kernel_backend=getattr(args, "kernel_backend", None),
        cache_entries=args.cache_entries,
        cache_bytes=args.cache_bytes,
        hosts=_parse_hosts(getattr(args, "hosts", None)),
        steal_threshold=getattr(args, "steal_threshold", 2),
    )


def _build_service(args: argparse.Namespace) -> MappingService:
    """Service wired to the CLI's cache bounds, store and backend flags."""
    return MappingService(config=_engine_config(args))


def _fault_kwargs(args: argparse.Namespace, *, partial: bool = False) -> dict:
    """``map_batch`` fault-tolerance kwargs from the CLI flags."""
    from repro.api.fault import RetryPolicy

    kwargs: dict = {}
    if getattr(args, "retries", None):
        kwargs["retry"] = RetryPolicy(max_attempts=args.retries + 1)
    if getattr(args, "node_timeout", None) is not None:
        kwargs["node_timeout"] = args.node_timeout
    if partial or getattr(args, "partial", False):
        kwargs["on_error"] = "partial"
    return kwargs


def _cmd_map(args: argparse.Namespace) -> int:
    _install_kernel_backend(args)
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
        ),
        store_tier=args.store_tier,
        **_fault_kwargs(args),
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


#: Built (task graph, machine) workloads a --follow server keeps warm;
#: least-recently-used entries beyond this are dropped after each batch.
_FOLLOW_WORKLOAD_LIMIT = 32


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
    _install_kernel_backend(args)
    if args.follow:
        return _cmd_follow(args)
    requests = _manifest_requests(args)
    service = _build_service(args)
    t0 = time.perf_counter()
    responses = service.map_batch(
        requests, store_tier=args.store_tier, **_fault_kwargs(args)
    )
    elapsed = time.perf_counter() - t0
    errors = sum(1 for r in responses if not r.ok)
    hosts = _parse_hosts(getattr(args, "hosts", None))
    summary = {
        "backend": "sharded" if hosts else args.backend,
        "workers": args.workers,
        "requests": len(requests),
        "responses": len(responses),
        "errors": errors,
        "elapsed_s": elapsed,
        "requests_per_s": len(requests) / elapsed if elapsed > 0 else 0.0,
    }
    if hosts:
        summary["hosts"] = list(hosts)

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


def _cmd_follow(args: argparse.Namespace) -> int:
    """Serve mode: one pool + warm caches over a JSONL request stream.

    Reads the manifest stream line by line (``-`` = stdin).  A line is
    a request object, a list of request objects (one batch), or
    ``{"defaults": {...}}`` updating the stream's defaults.  Every
    served batch prints one JSON line; malformed lines report an error
    line and the server keeps going.  Workloads, the artifact cache and
    the ExecutorPool persist across batches — that is the point.

    Fault behaviour: batches always run ``on_error="partial"`` (a
    long-running server must not die on one poisoned request — the
    failed entry becomes a structured ``error`` result), and SIGINT /
    SIGTERM *drain*: the in-flight batch finishes and emits its result
    line, then the server shuts down cleanly.
    """
    import signal

    from repro.api.pool import POOL_BACKENDS, ExecutorPool

    pool = None
    if args.backend in POOL_BACKENDS:
        pool = ExecutorPool(
            args.backend,
            workers=args.workers,
            store_dir=args.store_dir,
            idle_timeout=args.idle_timeout,
            kernel_backend=args.kernel_backend,
            store_tier=args.store_tier,
            store_remote=args.store_remote,
        )
    service = MappingService(
        # The front-end cache layers over the pool's store so the
        # cache bounds and --stats describe the serving configuration
        # on every backend (process workers share the same store).
        cache=ArtifactCache(
            max_entries=args.cache_entries,
            max_bytes=args.cache_bytes,
            store=pool.store if pool is not None else None,
        ),
        backend=args.backend,
        workers=args.workers,
        pool=pool,
    )
    stream = sys.stdin if args.manifest == "-" else open(args.manifest)
    # Built workloads are LRU-bounded: a long-running server fed ever-
    # changing matrices must not accumulate task graphs without limit.
    workloads: "OrderedDict" = OrderedDict()
    defaults: dict = {}
    batches = served = failed = 0
    store_counts = {}
    fault_kwargs = _fault_kwargs(args, partial=True)

    # Graceful drain: a signal arriving mid-batch merely sets the flag —
    # the batch finishes and its result line is emitted before the loop
    # breaks.  A signal while idle (blocked reading the stream) exits
    # immediately via KeyboardInterrupt; there is nothing to drain.
    state = {"in_batch": False, "stop": None}

    def _request_stop(signum, frame):
        state["stop"] = signum
        if not state["in_batch"]:
            raise KeyboardInterrupt

    previous_handlers = {}
    try:
        for sig in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[sig] = signal.signal(sig, _request_stop)
    except ValueError:
        previous_handlers = {}  # not the main thread (in-process tests)

    t_start = time.perf_counter()
    try:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                kind, payload = parse_stream_line(line)
                if kind == "defaults":
                    defaults = {**defaults, **payload}
                    continue
                requests = requests_from_entries(payload, defaults, workloads)
                state["in_batch"] = True
                try:
                    t0 = time.perf_counter()
                    responses = service.map_batch(
                        requests,
                        store_tier=args.store_tier,
                        **fault_kwargs,
                    )
                    elapsed = time.perf_counter() - t0
                finally:
                    state["in_batch"] = False
            except (ValueError, KeyError, TypeError) as exc:
                # ProtocolError carries the structured PlanError-shaped
                # dict the network server emits; anything else is
                # wrapped into the same shape so stream consumers see
                # exactly one malformed-input schema.
                error = (
                    exc.as_dict()
                    if isinstance(exc, ProtocolError)
                    else error_payload(
                        "bad_request", str(exc), exception=type(exc).__name__
                    )
                )
                print(
                    json.dumps({"line": lineno, "error": error}), flush=True
                )
                continue
            batches += 1
            served += len(requests)
            errors = sum(1 for r in responses if not r.ok)
            failed += errors
            while len(workloads) > _FOLLOW_WORKLOAD_LIMIT:
                workloads.popitem(last=False)
            print(
                json.dumps(
                    {
                        "batch": batches,
                        "line": lineno,
                        "requests": len(requests),
                        "errors": errors,
                        "elapsed_s": elapsed,
                        "results": [response_payload(r) for r in responses],
                    }
                ),
                flush=True,
            )
            if state["stop"] is not None:
                break
    except KeyboardInterrupt:
        pass  # idle-time signal: nothing in flight, exit the serve loop
    finally:
        for sig, handler in previous_handlers.items():
            signal.signal(sig, handler)
        if stream is not sys.stdin:
            stream.close()
        if pool is not None:
            if args.stats:
                # Process workers keep private caches; the shared store
                # is the observable footprint — count it before the
                # shutdown (which may remove a temporary store).
                store = pool.store
                store_counts = {
                    ns: store.file_count(ns)
                    for ns in sorted(store.namespaces)
                    if store.file_count(ns)
                }
            pool.shutdown()
    total = time.perf_counter() - t_start
    if state["stop"] is not None:
        try:
            signame = signal.Signals(state["stop"]).name
        except ValueError:
            signame = str(state["stop"])
        print(f"received {signame}; drained in-flight work", file=sys.stderr)
    print(
        f"served {batches} batches / {served} requests "
        f"({failed} failed) in {total:.3f} s "
        f"(backend={args.backend}, workers={args.workers or 'auto'}, "
        f"pool spawns={pool.spawn_count if pool is not None else 0}, "
        f"pool restarts={pool.restarts if pool is not None else 0})",
        file=sys.stderr,
    )
    if args.stats:
        print(service.cache.format_stats(), file=sys.stderr)
        if store_counts:
            summary = ", ".join(f"{ns}: {n}" for ns, n in store_counts.items())
            print(f"Pool artifact store: {summary}", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the network server until a signal or client ``shutdown`` op.

    The serving wiring mirrors ``--follow``: one :class:`ExecutorPool`
    (when the backend supports one) and one front-end cache layered
    over the pool's store live for the whole run, so spawn and warm-up
    costs are paid once.  On top sits the asyncio
    :class:`~repro.serve.server.MappingServer` with its admission /
    fairness / coalescing machinery.  Once bound, one
    ``{"listening": [host, port]}`` line goes to stdout (flushed — the
    CI smoke job reads it to discover an ephemeral port); the exit
    summary goes to stderr.
    """
    import asyncio
    import signal

    from repro.api.pool import POOL_BACKENDS, ExecutorPool
    from repro.serve.protocol import parse_address
    from repro.serve.server import MappingServer

    _install_kernel_backend(args)
    host, port = parse_address(args.listen)
    weights = {}
    for item in args.tenant_weight:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValueError(f"--tenant-weight {item!r} is not NAME=WEIGHT")
        weights[name] = float(value)
    fault = _fault_kwargs(args)

    pool = None
    if args.backend in POOL_BACKENDS:
        pool = ExecutorPool(
            args.backend,
            workers=args.workers,
            store_dir=args.store_dir,
            idle_timeout=args.idle_timeout,
            kernel_backend=args.kernel_backend,
            store_tier=args.store_tier,
            store_remote=args.store_remote,
        )
    store = pool.store if pool is not None else (
        make_store(
            args.store_dir, tier=args.store_tier, remote=args.store_remote
        )
        if args.store_dir is not None
        else None
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
            retry=fault.get("retry"),
            node_timeout=fault.get("node_timeout"),
            max_in_flight=args.max_in_flight,
            cache=ArtifactCache(
                max_entries=args.cache_entries,
                max_bytes=args.cache_bytes,
                store=store,
            ),
            backend=args.backend,
            workers=args.workers,
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


def _serve_until_signal(server, *, what: str) -> None:
    """Print the listening line, run *server* until SIGINT/SIGTERM."""
    import signal
    import threading

    server.start()
    print(json.dumps({"listening": list(server.address)}), flush=True)
    stop = threading.Event()

    def _request_stop(signum, frame):
        stop.set()

    previous = {}
    try:
        for sig in (signal.SIGINT, signal.SIGTERM):
            previous[sig] = signal.signal(sig, _request_stop)
    except ValueError:
        previous = {}  # not the main thread (in-process tests)
    try:
        while not stop.wait(timeout=0.5):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.stop()
    print(f"{what} drained; shut down cleanly", file=sys.stderr)


def _cmd_store_serve(args: argparse.Namespace) -> int:
    import tempfile

    from repro.dist.remote import ArtifactStoreServer
    from repro.serve.protocol import parse_address

    tmp = None
    root = args.root
    if root is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-store-serve-")
        root = tmp.name
    server = ArtifactStoreServer(root, parse_address(args.listen))
    try:
        _serve_until_signal(server, what="artifact store")
        stats = server.stats()
        print(
            f"served {stats['saves']} saves ({stats['save_skips']} skips), "
            f"{stats['loads']} loads ({stats['load_hits']} hits), "
            f"{stats['bytes_in']} bytes in / {stats['bytes_out']} bytes out "
            f"from {root}",
            file=sys.stderr,
        )
    finally:
        if tmp is not None:
            tmp.cleanup()
    return 0


def _cmd_shard_serve(args: argparse.Namespace) -> int:
    from repro.dist.host import HostServer
    from repro.serve.protocol import parse_address

    _install_kernel_backend(args)
    server = HostServer(
        parse_address(args.listen),
        store_remote=args.store_remote,
        store_dir=args.store_dir,
        store_tier=args.store_tier,
        capacity=args.capacity if args.capacity is not None else args.workers,
        backend="process" if args.backend == "process" else "inline",
        host_id=args.host_id,
        cache_entries=args.cache_entries,
        cache_bytes=args.cache_bytes,
        kernel_backend=args.kernel_backend,
    )
    _serve_until_signal(server, what=f"shard host {server.host_id}")
    stats = server.stats()
    print(
        f"ran {stats['nodes_run']} nodes "
        f"({stats['groupings_computed']} groupings computed, "
        f"{stats['node_errors']} node errors) as {server.host_id} "
        f"(capacity={server.capacity}, backend={server.backend})",
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
        f"max_batch={server['max_batch']}"
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
    aio = snapshot["aio"]
    print(f"\naio: in_flight {aio['in_flight']}/{aio['max_in_flight']}")
    pool = snapshot.get("pool")
    if pool:
        print(
            f"pool: backend={pool['backend']} "
            f"workers={pool['workers'] or 'auto'} "
            f"live={pool['live_workers']} spawns={pool['spawn_count']} "
            f"restarts={pool['restarts']} "
            f"healthy={'yes' if pool['healthy'] else 'NO'}"
        )
        kb = pool.get("kernel_backend")
        if kb:
            note = (
                f" — {kb['fallback_reason']}" if kb.get("fallback_reason") else ""
            )
            warm = kb.get("warmup")
            workers = kb.get("workers") or {}
            warmed = [w for w in workers.values() if w]
            if warmed:
                extra = (
                    f" warmed_workers={len(warmed)} "
                    f"warmup_max={max(w['warmup_s'] for w in warmed) * 1e3:.1f} ms"
                )
            elif warm:
                extra = f" warmup={warm['warmup_s'] * 1e3:.1f} ms"
            else:
                extra = ""
            print(
                f"kernels: backend={kb['backend']} "
                f"(requested {kb['requested']}){note}{extra}"
            )
    cache = snapshot.get("cache") or {}
    busy = {
        ns: s for ns, s in cache.items() if s["hits"] or s["misses"] or s["size"]
    }
    if busy:
        summary = ", ".join(
            f"{ns}: {s['hits']}h/{s['misses']}m ({s['size']} live)"
            for ns, s in sorted(busy.items())
        )
        print(f"cache: {summary}")
    return 0


def _stats_payload(cache: ArtifactCache) -> dict:
    return {
        ns: {
            "hits": s.hits,
            "misses": s.misses,
            "size": s.size,
            "evictions": s.evictions,
            "bytes": s.bytes,
            "store_hits": s.store_hits,
            "store_errors": s.store_errors,
        }
        for ns, s in cache.stats().items()
    }


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
        tier = getattr(store, "tier", "disk")
        print(f"Artifact store ({store.root}, tier={tier}): {summary}")
        stats = store.stats() if hasattr(store, "stats") else {}
        shm = stats.get("shm")
        if shm:
            print(
                f"Shared memory: {shm.get('segments', 0)} segments, "
                f"{shm.get('segment_bytes', 0)} bytes "
                f"({shm.get('loads', 0)} loads, {shm.get('load_hits', 0)} hits)"
            )
        remote = stats.get("remote")
        if remote:
            print(
                f"Remote store {remote.get('address', '?')}: "
                f"{remote.get('saves', 0)} saves "
                f"({remote.get('save_skips', 0)} skips), "
                f"{remote.get('loads', 0)} loads "
                f"({remote.get('load_hits', 0)} hits, "
                f"{remote.get('errors', 0)} errors)"
            )


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
        if args.command == "store-serve":
            return _cmd_store_serve(args)
        if args.command == "shard-serve":
            return _cmd_shard_serve(args)
        if args.command == "stats":
            return _cmd_stats(args)
        return _cmd_map(args)
    except (OSError, ValueError, UnknownMapperError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
