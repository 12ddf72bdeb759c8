"""Emit a perf snapshot (``BENCH_<n>.json``) of per-algorithm map times.

Runs the Figure 3 harness sweep (the Figure 2 runs carry the timing
data) on the profile selected by ``REPRO_PROFILE`` (default ``ci``) and
writes geometric-mean mapping times per algorithm — overall and per
processor count — so the repo's performance trajectory is tracked commit
over commit.

Since the parallel execution engine the snapshot also carries a
``batch_throughput`` section: the same Fig. 3 sweep expressed as one
request list and pushed through ``MappingService.map_batch`` on every
backend (``serial`` reference, ``thread``/``process`` at several worker
counts), reporting requests/sec and the speedup over sequential
execution.  Each measurement runs on a fresh service (cold caches) so
the backends compete on equal footing.

Since the serving layer the section additionally carries a
``persistent`` block: the sweep served *repeatedly* through one
long-lived :class:`~repro.api.pool.ExecutorPool` (fresh front-end
service per batch, pool + store kept hot), reporting per-batch and
amortized wall time — the number a job-launch-time mapping service
actually pays.  The sweep itself includes the HIER/SFC families next
to the paper's seven algorithms, and ``cpus`` records the *usable*
(affinity-respecting) CPU count so snapshots from quota-limited
containers read correctly.

Since the network front end the snapshot also carries a ``serving``
section (measured by ``benchmarks/serve_load.py``): closed-loop client
load against the TCP server under nominal provisioning, under forced
overload (admission-control shedding) and as a synchronized identical
burst (request coalescing), with exact p50/p95/p99 latency per phase.
``compare_bench.py --gate-tail`` gates on its structural invariants.

Since multi-host sharding the snapshot also carries a ``dist`` section:
the sweep run serially and then sharded across two loopback
:class:`~repro.dist.host.HostServer` processes behind one remote
artifact store, reporting dispatch throughput, the speedup (bounded by
CPU sharing on one machine — the gate checks overhead and correctness,
not scaling), router placement stats, and whether the sharded mappings
are byte-identical to the serial reference.  ``compare_bench.py
--gate-dist`` gates on identity and zero errors.

Usage::

    PYTHONPATH=src python benchmarks/emit_bench.py [output.json]

The default output name is ``BENCH_<n>.json`` in the repository root,
where ``<n>`` is one past the highest existing snapshot index.
``benchmarks/compare_bench.py`` diffs two snapshots and fails on large
geo-mean regressions (the scheduled CI job runs it against the latest
committed snapshot).
"""

from __future__ import annotations

import json
import os
import platform
import re
import sys
import tempfile
import time

import numpy as np
import serve_load

from repro.analysis.stats import geometric_mean
from repro.api.cache import ArtifactCache
from repro.api.config import EngineConfig
from repro.api.executor import default_workers
from repro.api.pool import ExecutorPool
from repro.api.service import MappingService
from repro.experiments.fig2 import run_fig2, sweep_requests
from repro.experiments.harness import WorkloadCache
from repro.experiments.profiles import profile_from_env
from repro.mapping.pipeline import FAMILY_MAPPER_NAMES, MAPPER_NAMES
from repro.topology.routing import RouteTable
from repro.topology.torus import Torus3D

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Pool widths measured for the thread/process backends.
WORKER_COUNTS = (2, 4)

#: Batches served through one persistent pool per measurement; batch 1
#: pays spawn + warm-up, the rest show the amortized steady state.
PERSISTENT_BATCHES = 3

#: Snapshot sweep: the paper's seven algorithms + the registered
#: families, so HIER/SFC get Figure 3 entries commit over commit.
BENCH_MAPPERS = MAPPER_NAMES + FAMILY_MAPPER_NAMES


def next_snapshot_path() -> str:
    taken = [
        int(m.group(1))
        for name in os.listdir(REPO_ROOT)
        if (m := re.fullmatch(r"BENCH_(\d+)\.json", name))
    ]
    return os.path.join(REPO_ROOT, f"BENCH_{max(taken, default=0) + 1}.json")


def measure_batch_throughput(profile, cache: WorkloadCache) -> dict:
    """Requests/sec of the sweep per backend, on fresh (cold) services.

    ``sweep_requests`` is the same constructor ``run_fig2`` maps with,
    so the throughput numbers describe exactly the sweep the map-time
    section times.  The spawn-per-call backends pay pool spawn + store
    warm-up on every batch; the ``persistent`` block amortizes both
    over :data:`PERSISTENT_BATCHES` repeats through one
    :class:`ExecutorPool` (fresh front-end service each batch, pool and
    store kept hot — the serving layer's steady state).
    """
    requests = sweep_requests(profile, cache, mappers=BENCH_MAPPERS)

    def run(backend: str, workers) -> dict:
        service = MappingService()
        t0 = time.perf_counter()
        responses = service.map_batch(
            requests, config=EngineConfig(backend=backend, workers=workers)
        )
        elapsed = time.perf_counter() - t0
        assert len(responses) == len(requests) * len(BENCH_MAPPERS)
        return {
            "elapsed_s": elapsed,
            "requests_per_s": len(requests) / elapsed,
        }

    out = {"requests": len(requests), "algorithms_per_request": len(BENCH_MAPPERS)}
    out["serial"] = run("serial", None)
    serial_s = out["serial"]["elapsed_s"]
    for backend in ("thread", "process"):
        out[backend] = {}
        for workers in WORKER_COUNTS:
            m = run(backend, workers)
            m["speedup_vs_serial"] = serial_s / m["elapsed_s"]
            out[backend][str(workers)] = m

    out["persistent"] = {}
    for backend in ("thread", "process"):
        out["persistent"][backend] = {}
        for workers in WORKER_COUNTS:
            per_batch = []
            with ExecutorPool(backend, workers=workers) as pool:
                for _ in range(PERSISTENT_BATCHES):
                    service = MappingService(
                        cache=ArtifactCache(store=pool.store), pool=pool
                    )
                    t0 = time.perf_counter()
                    responses = service.map_batch(requests)
                    per_batch.append(time.perf_counter() - t0)
                    assert len(responses) == len(requests) * len(BENCH_MAPPERS)
            amortized = sum(per_batch) / len(per_batch)
            spawn_ref = out[backend][str(workers)]["elapsed_s"]
            out["persistent"][backend][str(workers)] = {
                "batches": PERSISTENT_BATCHES,
                "per_batch_s": per_batch,
                "first_batch_s": per_batch[0],
                "warm_batch_s": min(per_batch[1:]),
                "amortized_elapsed_s": amortized,
                "requests_per_s": len(requests) / amortized,
                "speedup_vs_serial": serial_s / amortized,
                # vs paying spawn + cold store on every batch (same
                # backend, same width) — the serving layer's headline.
                "speedup_vs_spawn_per_call": spawn_ref / amortized,
            }
    return out


#: Dead-link fractions of the degraded-machine routing sweep.
DEGRADED_FRACTIONS = (0.0, 0.01, 0.05)


def measure_degraded_sweep() -> dict:
    """BFS-detour routing cost on degraded machines (``degraded`` section).

    One 8×8×8 torus, one fixed random pair set, increasing dead-link
    fractions: route-table build time, route-length inflation over the
    healthy geometric distance, and the fraction of pairs whose route
    detours at all.  Tracks the fault-avoiding router's overhead
    trajectory commit over commit.
    """
    rng = np.random.default_rng(29)
    torus = Torus3D((8, 8, 8))
    m = 2000
    src = rng.integers(0, torus.num_nodes, size=m)
    dst = rng.integers(0, torus.num_nodes, size=m)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    base_hops = torus.hop_distance(src, dst)
    num_links = torus.num_nodes * 6
    out = {"torus": list(torus.dims), "pairs": int(src.size), "fractions": {}}
    for frac in DEGRADED_FRACTIONS:
        n_dead = int(round(frac * num_links))
        degraded = (
            torus.with_failures(
                dead_links=rng.choice(num_links, size=n_dead, replace=False)
            )
            if n_dead
            else torus
        )
        t0 = time.perf_counter()
        table = RouteTable.build(degraded, src, dst)
        build_s = time.perf_counter() - t0
        lengths = np.diff(table.ptr)
        out["fractions"][str(frac)] = {
            "dead_links": n_dead,
            "build_s": build_s,
            "total_hops": int(lengths.sum()),
            # >1.0 means detours: extra hops paid to route around faults.
            "length_inflation": float(lengths.sum() / base_hops.sum()),
            "affected_pair_fraction": float((lengths > base_hops).mean()),
        }
    return out


def measure_dist() -> dict:
    """Sharded dispatch vs serial over loopback hosts (``dist`` section).

    Spins up one :class:`~repro.dist.remote.ArtifactStoreServer` and two
    :class:`~repro.dist.host.HostServer` processes on the loopback
    interface, runs the same multi-workload batch serially and sharded,
    and records throughput, speedup, byte-identity of the mappings
    (``MapResponse.fingerprint()``), and the router's placement stats.
    Loopback hosts share the coordinator's CPUs, so the headline here is
    dispatch overhead staying small and results staying identical — not
    wall-clock speedup (that needs real second machines).
    """
    from repro.api.executor import _collect
    from repro.api.plan import build_plan
    from repro.dist import ArtifactStoreServer, HostServer
    from repro.dist.coordinator import run_sharded
    from repro.experiments.fig2 import sweep_requests
    from repro.experiments.profiles import profile_from_env

    profile = profile_from_env(default="ci")
    cache = WorkloadCache(profile)
    requests = sweep_requests(profile, cache, mappers=("UG", "UWH"))
    plan = build_plan(requests)

    service = MappingService()
    t0 = time.perf_counter()
    serial = service.map_batch(requests)
    serial_s = time.perf_counter() - t0

    out = {
        "requests": len(requests),
        "nodes": len(plan.nodes),
        "hosts": 2,
        "serial": {
            "elapsed_s": serial_s,
            "requests_per_s": len(requests) / serial_s,
        },
    }
    with tempfile.TemporaryDirectory(prefix="repro-dist-") as root:
        store_srv = ArtifactStoreServer(os.path.join(root, "store")).start()
        remote = "%s:%d" % store_srv.address
        hosts = []
        try:
            for i in range(2):
                host = HostServer(
                    store_remote=remote,
                    store_dir=os.path.join(root, f"host{i}"),
                    capacity=max(1, default_workers() // 2),
                )
                host.start()
                hosts.append(host)
            addresses = ["%s:%d" % h.address for h in hosts]
            stats = {}
            t0 = time.perf_counter()
            outcomes = run_sharded(
                plan,
                MappingService(),
                addresses,
                store_remote=remote,
                stats_out=stats,
            )
            sharded_s = time.perf_counter() - t0
            responses = _collect(plan, outcomes)
            out["sharded"] = {
                "elapsed_s": sharded_s,
                "requests_per_s": len(requests) / sharded_s,
                "speedup_vs_serial": serial_s / sharded_s,
                "errors": sum(1 for r in responses if r.error is not None),
                "byte_identical": (
                    [r.fingerprint() for r in responses]
                    == [r.fingerprint() for r in serial]
                ),
                "router": stats.get("router"),
                "hosts_lost": stats.get("hosts_lost"),
                "nodes_run_per_host": {
                    h.stats()["host_id"]: h.stats()["nodes_run"] for h in hosts
                },
            }
        finally:
            for h in hosts:
                h.stop()
            store_srv.stop()
    return out


def main(argv) -> str:
    out_path = argv[1] if len(argv) > 1 else next_snapshot_path()
    # Fail on an unwritable destination *before* the minutes-long sweep,
    # without leaving a stray empty snapshot behind if the sweep dies.
    existed = os.path.exists(out_path)
    with open(out_path, "a"):
        pass
    try:
        profile = profile_from_env(default="ci")
        cache = WorkloadCache(profile)
        result = run_fig2(profile, cache, mappers=BENCH_MAPPERS)
        throughput = measure_batch_throughput(profile, cache)
        serving = serve_load.measure_serving()
        degraded = measure_degraded_sweep()
        dist = measure_dist()
    except BaseException:
        if not existed:
            os.unlink(out_path)
        raise

    per_procs = {
        str(procs): {a: result.times[(procs, a)] for a in BENCH_MAPPERS}
        for procs in result.proc_counts
    }
    overall = {
        a: geometric_mean([result.times[(p, a)] for p in result.proc_counts])
        for a in BENCH_MAPPERS
    }
    snapshot = {
        "profile": profile.name,
        "python": platform.python_version(),
        "machine": platform.machine(),
        # Parallel-backend speedups are bounded by this: a 1-CPU host
        # can only show engine overhead, not scaling.  Usable CPUs
        # (cgroup/affinity-aware), not the host's physical count.
        "cpus": default_workers(),
        "cpus_total": os.cpu_count(),
        "geo_mean_map_time_s": overall,
        "geo_mean_map_time_s_by_procs": per_procs,
        # map_batch requests/sec per backend (parallel execution engine).
        "batch_throughput": throughput,
        # Network front end: tail latency under nominal/overload load
        # plus the coalescing burst (benchmarks/serve_load.py).
        "serving": serving,
        # Fault-avoiding router overhead vs dead-link fraction.
        "degraded": degraded,
        # Multi-host sharding over loopback hosts: dispatch overhead
        # and byte-identity vs the serial reference.
        "dist": dist,
        # Shared-artifact reuse during the sweep (MappingService batching).
        "artifact_cache": {
            ns: {"hits": s.hits, "misses": s.misses, "size": s.size}
            for ns, s in cache.artifacts.stats().items()
        },
    }
    with open(out_path, "w") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")
    for a in BENCH_MAPPERS:
        print(f"  {a:>6s}: {overall[a] * 1e3:8.2f} ms")
    print(
        f"  batch: {throughput['requests']} requests, "
        f"serial {throughput['serial']['elapsed_s']:.2f} s"
    )
    for backend in ("thread", "process"):
        for workers, m in throughput[backend].items():
            print(
                f"    {backend}@{workers}: {m['elapsed_s']:.2f} s "
                f"({m['speedup_vs_serial']:.2f}x, "
                f"{m['requests_per_s']:.2f} req/s)"
            )
    for backend in ("thread", "process"):
        for workers, m in throughput["persistent"][backend].items():
            print(
                f"    persistent {backend}@{workers}: "
                f"{m['amortized_elapsed_s']:.2f} s/batch amortized "
                f"(first {m['first_batch_s']:.2f} s, warm "
                f"{m['warm_batch_s']:.2f} s, "
                f"{m['speedup_vs_spawn_per_call']:.2f}x vs spawn-per-call)"
            )
    print("  serving:")
    serve_load._print_summary(serving)
    print("  degraded routing:")
    for frac, m in degraded["fractions"].items():
        print(
            f"    {float(frac) * 100:4.1f}% dead links: build "
            f"{m['build_s'] * 1e3:7.1f} ms, inflation "
            f"{m['length_inflation']:.4f}, affected "
            f"{m['affected_pair_fraction'] * 100:.2f}% of pairs"
        )
    sharded = dist["sharded"]
    print(
        f"  dist: {dist['requests']} requests over {dist['hosts']} loopback "
        f"hosts: {sharded['elapsed_s']:.2f} s "
        f"({sharded['speedup_vs_serial']:.2f}x vs serial), "
        f"byte_identical={sharded['byte_identical']}, "
        f"errors={sharded['errors']}, "
        f"steals={sharded['router']['steals']}"
    )
    return out_path


if __name__ == "__main__":
    main(sys.argv)
