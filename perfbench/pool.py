"""``pool``: repeated batches through one persistent process pool.

Each batch is the ci profile's 64-proc group (7 PATOH workloads x 2
allocations) x ``DEF,UG,UWH,SFC,SFCWH`` = 70 small mappings, run by
``ExecutorPool("process", workers=2)`` over its default tiered store.
Every odd request takes a fresh grouping seed derived from (seed, batch
index), so each batch publishes new groupings beside warm hits in the
same proportion however long the run is.  Every response is checked
against a serial in-process run of the same inputs after the clock.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from perfbench.common import (
    FIG3_MAPPERS,
    Checks,
    RunResult,
    cache_hit_ratios,
    geo_mean,
    mapping_profile,
    median,
    min_samples,
    peak_rss_mb,
    percentile,
    total_volume,
)
from perfbench.calibrate import Calibration, scaled_timings
from perfbench.tracing import Tracer, instrument, layer_metrics

POOL_MAPPERS = ("DEF", "UG", "UWH", "SFC", "SFCWH")
WORKERS = 2


#: Batches of a traced run, each way (untraced and traced).
TRACED_BATCHES = min_samples(0.5)


def grouping_seed(seed: int, batch: int, index: int) -> int:
    return random.Random(f"pool/{seed}/{batch}/{index}").getrandbits(62)


class PoolWorkload:
    def __init__(self, scale: str, seed: int, store_dir: str) -> None:
        from repro.api.pool import ExecutorPool
        from repro.experiments.fig2 import sweep_requests
        from repro.experiments.harness import WorkloadCache

        profile = mapping_profile(scale)
        self.seed = seed
        t0 = time.perf_counter()
        cache = WorkloadCache(profile, backend="serial", workers=1)
        self.base = sweep_requests(profile, cache, mappers=POOL_MAPPERS)
        self.store_dir = store_dir
        self.pool = ExecutorPool("process", workers=WORKERS, store_dir=store_dir)
        self.map_batch(self.base)  # spawn the workers and warm the fixed half
        self.setup_s = time.perf_counter() - t0

    def batch(self, index: int):
        """Batch *index*: odd requests take a fresh grouping seed."""
        return [
            replace(r, grouping_seed=grouping_seed(self.seed, index, i)) if i % 2 else replace(r)
            for i, r in enumerate(self.base)
        ]

    def map_batch(self, requests, services: Optional[list] = None):
        from repro.api.cache import ArtifactCache
        from repro.api.service import MappingService

        service = MappingService(cache=ArtifactCache(store=self.pool.store), pool=self.pool)
        if services is not None:
            services.append(service)
        t0 = time.perf_counter()
        responses = service.map_batch(requests)
        return time.perf_counter() - t0, responses

    def partition_tv(self) -> float:
        return total_volume(self.base)

    def close(self) -> float:
        """Shut the pool down; returns the run's peak RSS with its workers."""
        rss = peak_rss_mb(self.pool.worker_pids())
        self.pool.shutdown()
        shutil.rmtree(self.store_dir, ignore_errors=True)
        _stop_resource_tracker()
        return rss


def _stop_resource_tracker() -> None:
    """Wait for the resource tracker the shm tier started to exit.

    It would otherwise outlive this process by a moment.  Its
    ``KeyError`` tracebacks at this point are the known shm-tier message
    recorded in README.md, not a failure.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _digest(responses) -> List[Tuple[str, Optional[int], Optional[dict]]]:
    return [
        (r.algorithm, r.fingerprint(), r.metrics.as_dict() if r.ok and r.metrics else None)
        for r in responses
    ]


def _verify(workload: PoolWorkload, checks: Checks, batches: Dict[int, list]) -> List[float]:
    """Check every batch against a serial in-process run; serial seconds per batch."""
    from repro.api.service import MappingService

    reference = MappingService(backend="serial", workers=1)
    serial_s = []
    for index, got in sorted(batches.items()):
        t0 = time.perf_counter()
        want = _digest(reference.map_batch(workload.batch(index)))
        serial_s.append(time.perf_counter() - t0)
        checks.check(len(got) == len(want), f"batch {index}: {len(got)} responses")
        for g, w in zip(got, want):
            checks.check(g == w and g[1] is not None,
                         f"batch {index} {g[0]}: differs from serial")
    return serial_s


def store_counts(stats: dict) -> Dict[str, int]:
    """The coordinator store's I/O counters, summed over its shm and disk tiers.

    Worker processes hold their own store handles, whose counters the
    pool does not report; these are the coordinator's side only.
    """
    tiers = [stats[t] for t in ("shm", "disk") if t in stats] or [stats]
    return {
        "saves": sum(t.get("saves", 0) for t in tiers),
        "save_skips": sum(t.get("save_skips", 0) for t in tiers),
        "loads": stats.get("loads", 0),
        "load_hits": stats.get("load_hits", 0),
    }


def _uwh_ratios(responses) -> List[float]:
    """UWH's WH over DEF's, per request of one batch (Fig. 2's ratio)."""
    per_request = [
        {r.algorithm: r for r in responses[i:i + len(POOL_MAPPERS)]}
        for i in range(0, len(responses), len(POOL_MAPPERS))
    ]
    return [r["UWH"].metrics.wh / r["DEF"].metrics.wh for r in per_request]


def run(seed: int, seconds: float, trace: bool, scale: str, trace_path: str,
        scratch: str) -> RunResult:
    checks = Checks()
    store_dir = os.path.join(scratch, f"pool-store-{os.getpid()}")
    if trace:
        return _run_traced(scale, seed, checks, trace_path, store_dir)
    workload = PoolWorkload(scale, seed, store_dir)
    calibration = Calibration()
    try:
        times: List[float] = []
        batches: Dict[int, list] = {}
        ratios: List[float] = []
        while sum(times) < seconds or len(times) < min_samples(0.5):
            index = len(times)
            elapsed, responses = workload.map_batch(workload.batch(index))
            calibration.measure()
            times.append(elapsed)
            batches[index] = _digest(responses)
            if index < min_samples(0.5):
                ratios.extend(_uwh_ratios(responses))
        mappings = sum(len(b) for b in batches.values())
    finally:
        rss = workload.close()
    _verify(workload, checks, batches)
    timings, note = scaled_timings(
        mappings / sum(times), percentile(times, 0.5) * 1e3, calibration)
    metrics = {
        "setup_s": workload.setup_s,
        **timings,
        "peak_rss_mb": rss,
        "quality.UWH_wh": geo_mean(ratios),
        "quality.partition_tv": workload.partition_tv(),
    }
    return RunResult(checks, metrics, [f"{len(times)} batches, {mappings} mappings", note])


def _run_traced(scale: str, seed: int, checks: Checks, trace_path: str,
                store_dir: str) -> RunResult:
    """Untraced and traced batches alternate; the coordinator is traced."""
    setup_tracer, tracer = Tracer(), Tracer()
    with instrument(setup_tracer):
        workload = PoolWorkload(scale, seed, store_dir)
    try:
        plain: List[float] = []
        traced: List[float] = []
        batches: Dict[int, list] = {}
        stage_s: Dict[str, float] = {}
        fig3: Dict[str, List[float]] = {a: [] for a in FIG3_MAPPERS}
        services: list = []
        store_before = store_counts(workload.pool.stats()["store"])
        for index in range(2 * TRACED_BATCHES):
            pair, second = divmod(index, 2)
            is_traced = bool(second) != bool(pair % 2)
            requests = workload.batch(index)
            if is_traced:
                with instrument(tracer), tracer.span("batch", request=index):
                    elapsed, responses = workload.map_batch(requests, services)
                traced.append(elapsed)
                for r in responses:
                    for stage, t in r.stage_times.items():
                        stage_s[stage] = stage_s.get(stage, 0.0) + t
                    if r.algorithm in fig3:
                        fig3[r.algorithm].append(max(r.map_time, 1e-6))
            else:
                elapsed, responses = workload.map_batch(requests)
                plain.append(elapsed)
            batches[index] = _digest(responses)
        store_after = store_counts(workload.pool.stats()["store"])
    finally:
        workload.close()
    serial_s = _verify(workload, checks, batches)
    setup_tracer.spans.extend(tracer.spans)
    setup_tracer.write_chrome(trace_path)

    metrics = layer_metrics(tracer)
    metrics["build.workload_s"] = setup_tracer.total_time("build.workload")
    metrics["build.workloads"] = float(setup_tracer.counts["build.workloads"])
    for stage, t in stage_s.items():
        kind, _, name = stage.partition(":")
        if kind in ("placement", "refine") and name:
            metrics[f"{kind}.{name}_s"] = t
    metrics.update({
        f"fig3.{a}_ms": geo_mean(ts) * 1e3 for a, ts in fig3.items() if ts
    })
    metrics.update(cache_hit_ratios(services))
    traced_total = sum(traced)
    busy = sum(stage_s.values())
    metrics["pool.batch_p50_s"] = percentile(traced, 0.5)
    metrics["pool.unattributed_frac"] = 1.0 - busy / (WORKERS * traced_total)
    metrics["pool.speedup_vs_serial"] = median(serial_s) / median(plain + traced)
    store = {k: store_after[k] - store_before[k] for k in store_after}
    metrics.update({f"store.{k}": float(store[k]) for k in ("saves", "save_skips", "loads")})
    loads = store["loads"]
    metrics["store.load_hit_ratio"] = store["load_hits"] / loads if loads else 0.0
    attributed = sum(t for name, t in tracer.self_times().items() if name != "batch")
    metrics["trace.overhead_frac"] = median(traced) / median(plain) - 1.0
    metrics["trace.unattributed_s"] = traced_total - attributed - busy / WORKERS
    metrics["trace.attributed_frac"] = (attributed + busy / WORKERS) / traced_total
    notes = [
        f"{len(traced)} traced + {len(plain)} untraced batches; trace written to {trace_path}",
    ]
    return RunResult(checks, metrics, notes)

