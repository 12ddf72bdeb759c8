"""``sweep``: the Fig. 2/3 sweep of the ci profile's 64-proc group, cold.

A pass maps the group's 7 PATOH workloads on 4 seeded allocations with
all 11 mappers (308 mappings) on a fresh ``MappingService`` over freshly
built machines, one ``map_batch`` per request, so each request's
latency is observable.  Passes repeat until the run's seconds are used;
quality is taken from the first pass, which every run completes.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from typing import Dict, List

import numpy as np

from perfbench.common import (
    FIG3_MAPPERS,
    Checks,
    RunResult,
    cache_hit_ratios,
    geo_mean,
    mapping_profile,
    min_samples,
    peak_rss_mb,
    percentile,
    total_volume,
)
from perfbench.calibrate import Calibration, scaled_timings
from perfbench.tracing import Tracer, instrument, layer_metrics

#: The paper's seven mappers plus the HIER/SFC families, as emit_bench runs them.
BENCH_MAPPERS = ("DEF",) + FIG3_MAPPERS

#: (name, algorithm, metric) of every DEF-normalised quality figure.
QUALITY = (
    ("quality.UWH_wh", "UWH", "WH"),
    ("quality.UMC_mc", "UMC", "MC"),
    ("quality.UMMC_mmc", "UMMC", "MMC"),
    ("quality.TMAP_mc", "TMAP", "MC"),
    ("quality.HIER_wh", "HIER", "WH"),
)


#: Allocations per pass; more distinct allocations per run, less seed noise.
ALLOCATIONS = 4


def sweep_profile(scale: str, seed: int):
    """The experiment profile of one run: allocation seeds come from *seed*."""
    return replace(
        mapping_profile(scale),
        alloc_seeds=tuple(ALLOCATIONS * seed + i for i in range(ALLOCATIONS)),
    )


def placement_valid(fine_gamma: np.ndarray, machine, num_tasks: int) -> bool:
    """Independent validity oracle for one fine mapping.

    Every rank sits on an allocated node and no node holds more ranks
    than its processor count.
    """
    gamma = np.asarray(fine_gamma)
    if gamma.shape != (num_tasks,) or gamma.size == 0:
        return False
    num_nodes = machine.torus.num_nodes
    if gamma.min() < 0 or gamma.max() >= num_nodes:
        return False
    capacity = np.zeros(num_nodes, dtype=np.int64)
    capacity[np.asarray(machine.alloc_nodes)] = np.asarray(machine.capacities)
    load = np.bincount(gamma, minlength=num_nodes)
    return bool(np.all(load <= capacity))


def quality_of(per_request: List[Dict[str, object]]) -> Dict[str, float]:
    """DEF-normalised geo-mean quality over requests (Fig. 2's figure)."""
    out = {}
    for name, algo, metric in QUALITY:
        ratios = [
            r[algo].metrics.as_dict()[metric] / r["DEF"].metrics.as_dict()[metric]
            for r in per_request
            if algo in r
        ]
        out[name] = geo_mean(ratios) if ratios else 0.0
    return out


class Sweep:
    def __init__(self, scale: str, seed: int) -> None:
        from repro.experiments.fig2 import sweep_requests
        from repro.experiments.harness import WorkloadCache

        self.profile = sweep_profile(scale, seed)
        t0 = time.perf_counter()
        self.cache = WorkloadCache(self.profile, backend="serial", workers=1)
        self.requests = sweep_requests(self.profile, self.cache, mappers=BENCH_MAPPERS)
        self.setup_s = time.perf_counter() - t0
        procs = self.profile.proc_counts[0]
        self.alloc_of = {
            id(self.cache.machine(procs, a)): a for a in self.profile.alloc_seeds
        }
        self.order = list(range(len(self.requests)))
        random.Random(seed).shuffle(self.order)

    def partition_tv(self) -> float:
        return total_volume(self.requests)

    def fresh_pass(self):
        """The pass's requests over newly built machines, and a new service."""
        from repro.api.service import MappingService
        from repro.experiments.harness import build_machine

        machines = {
            key: build_machine(self.profile, self.profile.proc_counts[0], alloc)
            for key, alloc in self.alloc_of.items()
        }
        requests = [replace(r, machine=machines[id(r.machine)]) for r in self.requests]
        return requests, MappingService(backend="serial", workers=1)

    def map_one(self, service, request):
        t0 = time.perf_counter()
        responses = service.map_batch([request])
        return time.perf_counter() - t0, responses


def check_responses(checks: Checks, request, responses) -> Dict[str, object]:
    by_algo = {}
    checks.check(
        [r.algorithm for r in responses] == list(request.algorithms),
        f"request {request.tag}: algorithms {[r.algorithm for r in responses]}",
    )
    for r in responses:
        ok = r.ok and placement_valid(
            r.fine_gamma, request.machine, request.task_graph.num_tasks)
        checks.check(ok, f"{r.algorithm}: invalid placement or error {r.error}")
        by_algo[r.algorithm] = r
    return by_algo


def run(seed: int, seconds: float, trace: bool, scale: str, trace_path: str) -> RunResult:
    checks = Checks()
    if trace:
        return _run_traced(scale, seed, checks, trace_path)
    sweep = Sweep(scale, seed)
    calibration = Calibration()
    latencies: List[float] = []
    first_pass: List[Dict[str, object]] = []
    done = mappings = 0
    need = max(min_samples(0.5), len(sweep.order))
    while sum(latencies) < seconds or done < need:
        k = done % len(sweep.order)
        if k == 0:
            requests, service = sweep.fresh_pass()
        request = requests[sweep.order[k]]
        elapsed, responses = sweep.map_one(service, request)
        calibration.measure()
        latencies.append(elapsed)
        mappings += len(responses)
        by_algo = check_responses(checks, request, responses)
        if done < len(sweep.order):
            first_pass.append(by_algo)
        done += 1
    quality = quality_of(first_pass)
    timings, note = scaled_timings(
        mappings / sum(latencies), percentile(latencies, 0.5) * 1e3, calibration)
    metrics = {
        "setup_s": sweep.setup_s,
        **timings,
        "peak_rss_mb": peak_rss_mb(),
        "quality.UWH_wh": quality["quality.UWH_wh"],
        "quality.partition_tv": sweep.partition_tv(),
    }
    notes = [f"{done} requests ({mappings} mappings) in {sum(latencies):.2f} s busy", note]
    return RunResult(checks, metrics, notes)


def _run_traced(scale: str, seed: int, checks: Checks, trace_path: str) -> RunResult:
    """One untraced and one traced pass, alternating request by request."""
    setup_tracer, tracer = Tracer(), Tracer()
    with instrument(setup_tracer):
        sweep = Sweep(scale, seed)
    plain_requests, plain_service = sweep.fresh_pass()
    traced_requests, traced_service = sweep.fresh_pass()
    plain_s = traced_s = 0.0
    traced_pass: List[Dict[str, object]] = []
    window = time.perf_counter()
    for n, k in enumerate(sweep.order):
        for traced in ((False, True) if n % 2 else (True, False)):
            if traced:
                request = traced_requests[k]
                with instrument(tracer), tracer.span("request", request=k):
                    elapsed, responses = sweep.map_one(traced_service, request)
                traced_s += elapsed
                traced_pass.append(check_responses(checks, request, responses))
            else:
                request = plain_requests[k]
                elapsed, responses = sweep.map_one(plain_service, request)
                plain_s += elapsed
                check_responses(checks, request, responses)
    window = time.perf_counter() - window
    setup_tracer.spans.extend(tracer.spans)
    setup_tracer.write_chrome(trace_path)

    metrics = layer_metrics(tracer)
    metrics["build.workload_s"] = setup_tracer.total_time("build.workload")
    metrics["build.workloads"] = float(setup_tracer.counts["build.workloads"])
    attributed = sum(t for name, t in tracer.self_times().items() if name != "request")
    metrics.update(quality_of(traced_pass))
    metrics.update(_fig3(traced_pass))
    metrics.update(cache_hit_ratios([traced_service]))
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    metrics["trace.unattributed_s"] = traced_s - attributed
    metrics["trace.attributed_frac"] = attributed / traced_s
    notes = [
        f"traced pass {traced_s:.2f} s, untraced {plain_s:.2f} s, window {window:.2f} s",
        f"trace written to {trace_path}",
    ]
    return RunResult(checks, metrics, notes)


def _fig3(per_request: List[Dict[str, object]]) -> Dict[str, float]:
    out = {}
    for algo in FIG3_MAPPERS:
        times = [max(r[algo].map_time, 1e-6) for r in per_request if algo in r]
        out[f"fig3.{algo}_ms"] = geo_mean(times) * 1e3 if times else 0.0
    return out

