"""Metric declarations and the helpers every workload shares."""

from __future__ import annotations

import math
import os
import resource
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Sequence

#: A percentile is only reported when at least this many samples lie
#: beyond it, so a tail value is never one or two stragglers.
MIN_BEYOND = 10

#: End-to-end metrics, printed by every workload with ``--trace 0``.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "mappings_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "quality.UWH_wh": "ratio",
    "quality.partition_tv": "volume",
}

#: Mappers whose Figure 3 time is reported per layer (DEF is the baseline).
FIG3_MAPPERS = (
    "TMAP", "SMAP", "UG", "UWH", "UMC", "UMMC", "HIER", "HIERWH", "SFC", "SFCWH",
)

#: Placement stages timed per layer.
PLACEMENT_STAGES = ("greedy", "scotch", "topomap", "hier", "sfc")

#: Cache namespaces whose hit ratio is reported per layer.
CACHE_NAMESPACES = ("grouping", "route_table", "def_baseline", "message_coarse")

#: Per-layer metrics, printed by every workload with ``--trace 1``.  A
#: layer that a workload does not exercise, or cannot observe from the
#: benchmark process, reads 0 there (see README.md for which is which).
PER_LAYER: Dict[str, str] = {
    "build.workload_s": "s",
    "build.workloads": "count",
    "partition.bisect_calls": "count",
    "partition.bisect_s": "s",
    "partition.fm_s": "s",
    "grouping.compute_s": "s",
    "grouping.computed": "count",
    **{f"placement.{stage}_s": "s" for stage in PLACEMENT_STAGES},
    "refine.wh_s": "s",
    "refine.mc_s": "s",
    "refine.mmc_s": "s",
    "congestion.evaluate_swaps_calls": "count",
    "congestion.evaluate_swaps_s": "s",
    "congestion.commit_swap_calls": "count",
    "routing.routes_bulk_calls": "count",
    "routing.route_table_build_s": "s",
    "evaluate.calls": "count",
    "evaluate_s": "s",
    **{f"fig3.{algo}_ms": "ms" for algo in FIG3_MAPPERS},
    "quality.UMC_mc": "ratio",
    "quality.UMMC_mmc": "ratio",
    "quality.TMAP_mc": "ratio",
    "quality.HIER_wh": "ratio",
    "plan.build_s": "s",
    "plan.nodes": "count",
    **{f"cache.{ns}.hit_ratio": "ratio" for ns in CACHE_NAMESPACES},
    "pool.batch_p50_s": "s",
    "pool.unattributed_frac": "ratio",
    "pool.speedup_vs_serial": "ratio",
    "store.saves": "count",
    "store.save_skips": "count",
    "store.loads": "count",
    "store.load_hit_ratio": "ratio",
    "serve.latency_p90_ms": "ms",
    "serve.queue_wait_p50_ms": "ms",
    "serve.execute_p50_ms": "ms",
    "serve.coalesce_mean_batch": "count",
    "serve.dispatches": "count",
    "serve.shed": "count",
    "serve.outside_execute_p50_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
    "trace.attributed_frac": "ratio",
}


def mapping_profile(scale: str):
    """The ``ci`` profile's 64-proc group, or its smoke-scale stand-in."""
    from repro.experiments.profiles import get_profile

    if scale == "full":
        return replace(get_profile("ci"), proc_counts=(64,))
    return replace(
        get_profile("smoke"), proc_counts=(16,), rows_per_unit=40,
        corpus_names=("cage15_like", "ecology_like"),
    )


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-quantile (0 < q < 1) of *samples*, linearly interpolated.

    Refused (:class:`TooFewSamples`) unless at least :data:`MIN_BEYOND`
    samples lie strictly above the interpolation point.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} is not in (0, 1)")
    xs = sorted(float(s) for s in samples)
    n = len(xs)
    pos = (n - 1) * q
    lo = math.floor(pos)
    beyond = n - 1 - lo
    if n == 0 or beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has {max(beyond, 0)} beyond it; "
            f"at least {MIN_BEYOND} are needed"
        )
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def min_samples(q: float) -> int:
    """Smallest sample count for which :func:`percentile` accepts *q*."""
    n = 1
    while (n - 1) - math.floor((n - 1) * q) < MIN_BEYOND:
        n += 1
    return n


def geo_mean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    if not logs:
        raise ValueError("geometric mean of no values")
    return math.exp(sum(logs) / len(logs))


def median(values: Sequence[float]) -> float:
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return xs[mid] if n % 2 else (xs[mid - 1] + xs[mid]) / 2


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set of a live process, in KiB (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(child_pids: Iterable[int] = ()) -> float:
    """Peak RSS of this process plus the given live children, in MiB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (self_kb + sum(vm_hwm_kb(pid) for pid in child_pids)) / 1024.0


@dataclass
class Checks:
    """Correctness bookkeeping: every checked output counts as attempted."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


@dataclass
class RunResult:
    """What one workload run reports."""

    checks: Checks
    metrics: Dict[str, float]
    notes: List[str] = field(default_factory=list)


def out_dir(root: str) -> str:
    """The checkout-local directory for traces and scratch files."""
    path = os.path.join(root, ".perfbench-out")
    os.makedirs(path, exist_ok=True)
    return path


def total_volume(requests) -> float:
    """Total communication volume of the requests' distinct task graphs."""
    graphs = {id(r.task_graph): r.task_graph for r in requests}
    return float(sum(tg.total_volume() for tg in graphs.values()))


def cache_hit_ratios(services) -> Dict[str, float]:
    """Hit ratio per reported cache namespace, summed over *services*."""
    hits: Dict[str, int] = {}
    lookups: Dict[str, int] = {}
    for service in services:
        for ns, s in service.cache.stats().items():
            hits[ns] = hits.get(ns, 0) + s.hits
            lookups[ns] = lookups.get(ns, 0) + s.hits + s.misses
    return {
        f"cache.{ns}.hit_ratio": hits[ns] / lookups[ns] if lookups.get(ns) else 0.0
        for ns in CACHE_NAMESPACES
    }
