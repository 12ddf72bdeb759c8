"""Figure 2 — mapping metrics on PATOH graphs, normalized to DEF.

"Mean metric values of the algorithms on G^PATOH_t graphs normalized
w.r.t. those of DEF" for TH, WH, MMC and MC at every processor count,
over the mapping algorithms DEF, TMAP, SMAP, UG, UWH, UMC, UMMC and the
profile's allocations.  Expected shape (Sec. IV-B): UG improves WH/TH by
5–18%; UWH adds another few percent; UMC cuts MC by 27–37%; UMMC cuts
MMC by 24–37%; TMAP improves MC by only 1–7%; SMAP is worse than DEF on
most metrics.

Figure 3 (mapping times) falls out of the same runs, so this module also
records per-algorithm geometric-mean mapping times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.stats import geo_mean_ratio, geometric_mean
from repro.api.request import MapRequest
from repro.experiments.harness import WorkloadCache
from repro.experiments.profiles import ExperimentProfile, get_profile
from repro.mapping.pipeline import MAPPER_NAMES
from repro.util.rng import mix_seed

__all__ = [
    "run_fig2",
    "sweep_requests",
    "format_fig2",
    "format_fig3",
    "Fig2Result",
    "FIG2_METRICS",
]

FIG2_METRICS: Tuple[str, ...] = ("TH", "WH", "MMC", "MC")


@dataclass
class Fig2Result:
    """Normalized metrics ``values[(procs, mapper, metric)]`` + times."""

    profile: str
    proc_counts: Tuple[int, ...]
    values: Dict[Tuple[int, str, str], float]
    #: geometric-mean mapping seconds per (procs, mapper) — Figure 3.
    times: Dict[Tuple[int, str], float]
    #: the algorithms the sweep actually ran (figure order).
    mappers: Tuple[str, ...] = MAPPER_NAMES


def sweep_requests(
    profile: ExperimentProfile,
    cache: WorkloadCache,
    partitioner: str = "PATOH",
    mappers: Tuple[str, ...] = MAPPER_NAMES,
) -> List[MapRequest]:
    """The Fig. 2/3 sweep as one request list, in sweep order.

    The single authority on the sweep's request construction — per-run
    seed formula, shared grouping seed, evaluation flag — used both by
    :func:`run_fig2` and by the benchmark's ``sweep`` workload
    (``perfbench/sweep.py``), so the two always measure the same sweep.
    Each request is tagged ``procs`` for aggregation.  *mappers*
    defaults to the paper's seven algorithms; the benchmark passes an
    extended list so the HIER/SFC families get Fig. 3 entries too.
    """
    requests: List[MapRequest] = []
    for procs in profile.proc_counts:
        for entry in cache.corpus_entries():
            wl = cache.workload(entry.name, partitioner, procs)
            for alloc_seed in profile.alloc_seeds:
                machine = cache.machine(procs, alloc_seed)
                requests.append(
                    MapRequest(
                        task_graph=wl.task_graph,
                        machine=machine,
                        algorithms=mappers,
                        seed=mix_seed(profile.seed, alloc_seed * 37 + procs),
                        grouping_seed=cache.grouping_seed(
                            entry.name, partitioner, procs, alloc_seed
                        ),
                        evaluate=True,
                        tag=procs,
                    )
                )
    return requests


def run_fig2(
    profile: Optional[ExperimentProfile] = None,
    cache: Optional[WorkloadCache] = None,
    partitioner: str = "PATOH",
    mappers: Tuple[str, ...] = MAPPER_NAMES,
) -> Fig2Result:
    """Map every PATOH task graph with all seven algorithms.

    Each processor count's requests go through ``map_batch`` as one
    plan, so the execution engine sees all of that group's
    grouping/baseline/route artifacts at once (shared groupings
    computed exactly once, DEF/TMAP run their own by spec) and the
    ``process`` backend (``WorkloadCache(backend=...)`` or
    ``REPRO_BACKEND``) fans the whole ready frontier out over worker
    processes instead of seven algorithms at a time.  Batching per processor count — not
    the entire sweep — bounds peak memory to one group's responses
    (rank-sized Γ vectors and coarse graphs) while still giving the
    engine dozens of independent nodes per plan.
    """
    profile = profile or get_profile("ci")
    cache = cache or WorkloadCache(profile)
    if "DEF" not in mappers:
        raise ValueError("run_fig2 normalizes to DEF; include it in mappers")
    values: Dict[Tuple[int, str, str], float] = {}
    times: Dict[Tuple[int, str], float] = {}
    requests = sweep_requests(profile, cache, partitioner, mappers)

    for procs in profile.proc_counts:
        raw: Dict[str, Dict[str, List[float]]] = {
            a: {m: [] for m in FIG2_METRICS} for a in mappers
        }
        raw_times: Dict[str, List[float]] = {a: [] for a in mappers}
        group = [r for r in requests if r.tag == procs]
        for response in cache.service.map_batch(group):
            algo = response.algorithm
            d = response.metrics.as_dict()
            for m in FIG2_METRICS:
                raw[algo][m].append(float(d[m]))
            raw_times[algo].append(max(response.map_time, 1e-6))
        for algo in mappers:
            for m in FIG2_METRICS:
                values[(procs, algo, m)] = geo_mean_ratio(raw[algo][m], raw["DEF"][m])
            times[(procs, algo)] = geometric_mean(raw_times[algo])
    return Fig2Result(
        profile=profile.name,
        proc_counts=tuple(profile.proc_counts),
        values=values,
        times=times,
        mappers=tuple(mappers),
    )


def format_fig2(result: Fig2Result) -> str:
    """Paper-layout table: one row per (procs, mapper)."""
    lines = [
        f"Figure 2 (profile={result.profile}): mapping metrics on PATOH graphs, "
        "normalized to DEF"
    ]
    header = f"{'procs':>7s} {'mapper':>6s} " + " ".join(
        f"{m:>7s}" for m in FIG2_METRICS
    )
    lines.append(header)
    lines.append("-" * len(header))
    for procs in result.proc_counts:
        for algo in result.mappers:
            row = " ".join(
                f"{result.values[(procs, algo, m)]:7.3f}" for m in FIG2_METRICS
            )
            lines.append(f"{procs:>7d} {algo:>6s} {row}")
    return "\n".join(lines)


def format_fig3(result: Fig2Result) -> str:
    """Figure 3 companion table: geometric-mean mapping times (seconds)."""
    lines = [f"Figure 3 (profile={result.profile}): geo-mean mapping times (s)"]
    mappers = [a for a in result.mappers if a != "DEF"]
    header = f"{'procs':>7s} " + " ".join(f"{a:>9s}" for a in mappers)
    lines.append(header)
    lines.append("-" * len(header))
    for procs in result.proc_counts:
        row = " ".join(f"{result.times[(procs, a)]:9.4f}" for a in mappers)
        lines.append(f"{procs:>7d} {row}")
    return "\n".join(lines)
