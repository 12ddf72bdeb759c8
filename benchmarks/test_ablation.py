"""Ablation benches for the design choices DESIGN.md calls out.

* Δ (swap-candidate early exit): the paper fixes Δ=8; the sweep shows
  diminishing WH returns past that point while time keeps growing.
* NBFS best-of-two seeding: running both NBFS ∈ {0, 1} and keeping the
  lower-WH mapping is never worse than either alone.
* Refinement granularity: the paper refines at the coarse (node) level;
  the bench quantifies what the fine-level alternative would cost.
"""

import time

import pytest

from repro.mapping.base import wh_of
from repro.mapping.greedy import GreedyMapper, greedy_map
from repro.mapping.pipeline import prepare_groups
from repro.mapping.refine_wh import WHRefiner


@pytest.fixture(scope="module")
def workload(request):
    # Reuse the session cache through the conftest fixtures.
    profile = request.getfixturevalue("profile")
    cache = request.getfixturevalue("cache")
    procs = profile.proc_counts[min(1, len(profile.proc_counts) - 1)]
    wl = cache.workload("cage15_like", "PATOH", procs)
    machine = cache.machine(procs, profile.alloc_seeds[0])
    groups = cache.groups("cage15_like", "PATOH", procs, profile.alloc_seeds[0])
    return wl, machine, groups


def test_ablation_delta_sweep(benchmark, workload):
    """WH vs Δ: larger budgets help with diminishing returns."""
    wl, machine, (group_of_task, coarse) = workload
    ug = GreedyMapper().map(coarse, machine)

    def sweep():
        out = {}
        for delta in (1, 4, 8, 16, 32):
            t0 = time.perf_counter()
            refined = WHRefiner(delta=delta).refine(coarse, ug)
            dt = time.perf_counter() - t0
            out[delta] = (wh_of(coarse, machine, refined.gamma), dt)
        return out

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("delta   WH        seconds")
    for delta, (wh, dt) in result.items():
        print(f"{delta:5d} {wh:10.0f} {dt:9.4f}")
    whs = [result[d][0] for d in (1, 4, 8, 16, 32)]
    # More budget never hurts quality.
    assert whs[2] <= whs[0] + 1e-9  # Δ=8 at least as good as Δ=1
    # Δ=8 captures most of the achievable gain (paper's choice).
    gain_8 = whs[0] - whs[2]
    gain_32 = whs[0] - whs[4]
    if gain_32 > 0:
        assert gain_8 >= 0.5 * gain_32


def test_ablation_nbfs_best_of_two(benchmark, workload):
    """Best-of-{0,1} seeding dominates both single choices."""
    wl, machine, (_, coarse) = workload

    def run():
        wh0 = wh_of(coarse, machine, greedy_map(coarse, machine, nbfs=0))
        wh1 = wh_of(coarse, machine, greedy_map(coarse, machine, nbfs=1))
        best = wh_of(coarse, machine, GreedyMapper().map(coarse, machine).gamma)
        return wh0, wh1, best

    wh0, wh1, best = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nNBFS=0: {wh0:.0f}  NBFS=1: {wh1:.0f}  best-of-two: {best:.0f}")
    assert best <= min(wh0, wh1) + 1e-9


def test_ablation_coarse_vs_fine_refinement(benchmark, workload):
    """Sec. III-B trade: fine-level refinement buys WH but costs time.

    The paper refines on the coarse graph only, warning that fine-level
    swaps can raise the inter-node volume; this ablation measures both
    sides of that trade with the UWHF extension.
    """
    from repro.mapping.pipeline import get_mapper
    from repro.mapping.refine_fine import fine_wh_of, internode_volume

    wl, machine, groups = workload

    def run():
        out = {}
        for name in ("UWH", "UWHF"):
            t0 = time.perf_counter()
            res = get_mapper(name, seed=1).map(wl.task_graph, machine, groups=groups)
            dt = time.perf_counter() - t0
            out[name] = (
                fine_wh_of(wl.task_graph, machine, res.fine_gamma),
                internode_volume(wl.task_graph, res.fine_gamma),
                dt,
            )
        return out

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("refine    WH        ICV      seconds")
    for name, (wh, icv, dt) in result.items():
        print(f"{name:>6s} {wh:9.0f} {icv:9.0f} {dt:9.3f}")
    # Fine refinement never worsens WH (it starts from UWH's mapping).
    assert result["UWHF"][0] <= result["UWH"][0] + 1e-9


def test_ablation_group_partitioner_strength(benchmark, workload, profile):
    """Stronger phase-1 grouping lowers coarse volume but costs time."""
    from repro.partition.driver import PartitionConfig

    wl, machine, _ = workload

    def run():
        out = {}
        for label, cfg in (
            ("weak", PartitionConfig(fm_passes=1, initial_attempts=1)),
            ("default", PartitionConfig(fm_passes=3, initial_attempts=4)),
            ("strong", PartitionConfig(fm_passes=6, initial_attempts=8)),
        ):
            t0 = time.perf_counter()
            _, coarse = prepare_groups(
                wl.task_graph, machine, seed=1, config=cfg
            )
            out[label] = (coarse.total_volume(), time.perf_counter() - t0)
        return out

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("grouping  inter-node volume   seconds")
    for label, (vol, dt) in result.items():
        print(f"{label:>8s} {vol:18.0f} {dt:9.3f}")
    assert result["strong"][0] <= result["weak"][0] * 1.1
