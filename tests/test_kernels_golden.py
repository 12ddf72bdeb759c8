"""Golden-equivalence tests for the vectorized kernel layer.

The ``src/repro/kernels/`` refactor (hop tables, batched swap-gain
evaluation, shared CSR frontier expansion, array-backed heaps) must
preserve *bit-identical* mappings — same Γ vectors, same tie-breaks —
as the scalar paths it replaced.  The goldens in
``tests/data/golden_mappings.json`` were generated by running the
pre-refactor scalar implementation on the seeded scenarios below
(``python tests/test_kernels_golden.py`` regenerates them; do NOT
regenerate after touching mapping code unless a behaviour change is
intended and reviewed).

Scenarios cover all seven paper algorithms plus the UTH/UWHF
extensions (``EXTENDED_MAPPER_NAMES``), a heterogeneous-capacity
machine and a disconnected task graph, per the kernel-layer issue.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.graph.task_graph import TaskGraph
from repro.mapping.pipeline import EXTENDED_MAPPER_NAMES, TwoPhaseMapper
from repro.metrics.mapping import evaluate_mapping
from repro.topology.allocation import AllocationSpec, SparseAllocator
from repro.topology.machine import Machine
from repro.topology.torus import Torus3D

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_mappings.json")


def _random_task_graph(n: int, m: int, seed: int) -> TaskGraph:
    """Random sparse task graph with integer volumes (deterministic)."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    keep = src != dst
    vol = rng.integers(1, 12, size=m).astype(np.float64)
    return TaskGraph.from_edges(n, src[keep], dst[keep], vol[keep])


def _disconnected_task_graph(seed: int) -> TaskGraph:
    """Two 40-task components with no edges between them."""
    rng = np.random.default_rng(seed)
    srcs, dsts, vols = [], [], []
    for base in (0, 40):
        s = rng.integers(0, 40, size=140) + base
        d = rng.integers(0, 40, size=140) + base
        v = rng.integers(1, 9, size=140).astype(np.float64)
        keep = s != d
        srcs.append(s[keep])
        dsts.append(d[keep])
        vols.append(v[keep])
    return TaskGraph.from_edges(
        80, np.concatenate(srcs), np.concatenate(dsts), np.concatenate(vols)
    )


def _allocated_machine(
    dims, num_nodes: int, procs_per_node: int, seed: int
) -> Machine:
    return SparseAllocator(Torus3D(dims)).allocate(
        AllocationSpec(
            num_nodes=num_nodes,
            procs_per_node=procs_per_node,
            fragmentation=0.3,
            seed=seed,
        )
    )


def _heterogeneous_machine(seed: int) -> Machine:
    """24 allocated nodes with per-node capacities cycling 3..5."""
    torus = Torus3D((4, 4, 4))
    rng = np.random.default_rng(seed)
    nodes = np.sort(rng.choice(torus.num_nodes, size=24, replace=False))
    caps = 3 + (np.arange(24) % 3)  # 3,4,5,3,4,...
    return Machine(torus, nodes, caps)


def scenarios():
    """(name, task_graph, machine, mapper_names) golden scenarios."""
    main_machine = _allocated_machine((5, 4, 3), 24, 4, seed=5)
    het_machine = _heterogeneous_machine(seed=9)
    disc_machine = _allocated_machine((4, 4, 4), 20, 4, seed=11)
    return [
        ("dense96", _random_task_graph(96, 700, seed=17), main_machine, EXTENDED_MAPPER_NAMES),
        ("hetero", _random_task_graph(90, 520, seed=23), het_machine, EXTENDED_MAPPER_NAMES),
        ("disconnected", _disconnected_task_graph(seed=31), disc_machine, EXTENDED_MAPPER_NAMES),
    ]


def _run_all():
    """Run every (scenario, mapper) pair; return the golden record dict."""
    record = {}
    for name, tg, machine, mapper_names in scenarios():
        for algo in mapper_names:
            result = TwoPhaseMapper(algorithm=algo, seed=3).map(tg, machine)
            metrics = evaluate_mapping(tg, machine, result.fine_gamma)
            record[f"{name}/{algo}"] = {
                "fine_gamma": result.fine_gamma.tolist(),
                "coarse_gamma": result.coarse_gamma.tolist(),
                "wh": metrics.wh,
                "mc": metrics.mc,
                "mmc": metrics.mmc,
            }
    return record


@pytest.fixture(scope="module")
def golden():
    if not os.path.exists(GOLDEN_PATH):
        pytest.fail(
            "golden file missing; run `python tests/test_kernels_golden.py` "
            "on the reference implementation to generate it"
        )
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("scenario_idx", range(3))
def test_golden_equivalence(golden, scenario_idx):
    """The batched kernels reproduce the scalar-reference goldens bit for bit."""
    name, tg, machine, mapper_names = scenarios()[scenario_idx]
    for algo in mapper_names:
        key = f"{name}/{algo}"
        assert key in golden, f"missing golden entry {key}"
        result = TwoPhaseMapper(algorithm=algo, seed=3).map(tg, machine)
        want = golden[key]
        np.testing.assert_array_equal(
            result.fine_gamma,
            np.asarray(want["fine_gamma"], dtype=np.int64),
            err_msg=f"fine Γ diverged from scalar reference for {key}",
        )
        np.testing.assert_array_equal(
            result.coarse_gamma,
            np.asarray(want["coarse_gamma"], dtype=np.int64),
            err_msg=f"coarse Γ diverged from scalar reference for {key}",
        )
        metrics = evaluate_mapping(tg, machine, result.fine_gamma)
        assert metrics.wh == want["wh"], f"WH diverged for {key}"
        assert metrics.mc == want["mc"], f"MC diverged for {key}"
        assert metrics.mmc == want["mmc"], f"MMC diverged for {key}"


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    data = _run_all()
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
    print(f"wrote {len(data)} golden entries to {GOLDEN_PATH}")
