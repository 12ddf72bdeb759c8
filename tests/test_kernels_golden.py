"""Golden-equivalence tests for the vectorized kernel layer.

The ``src/repro/kernels/`` refactor (hop tables, batched swap-gain
evaluation, shared CSR frontier expansion, array-backed heaps) must
preserve *bit-identical* mappings — same Γ vectors, same tie-breaks —
as the scalar paths it replaced.  The goldens in
``tests/data/golden_mappings.json`` were generated by running the
pre-refactor scalar implementation on the seeded scenarios below
(``python tests/test_kernels_golden.py`` only *adds* the keys the file
lacks; when an existing key's value would change it writes nothing,
lists those keys and exits 1).  New keys are generated with the mapping
code of the commit *before* the change they are meant to pin.

Scenarios cover all seven paper algorithms plus the UTH/UWHF
extensions (``EXTENDED_MAPPER_NAMES``), a heterogeneous-capacity
machine, a disconnected task graph, and a degraded torus (one dead
node, one dead link direction) whose BFS tie order only these goldens
pin.  The WH-refining mappers also run at the serve workload's shapes
(ppn 4 on 16 and 32 allocated nodes, and 32 with one-way dead links).
"""

from __future__ import annotations

import json
import os
import sys

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


def _degraded_machine() -> Machine:
    """20 live nodes of a 4x4x4 torus: node 37 dead, link 1 -> 5 dead.

    Only the ``1 -> 5`` direction of that cable fails (link id
    ``1 * 6 + 2``), so BFS distances between allocated nodes are not
    symmetric on this machine, and every degraded mapper's output differs
    from what ring distances would give.
    """
    return _allocated_machine((4, 4, 4), 21, 4, seed=13).degrade(
        dead_links=[8], dead_nodes=[37]
    )


DEGRADED_MAPPER_NAMES = ("UG", "UWH", "UMC", "UMMC", "UWHF")

#: The WH-refining mappers, at the serve workload's shapes (ppn 4 on 16
#: and 32 allocated nodes) where Algorithm 2 scores from its swap-cost table.
WH_MAPPER_NAMES = ("UWH", "HIERWH", "SFCWH")


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


def wh_scenarios():
    """Serve-shaped WH scenarios: 16 and 32 nodes, and 32 with dead links."""
    m16 = _allocated_machine((4, 4, 4), 16, 4, seed=61)
    m32 = _allocated_machine((6, 4, 4), 32, 4, seed=67)
    # the +x link out of four allocated nodes fails, in that direction only.
    dead = m32.degrade(dead_links=[int(n) * 6 for n in m32.alloc_nodes[:4]])
    return [
        ("wh16", _random_task_graph(64, 420, seed=71), m16, WH_MAPPER_NAMES),
        ("wh32", _random_task_graph(128, 900, seed=73), m32, WH_MAPPER_NAMES),
        ("wh32dead", _random_task_graph(128, 900, seed=79), dead, WH_MAPPER_NAMES),
    ]


def all_scenarios():
    """:func:`scenarios`, the degraded-torus scenario and :func:`wh_scenarios`."""
    degraded = _random_task_graph(80, 560, seed=41), _degraded_machine()
    return scenarios() + [("degraded", *degraded, DEGRADED_MAPPER_NAMES)] + wh_scenarios()


def _run_all(cases=None):
    """Run every (scenario, mapper) pair; return the golden record dict."""
    record = {}
    for name, tg, machine, mapper_names in cases or all_scenarios():
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


def add_missing_goldens(path=GOLDEN_PATH, cases=None):
    """Add the golden record of every key *path* lacks; rewrite nothing.

    Returns ``(added, changed)``.  When some existing key's record would
    change, *changed* lists those keys and the file is left untouched, so
    adding scenarios can never silently rewrite a reference.
    """
    existing = {}
    if os.path.exists(path):
        with open(path) as fh:
            existing = json.load(fh)
    fresh = _run_all(cases)
    changed = sorted(k for k in fresh if k in existing and existing[k] != fresh[k])
    added = sorted(k for k in fresh if k not in existing)
    if changed or not added:
        return added, changed
    existing.update((k, fresh[k]) for k in added)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(existing, fh, indent=1, sort_keys=True)
    return added, changed


@pytest.fixture(scope="module")
def golden():
    if not os.path.exists(GOLDEN_PATH):
        pytest.fail(
            "golden file missing; run `python tests/test_kernels_golden.py` "
            "on the reference implementation to generate it"
        )
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("scenario_idx", range(7))
def test_golden_equivalence(golden, scenario_idx):
    """The batched kernels reproduce the scalar-reference goldens bit for bit."""
    name, tg, machine, mapper_names = all_scenarios()[scenario_idx]
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


def test_degraded_machine_is_asymmetric():
    """The degraded scenario really exercises a one-way dead link."""
    machine = _degraded_machine()
    assert 37 not in machine.alloc_nodes.tolist()
    levels_from_1 = machine.graph().bfs_levels([1])
    levels_from_5 = machine.graph().bfs_levels([5])
    assert levels_from_1[5] > 1 and levels_from_5[1] == 1


def test_add_missing_goldens_adds_but_never_rewrites(tmp_path):
    tg = _random_task_graph(12, 40, seed=1)
    machine = _allocated_machine((2, 2, 2), 3, 4, seed=2)
    cases = [("tiny", tg, machine, ("UG",))]
    (want,) = _run_all(cases).values()
    path = str(tmp_path / "golden.json")
    with open(path, "w") as fh:
        json.dump({"keep": 1}, fh)
    assert add_missing_goldens(path, cases) == (["tiny/UG"], [])
    with open(path) as fh:
        assert json.load(fh) == {"keep": 1, "tiny/UG": want}
    stale = dict(want, wh=want["wh"] + 1)
    with open(path, "w") as fh:
        json.dump({"tiny/UG": stale}, fh)
    assert add_missing_goldens(path, cases) == ([], ["tiny/UG"])
    with open(path) as fh:
        assert json.load(fh) == {"tiny/UG": stale}


if __name__ == "__main__":
    added, changed = add_missing_goldens()
    if changed:
        print(f"refusing to write {GOLDEN_PATH}: {len(changed)} existing key(s) would change:")
        for key in changed:
            print(f"  {key}")
        sys.exit(1)
    print(f"added {len(added)} golden entries to {GOLDEN_PATH}")
    for key in added:
        print(f"  {key}")
