"""Golden + backend-parity tests for the HIER and SFC mapper families.

The families registered by this PR (hierarchical per-dimension
partitioning à la Schulz & Woydt; geometric SFC curve-zip placement à
la Deveci et al.) are pinned the same way the paper algorithms are:

* ``tests/data/golden_families.json`` records fine/coarse Γ and metrics
  for every (scenario, family) pair on the scenarios of
  ``test_kernels_golden`` — uniform, heterogeneous-capacity and
  disconnected workloads (``python tests/test_mapping_families.py``
  regenerates; do NOT regenerate unless a behaviour change is intended
  and reviewed);
* both execution backends — ``serial`` and ``process`` —
  must reproduce those goldens byte for byte.

Plus structural properties the goldens cannot express: placements are
capacity-feasible bijections, the curve orders are grid-adjacent walks,
and the families ride the shared grouping in the batch planner.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import test_kernels_golden as scenarios_mod  # noqa: E402

from repro.api import EngineConfig, MapRequest, MappingService, build_plan, get_spec  # noqa: E402
from repro.mapping.hier import hierarchical_map  # noqa: E402
from repro.mapping.pipeline import FAMILY_MAPPER_NAMES, prepare_groups  # noqa: E402
from repro.mapping.sfc import sfc_map  # noqa: E402
from repro.util.sfc import gray3d_order, snake3d_order  # noqa: E402

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_families.json"
)


def _scenario_requests():
    """One multi-request batch: every golden scenario × the families."""
    return [
        MapRequest(
            task_graph=tg,
            machine=machine,
            algorithms=FAMILY_MAPPER_NAMES,
            seed=3,
            evaluate=True,
            tag=name,
        )
        for name, tg, machine, _ in scenarios_mod.scenarios()
    ]


def _run_all():
    """Serial reference run; returns the golden record dict."""
    record = {}
    for response in MappingService().map_batch(_scenario_requests()):
        record[f"{response.tag}/{response.algorithm}"] = {
            "fine_gamma": response.fine_gamma.tolist(),
            "coarse_gamma": response.coarse_gamma.tolist(),
            "wh": response.metrics.wh,
            "mc": response.metrics.mc,
            "mmc": response.metrics.mmc,
        }
    return record


@pytest.fixture(scope="module")
def golden():
    if not os.path.exists(GOLDEN_PATH):
        pytest.fail(
            "golden file missing; run `python tests/test_mapping_families.py` "
            "to generate it"
        )
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _assert_matches_golden(responses, golden):
    assert len(responses) == len(golden)
    for r in responses:
        key = f"{r.tag}/{r.algorithm}"
        want = golden[key]
        np.testing.assert_array_equal(
            r.fine_gamma,
            np.asarray(want["fine_gamma"], dtype=np.int64),
            err_msg=f"fine Γ diverged for {key}",
        )
        np.testing.assert_array_equal(
            r.coarse_gamma,
            np.asarray(want["coarse_gamma"], dtype=np.int64),
            err_msg=f"coarse Γ diverged for {key}",
        )
        assert r.metrics.wh == want["wh"], f"WH diverged for {key}"
        assert r.metrics.mc == want["mc"], f"MC diverged for {key}"
        assert r.metrics.mmc == want["mmc"], f"MMC diverged for {key}"


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_family_goldens_on_every_backend(golden, backend):
    """HIER/SFC goldens are byte-identical on all execution backends."""
    responses = MappingService().map_batch(
        _scenario_requests(), config=EngineConfig(backend=backend, workers=2)
    )
    _assert_matches_golden(responses, golden)


def test_family_goldens_through_disk_store(golden, tmp_path):
    """Goldens are byte-identical when a disk store carries the artifacts.

    The process backend round-trips groupings and route tables through
    the artifact store, so this is the end-to-end proof that the store
    codec reproduces the goldens bit for bit.
    """
    responses = MappingService().map_batch(
        _scenario_requests(),
        config=EngineConfig(
            backend="process",
            workers=2,
            store_dir=str(tmp_path / "store"),
        ),
    )
    _assert_matches_golden(responses, golden)


class TestPlacementProperties:
    @pytest.fixture(scope="class")
    def coarse_setups(self):
        """(coarse graph, machine) per golden scenario, shared grouping."""
        out = []
        for name, tg, machine, _ in scenarios_mod.scenarios():
            group_of_task, coarse = prepare_groups(tg, machine, seed=3)
            out.append((name, coarse, machine))
        return out

    def test_bijection_and_capacity(self, coarse_setups):
        """Both families place exactly one group per allocated node."""
        for name, coarse, machine in coarse_setups:
            for gamma in (
                hierarchical_map(coarse, machine, seed=3),
                sfc_map(coarse, machine),
            ):
                assert sorted(gamma.tolist()) == sorted(
                    machine.alloc_nodes.tolist()
                ), name
                caps = machine.node_capacities()
                assert np.all(
                    coarse.graph.vertex_weights <= caps[gamma] + 1e-9
                ), name

    def test_group_count_mismatch_rejected(self, coarse_setups):
        _, coarse, machine = coarse_setups[0]
        with pytest.raises(ValueError):
            sfc_map(scenarios_mod._random_task_graph(5, 12, seed=1), machine)
        with pytest.raises(ValueError):
            hierarchical_map(
                scenarios_mod._random_task_graph(5, 12, seed=1), machine
            )

    def test_deterministic(self, coarse_setups):
        _, coarse, machine = coarse_setups[0]
        np.testing.assert_array_equal(
            hierarchical_map(coarse, machine, seed=3),
            hierarchical_map(coarse, machine, seed=3),
        )
        np.testing.assert_array_equal(
            sfc_map(coarse, machine), sfc_map(coarse, machine)
        )


class TestCurveOrders:
    @pytest.mark.parametrize("dims", [(4, 4, 2), (2, 8, 4), (1, 1, 1), (4, 1, 2)])
    def test_gray_order_single_bit_steps(self, dims):
        """Power-of-two grids: every step flips one bit of one coordinate."""
        order = gray3d_order(dims)
        n = dims[0] * dims[1] * dims[2]
        assert sorted(order.tolist()) == list(range(n))
        nx, ny, _ = dims
        for a, b in zip(order[:-1], order[1:]):
            deltas = [
                abs(a % nx - b % nx),
                abs((a // nx) % ny - (b // nx) % ny),
                abs(a // (nx * ny) - b // (nx * ny)),
            ]
            changed = [d for d in deltas if d]
            assert len(changed) == 1  # exactly one coordinate moves...
            assert changed[0] & (changed[0] - 1) == 0  # ...by a power of two

    def test_gray_differs_from_snake_on_pow2_grids(self):
        assert not np.array_equal(gray3d_order((4, 4, 2)), snake3d_order((4, 4, 2)))

    def test_gray_falls_back_to_snake(self):
        np.testing.assert_array_equal(
            gray3d_order((5, 3, 2)), snake3d_order((5, 3, 2))
        )

    def test_gray_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            gray3d_order((0, 2, 2))


class TestRegistryIntegration:
    def test_families_registered_with_specs(self):
        for name in FAMILY_MAPPER_NAMES:
            spec = get_spec(name)
            assert "grouping" in spec.consumes  # rides the shared grouping
        assert get_spec("HIERWH").refine == ("wh",)
        assert get_spec("SFCWH").refine == ("wh",)
        assert get_spec("HIER").placement == "hier"
        assert get_spec("SFC").placement == "sfc"

    def test_families_share_grouping_in_plan(self):
        """One grouping node feeds UG and both families in a batch."""
        _, tg, machine, _ = scenarios_mod.scenarios()[0]
        plan = build_plan(
            MapRequest(
                task_graph=tg,
                machine=machine,
                algorithms=("UG",) + FAMILY_MAPPER_NAMES,
                seed=3,
            )
        )
        groupings = [n for n in plan.nodes if n.kind == "grouping"]
        assert len(groupings) == 1
        for node in plan.nodes:
            if node.kind == "algo":
                assert groupings[0].index in node.deps

    def test_sweep_accepts_family_entries(self):
        """The Fig. 3 sweep constructor carries extended mapper lists."""
        from repro.experiments.fig2 import sweep_requests
        from repro.experiments.harness import WorkloadCache
        from repro.experiments.profiles import ExperimentProfile

        profile = ExperimentProfile(
            name="families-test",
            rows_per_unit=60,
            proc_counts=(16,),
            procs_per_node=4,
            fragmentation=0.3,
            alloc_seeds=(0,),
            corpus_names=("cage15_like",),
            repetitions=1,
        )
        mappers = ("DEF", "UG") + FAMILY_MAPPER_NAMES
        requests = sweep_requests(
            profile, WorkloadCache(profile), mappers=mappers
        )
        assert all(r.algorithms == mappers for r in requests)


if __name__ == "__main__":
    data = _run_all()
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
    print(f"wrote {len(data)} golden entries to {GOLDEN_PATH}")
