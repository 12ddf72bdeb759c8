"""Tests for Algorithm 2 (WH refinement) and Algorithm 3 (MC refinement)."""

import numpy as np
import pytest

from repro.graph.task_graph import TaskGraph
from repro.kernels.congestion import CongestionModel
from repro.mapping.base import Mapping, wh_of
from repro.mapping.greedy import GreedyMapper
from repro.mapping.refine_mc import MCRefiner
from repro.mapping.refine_wh import WHRefiner, _swap_gain, _task_whops
from repro.metrics.mapping import evaluate_mapping
from repro.topology.allocation import AllocationSpec, SparseAllocator
from repro.topology.torus import Torus3D


@pytest.fixture()
def setup16():
    torus = Torus3D((4, 4, 4))
    machine = SparseAllocator(torus).allocate(
        AllocationSpec(num_nodes=16, procs_per_node=1, fragmentation=0.4, seed=7)
    )
    rng = np.random.default_rng(1)
    m = 70
    src = rng.integers(0, 16, m)
    dst = rng.integers(0, 16, m)
    keep = src != dst
    tg = TaskGraph.from_edges(16, src[keep], dst[keep], rng.uniform(1, 6, keep.sum()))
    return tg, machine


def bad_mapping(tg, machine, seed=0):
    """A deliberately shuffled (poor) one-to-one mapping."""
    perm = np.random.default_rng(seed).permutation(machine.alloc_nodes)
    return Mapping(perm[: tg.num_tasks].copy(), machine)


class TestWHRefiner:
    def test_wh_never_increases(self, setup16):
        tg, machine = setup16
        start = bad_mapping(tg, machine)
        wh0 = wh_of(tg, machine, start.gamma)
        refined = WHRefiner().refine(tg, start)
        assert wh_of(tg, machine, refined.gamma) <= wh0

    def test_input_mapping_untouched(self, setup16):
        tg, machine = setup16
        start = bad_mapping(tg, machine)
        before = start.gamma.copy()
        WHRefiner().refine(tg, start)
        assert np.array_equal(start.gamma, before)

    def test_stays_one_to_one(self, setup16):
        tg, machine = setup16
        refined = WHRefiner().refine(tg, bad_mapping(tg, machine))
        assert np.unique(refined.gamma).shape[0] == tg.num_tasks

    def test_improves_bad_mapping_substantially(self, setup16):
        tg, machine = setup16
        start = bad_mapping(tg, machine, seed=3)
        wh0 = wh_of(tg, machine, start.gamma)
        refined = WHRefiner().refine(tg, start)
        assert wh_of(tg, machine, refined.gamma) < wh0 * 0.98

    def test_swap_gain_matches_recompute(self, setup16):
        """_swap_gain must equal the WH difference of actually swapping."""
        tg, machine = setup16
        sym = tg.symmetrized()
        gamma = bad_mapping(tg, machine, seed=5).gamma
        torus = machine.torus
        rng = np.random.default_rng(2)
        for _ in range(20):
            t1, t2 = rng.choice(16, size=2, replace=False)
            gain = _swap_gain(int(t1), int(t2), sym, torus, gamma)
            swapped = gamma.copy()
            swapped[t1], swapped[t2] = gamma[t2], gamma[t1]
            # wh_of counts each undirected edge twice (symmetric graph),
            # _swap_gain works on the symmetrized view too.
            delta = (wh_of(tg, machine, gamma) - wh_of(tg, machine, swapped))
            assert gain == pytest.approx(delta, rel=1e-9, abs=1e-9)

    def test_task_whops_zero_for_isolated(self, setup16):
        tg, machine = setup16
        tg_iso = TaskGraph.from_edges(16, [0], [1], [1.0])
        gamma = machine.alloc_nodes[:16].copy()
        assert _task_whops(5, tg_iso.symmetrized(), machine.torus, gamma) == 0.0

    def test_delta_budget_respected(self, setup16):
        """With delta=0 no swaps can be evaluated: mapping unchanged."""
        tg, machine = setup16
        start = bad_mapping(tg, machine)
        refined = WHRefiner(delta=0, max_passes=2).refine(tg, start)
        assert np.array_equal(refined.gamma, start.gamma)


class TestMCRefiner:
    @pytest.mark.parametrize("metric,field", [("volume", "mc"), ("message", "mmc")])
    def test_target_metric_never_increases(self, setup16, metric, field):
        tg, machine = setup16
        start = bad_mapping(tg, machine, seed=9)
        before = getattr(evaluate_mapping(tg, machine, start.gamma), field)
        # Message mode expects message-multiplicity weights (unit_cost view).
        work = tg if metric == "volume" else tg.unit_cost()
        refined = MCRefiner(metric=metric).refine(work, start)
        after = getattr(evaluate_mapping(tg, machine, refined.gamma), field)
        assert after <= before + 1e-9

    def test_stays_one_to_one(self, setup16):
        tg, machine = setup16
        refined = MCRefiner().refine(tg, bad_mapping(tg, machine))
        assert np.unique(refined.gamma).shape[0] == tg.num_tasks

    def test_invalid_metric(self):
        with pytest.raises(ValueError):
            MCRefiner(metric="latency")

    def test_state_swap_deltas_match_rebuild(self, setup16):
        """Sparse swap deltas must equal a from-scratch recomputation."""
        tg, machine = setup16
        gamma = bad_mapping(tg, machine, seed=4).gamma
        state = CongestionModel(
            machine.torus, *tg.graph.edge_list(), gamma.copy(), metric="volume"
        )
        rng = np.random.default_rng(6)
        for _ in range(10):
            t1, t2 = (int(x) for x in rng.choice(16, size=2, replace=False))
            links, dm, dv = state._swap_deltas(t1, t2)
            msgs_pred = state.msgs.copy()
            vols_pred = state.vols.copy()
            msgs_pred[links] += dm
            vols_pred[links] += dv
            state.commit_swap(t1, t2)  # commit rebuilds from scratch
            assert np.allclose(state.msgs, msgs_pred)
            assert np.allclose(state.vols, vols_pred)

    def test_state_tracks_mc_ac(self, setup16):
        tg, machine = setup16
        gamma = bad_mapping(tg, machine, seed=8).gamma
        state = CongestionModel(
            machine.torus, *tg.graph.edge_list(), gamma.copy(), metric="volume"
        )
        mc, ac = state.current_mc_ac()
        ref = evaluate_mapping(tg, machine, gamma)
        assert mc == pytest.approx(ref.mc)
        assert ac == pytest.approx(ref.ac)

    def test_comm_tasks_index_consistent(self, setup16):
        tg, machine = setup16
        gamma = bad_mapping(tg, machine, seed=2).gamma
        state = CongestionModel(
            machine.torus, *tg.graph.edge_list(), gamma.copy(), metric="message"
        )
        # every link with load must know at least one task
        loaded = np.flatnonzero(state.msgs > 0)
        for l in loaded.tolist():
            assert state.tasks_through(l), f"link {l} has load but no tasks"

    def test_ug_plus_umc_improves_mc_vs_ug(self, setup16):
        tg, machine = setup16
        ug = GreedyMapper().map(tg, machine)
        before = evaluate_mapping(tg, machine, ug.gamma).mc
        umc = MCRefiner(metric="volume").refine(tg, ug)
        after = evaluate_mapping(tg, machine, umc.gamma).mc
        assert after <= before + 1e-9
