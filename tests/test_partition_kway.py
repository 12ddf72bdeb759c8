"""Tests for the incremental k-way hypergraph refinement state.

The KWayState maintains σ/λ/TV/sendvol/cnt/TM/MSM incrementally; every
test here cross-checks against a from-scratch rebuild (state.validate())
or a brute-force oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import cage_like
from repro.hypergraph.model import Hypergraph
from repro.metrics.partition import evaluate_partition
from repro.partition.kway_refine import OBJECTIVES, KWayState, refine_kway


@pytest.fixture(scope="module")
def small_h():
    return Hypergraph.from_matrix(cage_like(120, seed=0))


def random_part(n, k, seed):
    return np.random.default_rng(seed).integers(0, k, size=n)


class TestStateConstruction:
    def test_initial_state_matches_metrics(self, small_h):
        k = 4
        part = random_part(small_h.num_vertices, k, 1)
        state = KWayState(small_h, part, k)
        pm = evaluate_partition(small_h, part, k)
        assert state.tv == pytest.approx(pm.tv)
        assert state.tm == pm.tm
        assert state.msv == pytest.approx(pm.msv)
        assert state.msm == pm.msm

    def test_rejects_non_square(self):
        h = Hypergraph(3, np.array([0, 2]), np.array([0, 1], dtype=np.int32))
        with pytest.raises(ValueError):
            KWayState(h, np.zeros(3, dtype=np.int64), 2)

    def test_rejects_missing_diagonal(self):
        # 2 vertices, 2 nets, net 1 does NOT pin vertex 1.
        h = Hypergraph(2, np.array([0, 2, 3]), np.array([0, 1, 0], dtype=np.int32))
        with pytest.raises(ValueError):
            KWayState(h, np.zeros(2, dtype=np.int64), 2)


class TestMoves:
    def test_apply_move_keeps_invariants(self, small_h):
        k = 3
        part = random_part(small_h.num_vertices, k, 2)
        state = KWayState(small_h, part, k)
        rng = np.random.default_rng(3)
        for _ in range(30):
            v = int(rng.integers(0, small_h.num_vertices))
            b = int(rng.integers(0, k))
            state.apply_move(v, b)
        assert state.validate()

    def test_eval_matches_apply(self, small_h):
        k = 4
        part = random_part(small_h.num_vertices, k, 4)
        state = KWayState(small_h, part, k)
        rng = np.random.default_rng(5)
        for _ in range(25):
            v = int(rng.integers(0, small_h.num_vertices))
            b = int(rng.integers(0, k))
            if b == state.part[v]:
                continue
            d_tv, d_msv, d_tm, d_msm = state.eval_move(v, b)
            tv0, msv0, tm0, msm0 = state.tv, state.msv, state.tm, state.msm
            state.apply_move(v, b)
            assert state.tv == pytest.approx(tv0 + d_tv)
            assert state.msv == pytest.approx(msv0 + d_msv)
            assert state.tm == tm0 + d_tm
            assert state.msm == msm0 + d_msm

    def test_noop_move(self, small_h):
        state = KWayState(small_h, random_part(small_h.num_vertices, 2, 0), 2)
        assert state.eval_move(0, int(state.part[0])) == (0.0, 0.0, 0, 0)

    def test_boundary_detection(self, small_h):
        part = np.zeros(small_h.num_vertices, dtype=np.int64)
        state = KWayState(small_h, part, 2)
        assert state.candidate_parts(0) == []  # single part: no cut nets
        part2 = part.copy()
        part2[0] = 1
        state2 = KWayState(small_h, part2, 2)
        assert state2.candidate_parts(0)

    def test_candidate_parts_exclude_own(self, small_h):
        part = random_part(small_h.num_vertices, 4, 6)
        state = KWayState(small_h, part, 4)
        for v in range(0, 40, 7):
            assert int(state.part[v]) not in state.candidate_parts(v)


class TestRefine:
    @pytest.mark.parametrize("objective", sorted(OBJECTIVES))
    def test_refine_improves_primary(self, small_h, objective):
        k = 4
        part = random_part(small_h.num_vertices, k, 7)
        before = KWayState(small_h, part, k).metrics()
        refined = refine_kway(small_h, part, k, objective, passes=2, tolerance=0.4)
        after = KWayState(small_h, refined, k).metrics()
        primary = {"tv": "TV", "msv_tv": "MSV", "msm_tm_tv": "MSM", "tm_tv": "TM"}[
            objective
        ]
        assert after[primary] <= before[primary]

    def test_refine_respects_balance(self, small_h):
        k = 4
        part = random_part(small_h.num_vertices, k, 8)
        tol = 0.10
        refined = refine_kway(small_h, part, k, "tv", passes=2, tolerance=tol)
        loads = np.bincount(refined, weights=small_h.loads, minlength=k)
        limit0 = np.bincount(part, weights=small_h.loads, minlength=k).max()
        target = small_h.loads.sum() / k
        # no part grows beyond target*(1+tol) unless it started above it
        assert loads.max() <= max(target * (1 + tol) + small_h.loads.max(), limit0)

    def test_unknown_objective(self, small_h):
        with pytest.raises(ValueError):
            refine_kway(small_h, np.zeros(small_h.num_vertices, dtype=np.int64), 2, "xx")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5))
def test_property_incremental_state_exact(seed, k):
    """Random move sequences never desynchronize the incremental state."""
    h = Hypergraph.from_matrix(cage_like(60, seed=seed % 7))
    part = np.random.default_rng(seed).integers(0, k, size=60)
    state = KWayState(h, part, k)
    rng = np.random.default_rng(seed + 1)
    for _ in range(15):
        v = int(rng.integers(0, 60))
        b = int(rng.integers(0, k))
        state.apply_move(v, b)
    assert state.validate()
