"""Unit equivalence tests for the vectorized kernel layer.

Each kernel is checked against the scalar reference it replaced:
``HopTable`` against ``Torus3D.hop_distance``, and
``batched_swap_gains`` / ``all_task_whops`` against the scalar
``_swap_gain`` / ``_task_whops`` helpers of Algorithm 2.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.task_graph import TaskGraph
from repro.kernels import (
    HopTable,
    all_task_whops,
    batched_swap_gains,
    hop_table_for,
    task_whops_many,
)
from repro.mapping.refine_wh import _swap_gain, _task_whops
from repro.topology.torus import Torus3D

TORUS_SHAPES = [(4, 4, 4), (5, 3, 2), (6, 1, 1), (2, 2, 7), (1, 1, 1), (8, 2, 5)]


# ----------------------------------------------------------------------
# HopTable
# ----------------------------------------------------------------------
class TestHopTable:
    @pytest.mark.parametrize("dims", TORUS_SHAPES)
    @pytest.mark.parametrize("use_matrix", [True, False])
    def test_pairwise_matches_hop_distance(self, dims, use_matrix):
        torus = Torus3D(dims)
        table = HopTable(torus, matrix_max_nodes=10_000 if use_matrix else 0)
        assert table.has_matrix == use_matrix
        rng = np.random.default_rng(3)
        a = rng.integers(0, torus.num_nodes, size=200)
        b = rng.integers(0, torus.num_nodes, size=200)
        np.testing.assert_array_equal(
            table.pairwise_hops(a, b), torus.hop_distance(a, b)
        )

    @pytest.mark.parametrize("use_matrix", [True, False])
    def test_hops_to_many_and_cross(self, use_matrix):
        torus = Torus3D((5, 4, 3))
        table = HopTable(torus, matrix_max_nodes=10_000 if use_matrix else 0)
        rng = np.random.default_rng(5)
        others = rng.integers(0, torus.num_nodes, size=37)
        np.testing.assert_array_equal(
            table.hops_to_many(11, others),
            torus.hop_distance(np.full(37, 11), others),
        )
        a = rng.integers(0, torus.num_nodes, size=9)
        cross = table.cross_hops(a, others)
        assert cross.shape == (9, 37)
        want = torus.hop_distance(
            np.repeat(a, others.shape[0]), np.tile(others, a.shape[0])
        ).reshape(9, 37)
        np.testing.assert_array_equal(cross, want)

    def test_matrix_threshold_respected(self):
        torus = Torus3D((4, 4, 4))
        assert HopTable(torus, matrix_max_nodes=63).has_matrix is False
        assert HopTable(torus, matrix_max_nodes=64).has_matrix is True

    def test_hop_table_for_caches_on_torus(self):
        torus = Torus3D((3, 3, 3))
        t1 = hop_table_for(torus)
        assert hop_table_for(torus) is t1
        assert torus.hop_table() is t1

    def test_hop_table_for_custom_threshold_bypasses_cache(self):
        torus = Torus3D((3, 3, 3))
        default = hop_table_for(torus)
        ringonly = hop_table_for(torus, matrix_max_nodes=0)
        assert ringonly is not default
        assert ringonly.has_matrix is False
        # the cached default-threshold table is untouched
        assert hop_table_for(torus) is default
        assert default.has_matrix is True


# ----------------------------------------------------------------------
# swap-gain kernels
# ----------------------------------------------------------------------
@pytest.fixture()
def swap_setup():
    torus = Torus3D((4, 4, 3))
    rng = np.random.default_rng(29)
    n = 30
    src = rng.integers(0, n, size=200)
    dst = rng.integers(0, n, size=200)
    keep = src != dst
    vol = rng.integers(1, 10, size=200).astype(np.float64)
    tg = TaskGraph.from_edges(n, src[keep], dst[keep], vol[keep])
    gamma = rng.choice(torus.num_nodes, size=n, replace=False).astype(np.int64)
    return tg.symmetrized(), torus, gamma


class TestSwapGainKernels:
    @pytest.mark.parametrize("use_matrix", [True, False])
    def test_all_task_whops_matches_scalar(self, swap_setup, use_matrix):
        sym, torus, gamma = swap_setup
        table = HopTable(torus, matrix_max_nodes=10_000 if use_matrix else 0)
        got = all_task_whops(sym, table, gamma)
        want = [_task_whops(t, sym, torus, gamma) for t in range(sym.num_vertices)]
        np.testing.assert_array_equal(got, np.asarray(want))

    def test_task_whops_many_matches_scalar(self, swap_setup):
        sym, torus, gamma = swap_setup
        table = hop_table_for(torus)
        subset = np.asarray([0, 3, 7, 7, 29], dtype=np.int64)
        got = task_whops_many(sym, table, gamma, subset)
        want = [_task_whops(int(t), sym, torus, gamma) for t in subset]
        np.testing.assert_array_equal(got, np.asarray(want))

    @pytest.mark.parametrize("use_matrix", [True, False])
    def test_batched_gains_match_scalar(self, swap_setup, use_matrix):
        sym, torus, gamma = swap_setup
        table = HopTable(torus, matrix_max_nodes=10_000 if use_matrix else 0)
        rng = np.random.default_rng(31)
        for t1 in (0, 4, 17):
            whops_t1 = _task_whops(t1, sym, torus, gamma)
            others = np.asarray(
                [t for t in rng.permutation(sym.num_vertices)[:12] if t != t1],
                dtype=np.int64,
            )
            got = batched_swap_gains(
                sym, table, gamma, t1, others, whops_t1=whops_t1
            )
            want = [_swap_gain(t1, int(t2), sym, torus, gamma) for t2 in others]
            np.testing.assert_allclose(got, np.asarray(want), rtol=0, atol=1e-9)

    def test_batched_gains_empty_partners(self, swap_setup):
        sym, torus, gamma = swap_setup
        table = hop_table_for(torus)
        out = batched_swap_gains(
            sym, table, gamma, 0, np.empty(0, dtype=np.int64), whops_t1=0.0
        )
        assert out.shape == (0,)

    def test_isolated_pivot(self, swap_setup):
        _, torus, _ = swap_setup
        table = hop_table_for(torus)
        # pivot task 2 has no neighbours: only the partners' costs move.
        tg = TaskGraph.from_edges(3, [0], [1], [4.0])
        sym = tg.symmetrized()
        gamma = np.asarray([0, 1, 30], dtype=np.int64)
        got = batched_swap_gains(
            sym, table, gamma, 2, np.asarray([0, 1]), whops_t1=0.0
        )
        want = [_swap_gain(2, t2, sym, torus, gamma) for t2 in (0, 1)]
        np.testing.assert_array_equal(got, np.asarray(want))

    def test_isolated_partner(self, swap_setup):
        _, torus, _ = swap_setup
        table = hop_table_for(torus)
        # graph where task 2 is isolated: swapping with it moves only t1.
        tg = TaskGraph.from_edges(3, [0], [1], [4.0])
        sym = tg.symmetrized()
        gamma = np.asarray([0, 1, 30], dtype=np.int64)
        whops_t1 = _task_whops(0, sym, torus, gamma)
        got = batched_swap_gains(
            sym, table, gamma, 0, np.asarray([2]), whops_t1=whops_t1
        )
        want = _swap_gain(0, 2, sym, torus, gamma)
        assert got[0] == want
