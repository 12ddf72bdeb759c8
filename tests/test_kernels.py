"""Unit equivalence tests for the vectorized kernel layer.

Each kernel is checked against the scalar reference it replaced:
``HopTable`` against ``Torus3D.hop_distance``, and ``SwapCostTable`` /
``all_task_whops`` against the scalar ``_swap_gain`` / ``_task_whops``
helpers of Algorithm 2.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.task_graph import TaskGraph
from repro.kernels import HopTable, SwapCostTable, all_task_whops, hop_table_for
from repro.mapping.refine_wh import _swap_gain, _task_whops
from repro.topology.torus import Torus3D
from test_kernels_golden import _degraded_machine, _random_task_graph

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


def _cost_table(sym, table, gamma, nodes):
    """A :class:`SwapCostTable` over allocation *nodes* (ascending ids)."""
    return SwapCostTable(sym, table.cross_hops(nodes, nodes), np.searchsorted(nodes, gamma))


class TestSwapGainKernels:
    @pytest.mark.parametrize("use_matrix", [True, False])
    def test_all_task_whops_matches_scalar(self, swap_setup, use_matrix):
        sym, torus, gamma = swap_setup
        table = HopTable(torus, matrix_max_nodes=10_000 if use_matrix else 0)
        got = all_task_whops(sym, table, gamma)
        want = [_task_whops(t, sym, torus, gamma) for t in range(sym.num_vertices)]
        np.testing.assert_array_equal(got, np.asarray(want))

    def test_table_whops_match_scalar(self, swap_setup):
        sym, torus, gamma = swap_setup
        cost = _cost_table(sym, hop_table_for(torus), gamma, np.arange(torus.num_nodes))
        subset = np.asarray([0, 3, 7, 7, 29], dtype=np.int64)
        want = [_task_whops(int(t), sym, torus, gamma) for t in subset]
        np.testing.assert_array_equal(cost.whops(subset), np.asarray(want))
        want = [_task_whops(t, sym, torus, gamma) for t in range(sym.num_vertices)]
        np.testing.assert_array_equal(cost.whops(), np.asarray(want))

    @pytest.mark.parametrize("use_matrix", [True, False])
    def test_batched_gains_match_scalar(self, swap_setup, use_matrix):
        """Table gains equal ``_swap_gain`` bit for bit, with the dense
        hop matrix and with the ring-table fallback."""
        sym, torus, gamma = swap_setup
        table = HopTable(torus, matrix_max_nodes=10_000 if use_matrix else 0)
        cost = _cost_table(sym, table, gamma, np.sort(gamma))
        rng = np.random.default_rng(31)
        for t1 in (0, 4, 17):
            others = np.asarray(
                [t for t in rng.permutation(sym.num_vertices)[:12] if t != t1],
                dtype=np.int64,
            )
            got = cost.gains(t1, others)
            want = [_swap_gain(t1, int(t2), sym, torus, gamma) for t2 in others]
            np.testing.assert_array_equal(got, np.asarray(want))

    def test_direct_edge_partner(self, swap_setup):
        """A partner adjacent to the pivot: its edge keeps its dilation."""
        sym, torus, gamma = swap_setup
        cost = _cost_table(sym, hop_table_for(torus), gamma, np.sort(gamma))
        for t1 in (0, 9, 21):
            partners = sym.neighbors(t1)
            assert partners.size
            got = cost.gains(t1, partners)
            want = [_swap_gain(t1, int(t2), sym, torus, gamma) for t2 in partners]
            np.testing.assert_array_equal(got, np.asarray(want))

    def test_batched_gains_empty_partners(self, swap_setup):
        sym, torus, gamma = swap_setup
        cost = _cost_table(sym, hop_table_for(torus), gamma, np.sort(gamma))
        assert cost.gains(0, np.empty(0, dtype=np.int64)).shape == (0,)

    def test_isolated_pivot(self, swap_setup):
        _, torus, _ = swap_setup
        # pivot task 2 has no neighbours: only the partners' costs move.
        tg = TaskGraph.from_edges(3, [0], [1], [4.0])
        sym = tg.symmetrized()
        gamma = np.asarray([0, 1, 30], dtype=np.int64)
        cost = _cost_table(sym, hop_table_for(torus), gamma, np.sort(gamma))
        got = cost.gains(2, np.asarray([0, 1]))
        want = [_swap_gain(2, t2, sym, torus, gamma) for t2 in (0, 1)]
        np.testing.assert_array_equal(got, np.asarray(want))

    def test_isolated_partner(self, swap_setup):
        _, torus, _ = swap_setup
        # graph where task 2 is isolated: swapping with it moves only t1.
        tg = TaskGraph.from_edges(3, [0], [1], [4.0])
        sym = tg.symmetrized()
        gamma = np.asarray([0, 1, 30], dtype=np.int64)
        cost = _cost_table(sym, hop_table_for(torus), gamma, np.sort(gamma))
        assert cost.gains(0, np.asarray([2]))[0] == _swap_gain(0, 2, sym, torus, gamma)

    def test_degraded_machine_uses_ring_hops(self):
        """On a degraded torus gains follow the WH metric's ring distance,
        not the BFS hops that order the partners."""
        machine = _degraded_machine()
        nodes, _ = machine.sorted_alloc()
        table = hop_table_for(machine.torus)
        assert not np.array_equal(machine.alloc_hops(), table.cross_hops(nodes, nodes))
        sym = _random_task_graph(nodes.size, 120, seed=43).symmetrized()
        gamma = np.random.default_rng(47).permutation(nodes)
        cost = _cost_table(sym, table, gamma, nodes)
        for t1 in range(sym.num_vertices):
            others = np.delete(np.arange(sym.num_vertices), t1)
            want = [_swap_gain(t1, int(t2), sym, machine.torus, gamma) for t2 in others]
            np.testing.assert_array_equal(cost.gains(t1, others), np.asarray(want))

    @pytest.mark.parametrize("integral", [True, False])
    def test_commits_match_fresh_build(self, swap_setup, integral):
        """After 60 random committed swaps the table equals a fresh build:
        exactly on integral volumes, to 1e-9 relative otherwise."""
        sym, torus, gamma = swap_setup
        if not integral:
            sym = CSRGraph(
                sym.indptr, sym.indices, sym.weights * 1.37, sym.vertex_weights,
                sorted_indices=True,
            )
        nodes = np.arange(torus.num_nodes)  # free rows too
        table = hop_table_for(torus)
        cost = _cost_table(sym, table, gamma, nodes)
        gamma = gamma.copy()
        rng = np.random.default_rng(53)
        for _ in range(60):
            t1, t2 = (int(t) for t in rng.choice(sym.num_vertices, 2, replace=False))
            want_gain = _swap_gain(t1, t2, sym, torus, gamma)
            np.testing.assert_allclose(
                cost.gains(t1, np.asarray([t2])), [want_gain], rtol=1e-9, atol=1e-9
            )
            touched = cost.commit(t1, t2)
            gamma[[t1, t2]] = gamma[[t2, t1]]
            want = {t1, t2, *sym.neighbors(t1).tolist(), *sym.neighbors(t2).tolist()}
            assert touched.tolist() == sorted(want)
        fresh = _cost_table(sym, table, gamma, nodes)
        np.testing.assert_array_equal(cost.row, gamma)
        np.testing.assert_array_equal(cost.volume, fresh.volume)
        if integral:
            np.testing.assert_array_equal(cost.cost, fresh.cost)
        else:
            np.testing.assert_allclose(cost.cost, fresh.cost, rtol=1e-9, atol=0)
