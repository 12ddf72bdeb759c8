"""Unit equivalence tests for the vectorized kernel layer.

Each kernel is checked against the scalar reference it replaced:
``Machine.ring_hops`` (the allocation's hop table) against
``Torus3D.hop_distance``, and
``SwapCostTable`` / ``all_task_whops`` against the scalar ``_swap_gain``
/ ``_task_whops`` helpers of Algorithm 2.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.task_graph import TaskGraph
from repro.kernels import SwapCostTable, all_task_whops
from repro.mapping.refine_wh import _swap_gain, _task_whops
from repro.topology.machine import Machine
from repro.topology.torus import Torus3D
from test_kernels_golden import _degraded_machine, _random_task_graph

TORUS_SHAPES = [(4, 4, 4), (5, 3, 2), (6, 1, 1), (2, 2, 7), (1, 1, 1), (8, 2, 5)]


def _all_pairs(torus, nodes):
    """``[len(nodes), len(nodes)]`` hops from the coordinate formula."""
    return torus.hop_distance(nodes[:, None], nodes[None, :])


# ----------------------------------------------------------------------
# Machine.ring_hops: the allocation's hop table
# ----------------------------------------------------------------------
class TestHopTable:
    @pytest.mark.parametrize("dims", TORUS_SHAPES)
    @pytest.mark.parametrize("full_alloc", [True, False])
    def test_pairwise_matches_hop_distance(self, dims, full_alloc):
        """Random allocated pairs gathered by row, and every allocated pair,
        equal the coordinate formula; BFS order reads the same array.

        ``full_alloc`` allocates the whole torus, else a random subset.
        """
        torus = Torus3D(dims)
        rng = np.random.default_rng(3)
        if full_alloc:
            alloc = np.arange(torus.num_nodes)
        else:
            size = int(rng.integers(1, torus.num_nodes + 1))
            alloc = rng.choice(torus.num_nodes, size, replace=False)
        machine = Machine(torus, alloc, 2)
        hops = machine.ring_hops()
        a = rng.choice(alloc, size=200)
        b = rng.choice(alloc, size=200)
        np.testing.assert_array_equal(
            hops[machine.alloc_rows(a), machine.alloc_rows(b)],
            torus.hop_distance(a, b),
        )
        nodes, _ = machine.sorted_alloc()
        np.testing.assert_array_equal(hops, _all_pairs(torus, nodes))
        assert hops.dtype == np.min_scalar_type(torus.diameter + 1)
        assert machine.ring_hops() is hops
        assert machine.alloc_hops() is hops

    def test_degraded_machine_keeps_ring_distance(self):
        """Failures change BFS hops, never the WH metric's ring distance."""
        machine = _degraded_machine()
        nodes, _ = machine.sorted_alloc()
        hops = machine.ring_hops()
        np.testing.assert_array_equal(hops, _all_pairs(machine.torus, nodes))
        assert np.any(hops != machine.alloc_hops())

    def test_alloc_rows(self):
        machine = Machine(Torus3D((3, 3, 3)), [20, 4, 9], 1)
        rows = machine.alloc_rows(np.asarray([9, 20, 4, 4]))
        assert rows.tolist() == [1, 2, 0, 0]
        with pytest.raises(ValueError, match="outside the allocation"):
            machine.alloc_rows(np.asarray([4, 5]))


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


def _machine(torus, gamma, full_alloc):
    """The whole torus allocated, or just the nodes Γ uses."""
    return Machine(torus, range(torus.num_nodes) if full_alloc else gamma, 1)


def _cost_table(sym, machine, gamma):
    """A :class:`SwapCostTable` over *machine*'s allocation rows."""
    return SwapCostTable(sym, machine.ring_hops(), machine.alloc_rows(gamma))


class TestSwapGainKernels:
    @pytest.mark.parametrize("full_alloc", [True, False])
    def test_all_task_whops_matches_scalar(self, swap_setup, full_alloc):
        sym, torus, gamma = swap_setup
        machine = _machine(torus, gamma, full_alloc)
        got = all_task_whops(sym, machine.ring_hops(), machine.alloc_rows(gamma))
        want = [_task_whops(t, sym, torus, gamma) for t in range(sym.num_vertices)]
        np.testing.assert_array_equal(got, np.asarray(want))

    def test_table_whops_match_scalar(self, swap_setup):
        sym, torus, gamma = swap_setup
        cost = _cost_table(sym, _machine(torus, gamma, True), gamma)
        subset = np.asarray([0, 3, 7, 7, 29], dtype=np.int64)
        want = [_task_whops(int(t), sym, torus, gamma) for t in subset]
        np.testing.assert_array_equal(cost.whops(subset), np.asarray(want))
        want = [_task_whops(t, sym, torus, gamma) for t in range(sym.num_vertices)]
        np.testing.assert_array_equal(cost.whops(), np.asarray(want))

    @pytest.mark.parametrize("full_alloc", [True, False])
    def test_batched_gains_match_scalar(self, swap_setup, full_alloc):
        """Table gains equal ``_swap_gain`` bit for bit, with free rows in
        the table and without."""
        sym, torus, gamma = swap_setup
        cost = _cost_table(sym, _machine(torus, gamma, full_alloc), gamma)
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
        cost = _cost_table(sym, _machine(torus, gamma, False), gamma)
        for t1 in (0, 9, 21):
            partners = sym.neighbors(t1)
            assert partners.size
            got = cost.gains(t1, partners)
            want = [_swap_gain(t1, int(t2), sym, torus, gamma) for t2 in partners]
            np.testing.assert_array_equal(got, np.asarray(want))

    def test_batched_gains_empty_partners(self, swap_setup):
        sym, torus, gamma = swap_setup
        cost = _cost_table(sym, _machine(torus, gamma, False), gamma)
        assert cost.gains(0, np.empty(0, dtype=np.int64)).shape == (0,)

    def test_isolated_pivot(self, swap_setup):
        _, torus, _ = swap_setup
        # pivot task 2 has no neighbours: only the partners' costs move.
        tg = TaskGraph.from_edges(3, [0], [1], [4.0])
        sym = tg.symmetrized()
        gamma = np.asarray([0, 1, 30], dtype=np.int64)
        cost = _cost_table(sym, _machine(torus, gamma, False), gamma)
        got = cost.gains(2, np.asarray([0, 1]))
        want = [_swap_gain(2, t2, sym, torus, gamma) for t2 in (0, 1)]
        np.testing.assert_array_equal(got, np.asarray(want))

    def test_isolated_partner(self, swap_setup):
        _, torus, _ = swap_setup
        # graph where task 2 is isolated: swapping with it moves only t1.
        tg = TaskGraph.from_edges(3, [0], [1], [4.0])
        sym = tg.symmetrized()
        gamma = np.asarray([0, 1, 30], dtype=np.int64)
        cost = _cost_table(sym, _machine(torus, gamma, False), gamma)
        assert cost.gains(0, np.asarray([2]))[0] == _swap_gain(0, 2, sym, torus, gamma)

    def test_degraded_machine_uses_ring_hops(self):
        """On a degraded torus gains follow the WH metric's ring distance,
        not the BFS hops that order the partners."""
        machine = _degraded_machine()
        nodes, _ = machine.sorted_alloc()
        assert not np.array_equal(machine.alloc_hops(), machine.ring_hops())
        sym = _random_task_graph(nodes.size, 120, seed=43).symmetrized()
        gamma = np.random.default_rng(47).permutation(nodes)
        cost = _cost_table(sym, machine, gamma)
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
        machine = _machine(torus, gamma, True)  # free rows too
        cost = _cost_table(sym, machine, gamma)
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
        fresh = _cost_table(sym, machine, gamma)
        np.testing.assert_array_equal(cost.row, gamma)
        np.testing.assert_array_equal(cost.volume, fresh.volume)
        if integral:
            np.testing.assert_array_equal(cost.cost, fresh.cost)
        else:
            np.testing.assert_allclose(cost.cost, fresh.cost, rtol=1e-9, atol=0)
