"""Tests for coarsening, initial bisection, FM and the k-way driver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.generators import cage_like, rgg_like
from repro.partition.coarsen import _proposals, coarsen_graph, contract, heavy_edge_matching
from repro.partition.driver import partition_graph
from repro.partition.fm import balance_fixup, fm_bisection_refine, greedy_bisection_refine
from repro.partition.initial import best_bisection, greedy_grow_bisection
from repro.util.rng import seeded_rng


def path_graph(n, w=1.0):
    src = list(range(n - 1)) + list(range(1, n))
    dst = list(range(1, n)) + list(range(n - 1))
    return CSRGraph.from_edges(n, src, dst, [w] * (2 * (n - 1)))


def cut_of(graph, side):
    s, d, w = graph.edge_list()
    return float(w[side[s] != side[d]].sum()) / 2.0


class TestMatching:
    def test_matching_is_symmetric(self):
        g = cage_like(200, seed=0).structure_graph()
        mate = heavy_edge_matching(g, seeded_rng(0))
        for v, m in enumerate(mate):
            if m >= 0:
                assert mate[m] == v
                assert m != v

    def test_matching_respects_weight_cap(self):
        g = CSRGraph.from_edges(
            4, [0, 1, 2, 3], [1, 0, 3, 2], vertex_weights=np.array([5.0, 5.0, 1.0, 1.0])
        )
        mate = heavy_edge_matching(g, seeded_rng(0), max_vertex_weight=6.0)
        assert mate[0] == -1 and mate[1] == -1  # pair would weigh 10 > 6
        assert mate[2] == 3

    def test_matching_prefers_heavy_edges(self):
        # Triangle where edge (0,1) is much heavier.
        g = CSRGraph.from_edges(
            3, [0, 1, 0, 2, 1, 2], [1, 0, 2, 0, 2, 1], [10, 10, 1, 1, 1, 1]
        )
        mate = heavy_edge_matching(g, seeded_rng(0))
        assert mate[0] == 1 and mate[1] == 0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_proposals_match_lexsort_reference(self, data):
        """The O(m) block-max pick equals the last entry of each source
        block of ``lexsort((d, ww, s))``, ties in weight included."""
        n = data.draw(st.integers(2, 10))
        m = data.draw(st.integers(1, 40))
        ends = data.draw(st.lists(st.integers(0, n - 1), min_size=2 * m, max_size=2 * m))
        g = CSRGraph.from_edges(n, ends[:m], ends[m:])
        src = np.repeat(np.arange(n), np.diff(g.indptr))
        ok = np.asarray(data.draw(st.lists(st.booleans(), min_size=g.num_edges,
                                           max_size=g.num_edges)), dtype=bool)
        if not ok.any():
            return
        ww = np.asarray(data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                                           min_size=int(ok.sum()), max_size=int(ok.sum()))))
        s, d = src[ok], g.indices[ok].astype(np.int64)
        order = np.lexsort((d, ww, s))
        last = np.append(s[order][1:] != s[order][:-1], True)
        got_src, got_dst = _proposals(s, d, ww)
        assert got_src.tolist() == s[order][last].tolist()
        assert got_dst.tolist() == d[order][last].tolist()

    def test_contract_preserves_total_vertex_weight(self):
        g = cage_like(150, seed=1).structure_graph()
        mate = heavy_edge_matching(g, seeded_rng(1))
        coarse, f2c = contract(g, mate)
        assert coarse.vertex_weights.sum() == pytest.approx(g.vertex_weights.sum())
        assert f2c.max() == coarse.num_vertices - 1

    def test_coarsen_hierarchy_shrinks(self):
        g = cage_like(600, seed=2).structure_graph()
        levels = coarsen_graph(g, target_vertices=40, seed=0)
        sizes = [l.graph.num_vertices for l in levels]
        assert sizes[0] == 600
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] <= 2 * 40 + 20  # close to target


class TestInitialBisection:
    def test_grow_reaches_target(self):
        g = path_graph(40)
        side = greedy_grow_bisection(g, 20.0, seed_vertex=0)
        w0 = g.vertex_weights[side == 0].sum()
        assert abs(w0 - 20) <= 2

    def test_path_bisection_cut_is_small(self):
        g = path_graph(64)
        side = best_bisection(g, 32.0, seed=0)
        assert cut_of(g, side) <= 2.0  # ideal is 1

    def test_handles_disconnected(self):
        g = CSRGraph.from_edges(6, [0, 1, 3, 4], [1, 2, 4, 5]).symmetrized()
        side = best_bisection(g, 3.0, seed=0)
        assert set(np.unique(side)) <= {0, 1}
        assert abs(g.vertex_weights[side == 0].sum() - 3.0) <= 1.0

    def test_tiny_graphs(self):
        assert best_bisection(CSRGraph.empty(0), 0.0).size == 0
        assert list(best_bisection(CSRGraph.empty(1), 1.0)) == [0]


class TestFM:
    def test_fm_improves_bad_bisection(self):
        g = path_graph(32)
        side = (np.arange(32) % 2).astype(np.int64)  # alternating: terrible cut
        refined = fm_bisection_refine(g, side, 16.0, slack=2.0, max_passes=8)
        assert cut_of(g, refined) < cut_of(g, side)

    def test_greedy_improves_bad_bisection(self):
        g = path_graph(64)
        side = (np.arange(64) % 2).astype(np.int64)
        refined = greedy_bisection_refine(g, side, 32.0, slack=2.0, max_passes=8)
        assert cut_of(g, refined) < cut_of(g, side)

    def test_greedy_enforces_balance(self):
        g = path_graph(40)
        side = np.zeros(40, dtype=np.int64)  # everything on one side
        refined = greedy_bisection_refine(g, side, 20.0, slack=2.0, max_passes=3)
        w0 = g.vertex_weights[refined == 0].sum()
        assert abs(w0 - 20.0) <= 2.5

    def test_balance_preserved_by_fm(self):
        g = cage_like(200, seed=0).structure_graph()
        total = g.vertex_weights.sum()
        side = (np.arange(200) < 100).astype(np.int64)
        refined = fm_bisection_refine(g, side, total / 2, slack=total * 0.05)
        w0 = g.vertex_weights[refined == 0].sum()
        assert abs(w0 - total / 2) <= total * 0.05 + g.vertex_weights.max()


class TestBalanceFixup:
    def test_exact_balance_unit_weights(self):
        g = path_graph(16)
        part = np.zeros(16, dtype=np.int64)
        part[12:] = 1  # 12 / 4 split, target 8 / 8
        targets = np.array([8.0, 8.0])
        fixed = balance_fixup(g, part, 2, targets)
        loads = np.bincount(fixed, weights=g.vertex_weights, minlength=2)
        assert list(loads) == [8.0, 8.0]

    def test_respects_capacity_sum_check(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            balance_fixup(g, np.zeros(4, dtype=np.int64), 2, np.array([1.0, 1.0]))

    def test_prefers_low_cut_moves(self):
        # Path 0-1-2-3; part {0,1,2} vs {3}; target 2/2.  Moving vertex 2
        # (attached to 3) costs less than moving 0 or 1.
        g = path_graph(4)
        part = np.array([0, 0, 0, 1])
        fixed = balance_fixup(g, part, 2, np.array([2.0, 2.0]))
        assert list(fixed) == [0, 0, 1, 1]

    def test_kway_exact(self):
        g = cage_like(64, seed=3).structure_graph()
        work = CSRGraph(
            g.indptr, g.indices, g.weights, np.ones(64), sorted_indices=True
        )
        rng = np.random.default_rng(0)
        part = rng.integers(0, 4, size=64)
        targets = np.full(4, 16.0)
        fixed = balance_fixup(work, part, 4, targets)
        assert np.array_equal(
            np.bincount(fixed, minlength=4), np.array([16, 16, 16, 16])
        )


class TestDriver:
    @pytest.mark.parametrize("k", [2, 3, 8, 13])
    def test_partition_valid_and_balanced(self, k):
        g = cage_like(400, seed=0).structure_graph()
        res = partition_graph(g, k, seed=1)
        assert res.part.shape == (400,)
        assert res.part.min() >= 0 and res.part.max() < k
        loads = np.bincount(res.part, weights=g.vertex_weights, minlength=k)
        target = g.vertex_weights.sum() / k
        assert loads.max() <= target * 1.12

    def test_nonuniform_targets(self):
        g = cage_like(300, seed=1).structure_graph()
        total = float(g.vertex_weights.sum())
        targets = np.array([0.5, 0.25, 0.25]) * total
        res = partition_graph(g, 3, target_weights=targets, seed=0)
        loads = np.bincount(res.part, weights=g.vertex_weights, minlength=3)
        assert loads[0] > loads[1] * 1.5  # the big part really is bigger

    def test_k_equals_one(self):
        g = path_graph(10)
        res = partition_graph(g, 1)
        assert np.all(res.part == 0)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            partition_graph(path_graph(4), 0)

    def test_target_length_mismatch(self):
        with pytest.raises(ValueError):
            partition_graph(path_graph(4), 2, target_weights=[1.0])

    @pytest.mark.parametrize(
        "targets",
        [[np.nan, 6.0], [np.inf, 6.0], [6.0, -np.inf], [-1.0, 7.0], [0.0, -0.5]],
    )
    def test_rejects_non_finite_or_negative_targets(self, targets):
        with pytest.raises(ValueError, match="finite and non-negative"):
            partition_graph(path_graph(6), 2, target_weights=targets)

    def test_rejects_non_positive_target_sum(self):
        with pytest.raises(ValueError, match="positive sum"):
            partition_graph(path_graph(6), 2, target_weights=[0.0, 0.0])

    def test_zero_target_part_stays_valid(self):
        res = partition_graph(path_graph(6), 2, target_weights=[0.0, 6.0])
        assert res.part.tolist() == [1] * 6  # part 0 is empty
        res = partition_graph(path_graph(6), 3, target_weights=[3.0, 0.0, 3.0])
        assert res.part.shape == (6,)
        assert np.bincount(res.part, minlength=3).tolist() == [3, 0, 3]

    def test_best_bisection_rejects_non_finite_target(self):
        with pytest.raises(ValueError, match="no finite bisection score"):
            best_bisection(path_graph(6), np.nan)

    def test_deterministic_given_seed(self):
        g = rgg_like(300, seed=0).structure_graph()
        a = partition_graph(g, 8, seed=5).part
        b = partition_graph(g, 8, seed=5).part
        assert np.array_equal(a, b)

    def test_more_parts_than_vertices(self):
        g = path_graph(3)
        res = partition_graph(g, 5, seed=0)
        assert res.part.max() < 5  # valid even with empty parts
