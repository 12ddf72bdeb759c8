"""Unit + property tests for the CSR graph kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph, _ranges


def edges_strategy(max_n=12, max_m=40):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(0, n - 1),
                    st.integers(0, n - 1),
                    st.floats(0.5, 10.0),
                ),
                max_size=max_m,
            ),
        )
    )


class TestConstruction:
    def test_from_edges_accumulates_duplicates(self):
        g = CSRGraph.from_edges(3, [0, 0, 1], [1, 1, 2], [1.0, 2.0, 5.0])
        assert g.num_edges == 2
        assert g.edge_weight(0, 1) == 3.0
        assert g.edge_weight(1, 2) == 5.0

    def test_unweighted_defaults_to_ones(self):
        g = CSRGraph.from_edges(3, [0, 1], [1, 2])
        assert g.edge_weight(0, 1) == 1.0

    def test_empty(self):
        g = CSRGraph.empty(5)
        assert g.num_vertices == 5 and g.num_edges == 0
        assert g.is_connected() is False or g.num_vertices == 0 or True

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, [0], [5])

    def test_rejects_malformed_indptr(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2]), np.array([0], dtype=np.int32))

    def test_rejects_mismatched_weights(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(3, [0, 1], [1, 2], [1.0])

    def test_rows_sorted(self):
        g = CSRGraph.from_edges(4, [0, 0, 0], [3, 1, 2], [1, 2, 3])
        assert list(g.neighbors(0)) == [1, 2, 3]


class TestQueries:
    def test_degrees_and_volumes(self):
        g = CSRGraph.from_edges(3, [0, 0, 1], [1, 2, 0], [2.0, 3.0, 4.0])
        assert list(g.out_degree()) == [2, 1, 0]
        assert list(g.out_volume()) == [5.0, 4.0, 0.0]
        assert list(g.in_volume()) == [4.0, 2.0, 3.0]

    def test_has_edge(self):
        g = CSRGraph.from_edges(3, [0], [2])
        assert g.has_edge(0, 2) and not g.has_edge(2, 0)

    def test_edge_list_roundtrip(self):
        g = CSRGraph.from_edges(4, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0])
        s, d, w = g.edge_list()
        g2 = CSRGraph.from_edges(4, s, d, w)
        assert np.array_equal(g2.indptr, g.indptr)
        assert np.array_equal(g2.indices, g.indices)
        assert np.array_equal(g2.weights, g.weights)


class TestTransforms:
    def test_symmetrized_weights_sum(self):
        g = CSRGraph.from_edges(2, [0, 1], [1, 0], [2.0, 5.0])
        s = g.symmetrized()
        assert s.edge_weight(0, 1) == 7.0
        assert s.edge_weight(1, 0) == 7.0

    def test_symmetrized_drops_self_loops(self):
        g = CSRGraph.from_edges(2, [0, 0], [0, 1], [3.0, 1.0])
        s = g.symmetrized()
        assert s.edge_weight(0, 0) == 0.0

    def test_symmetrized_cached(self):
        g = CSRGraph.from_edges(2, [0], [1])
        assert g.symmetrized() is g.symmetrized()

    def test_quotient_accumulates(self):
        # 0,1 -> part 0; 2,3 -> part 1; edges 0->2 (1), 1->3 (2), 0->1 (9, internal)
        g = CSRGraph.from_edges(4, [0, 1, 0], [2, 3, 1], [1.0, 2.0, 9.0])
        q = g.quotient(np.array([0, 0, 1, 1]))
        assert q.num_vertices == 2
        assert q.edge_weight(0, 1) == 3.0
        assert q.edge_weight(0, 0) == 0.0  # internal edge dropped

    def test_quotient_part_weights(self):
        g = CSRGraph.from_edges(
            3, [0], [1], vertex_weights=np.array([1.0, 2.0, 4.0])
        )
        q = g.quotient(np.array([0, 1, 1]), 2)
        assert list(q.vertex_weights) == [1.0, 6.0]

    def test_subgraph_induced(self):
        g = CSRGraph.from_edges(4, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0])
        sub, ids = g.subgraph(np.array([1, 2]))
        assert sub.num_vertices == 2
        assert sub.edge_weight(0, 1) == 2.0
        assert sub.num_edges == 1

    def test_subgraph_rejects_duplicate_ids(self):
        n = 6
        g = CSRGraph.from_edges(n, list(range(n - 1)) + list(range(1, n)),
                                list(range(1, n)) + list(range(n - 1)))
        with pytest.raises(ValueError, match="unique"):
            g.subgraph(np.array([1, 2, 2]))

    @pytest.mark.parametrize("ids", [[-1], [0, -2], [3, -6]])
    def test_subgraph_rejects_negative_ids(self, ids):
        g = CSRGraph.from_edges(6, [0, 1, 2, 3, 4], [1, 2, 3, 4, 5]).symmetrized()
        with pytest.raises(ValueError, match="non-negative"):
            g.subgraph(np.array(ids))

    def test_subgraph_unsorted_ids_sort_rows(self):
        g = CSRGraph.from_edges(4, [0, 1, 2, 3], [1, 2, 3, 0], [1.0, 2.0, 3.0, 4.0])
        sub, ids = g.subgraph(np.array([3, 0, 1]))
        assert list(ids) == [3, 0, 1]
        assert sub.edge_weight(0, 1) == 4.0 and sub.edge_weight(1, 2) == 1.0
        assert list(sub.indices) == [1, 2]
        assert list(sub.vertex_weights) == [1.0, 1.0, 1.0]

    def test_reversed(self):
        g = CSRGraph.from_edges(3, [0], [2], [4.0])
        r = g.reversed()
        assert r.edge_weight(2, 0) == 4.0 and r.edge_weight(0, 2) == 0.0

    def test_without_self_loops(self):
        g = CSRGraph.from_edges(2, [0, 0], [0, 1])
        assert g.without_self_loops().num_edges == 1


class TestTraversal:
    def test_bfs_levels_path(self):
        g = CSRGraph.from_edges(4, [0, 1, 2], [1, 2, 3]).symmetrized()
        assert list(g.bfs_levels([0])) == [0, 1, 2, 3]

    def test_bfs_multi_source(self):
        g = CSRGraph.from_edges(5, [0, 1, 2, 3], [1, 2, 3, 4]).symmetrized()
        levels = g.bfs_levels([0, 4])
        assert list(levels) == [0, 1, 2, 1, 0]

    def test_bfs_unreached_is_minus_one(self):
        g = CSRGraph.from_edges(4, [0], [1]).symmetrized()
        levels = g.bfs_levels([0])
        assert levels[2] == -1 and levels[3] == -1

    def test_bfs_max_level(self):
        g = CSRGraph.from_edges(4, [0, 1, 2], [1, 2, 3]).symmetrized()
        levels = g.bfs_levels([0], max_level=1)
        assert list(levels) == [0, 1, -1, -1]

    def test_bfs_order_level_sorted(self):
        g = CSRGraph.from_edges(5, [0, 0, 1, 2], [2, 1, 3, 4]).symmetrized()
        order = g.bfs_order([0])
        assert list(order) == [0, 1, 2, 3, 4]

    def test_components(self):
        g = CSRGraph.from_edges(5, [0, 2], [1, 3]).symmetrized()
        comp = g.connected_components()
        assert comp[0] == comp[1]
        assert comp[2] == comp[3]
        assert comp[0] != comp[2] and comp[4] not in (comp[0], comp[2])

    def test_is_connected(self):
        assert CSRGraph.from_edges(3, [0, 1], [1, 2]).is_connected()
        assert not CSRGraph.from_edges(3, [0], [1]).is_connected()


class TestRangesHelper:
    def test_basic(self):
        assert list(_ranges(np.array([2, 0, 3]))) == [0, 1, 0, 1, 2]

    def test_empty(self):
        assert _ranges(np.array([], dtype=np.int64)).size == 0

    def test_all_zero(self):
        assert _ranges(np.array([0, 0])).size == 0


@settings(max_examples=100, deadline=None)
@given(edges_strategy())
def test_property_symmetrized_is_symmetric(data):
    n, triples = data
    if not triples:
        return
    s, d, w = zip(*triples)
    g = CSRGraph.from_edges(n, list(s), list(d), list(w))
    sym = g.symmetrized()
    es, ed, ew = sym.edge_list()
    for a, b, wt in zip(es, ed, ew):
        assert sym.edge_weight(int(b), int(a)) == pytest.approx(wt)
    # total symmetric weight = 2 * original non-loop weight
    nonloop = sum(wt for a, b, wt in triples if a != b)
    assert sym.total_edge_weight() == pytest.approx(2 * nonloop)


@settings(max_examples=100, deadline=None)
@given(edges_strategy(), st.integers(1, 4))
def test_property_quotient_preserves_cross_weight(data, k):
    n, triples = data
    if not triples:
        return
    s, d, w = zip(*triples)
    g = CSRGraph.from_edges(n, list(s), list(d), list(w))
    part = np.array([i % k for i in range(n)])
    q = g.quotient(part, k)
    cross = sum(wt for a, b, wt in zip(s, d, w) if part[a] != part[b])
    assert q.total_edge_weight() == pytest.approx(cross)
    assert q.vertex_weights.sum() == pytest.approx(g.vertex_weights.sum())


def _edge_list_subgraph(g: CSRGraph, vertices: np.ndarray) -> CSRGraph:
    """Reference induced subgraph: filter the full edge list, rebuild."""
    new_id = np.full(g.num_vertices, -1, dtype=np.int64)
    new_id[vertices] = np.arange(vertices.shape[0])
    s, d, w = g.edge_list()
    keep = (new_id[s] >= 0) & (new_id[d] >= 0)
    return CSRGraph.from_edges(
        vertices.shape[0], new_id[s[keep]], new_id[d[keep]], w[keep],
        g.vertex_weights[vertices].copy(),
    )


@settings(max_examples=150, deadline=None)
@given(edges_strategy(), st.randoms(use_true_random=False))
def test_property_subgraph_matches_edge_list_construction(data, rnd):
    """Row-gathered subgraphs equal the edge-list construction, for sorted
    and unsorted ids, array for array and bit for bit."""
    n, triples = data
    s, d, w = zip(*triples) if triples else ((), (), ())
    vw = np.arange(1.0, n + 1.0) / 3.0
    g = CSRGraph.from_edges(n, list(s), list(d), list(w), vw)
    ids = list(range(n))
    rnd.shuffle(ids)
    ids = np.asarray(ids[: rnd.randint(0, n)], dtype=np.int64)
    for vertices in (ids, np.sort(ids)):
        got, mapping = g.subgraph(vertices)
        want = _edge_list_subgraph(g, vertices)
        assert np.array_equal(mapping, vertices)
        for a, b in (
            (got.indptr, want.indptr),
            (got.indices, want.indices),
            (got.weights, want.weights),
            (got.vertex_weights, want.vertex_weights),
        ):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
