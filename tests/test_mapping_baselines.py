"""Tests for DEF, TMAP and SMAP baselines and the two-phase pipeline."""

import numpy as np
import pytest

from repro.graph.task_graph import TaskGraph
from repro.mapping.default import DefaultMapper
from repro.mapping.pipeline import (
    MAPPER_NAMES,
    TwoPhaseMapper,
    get_mapper,
    prepare_groups,
)
from repro.graph.csr import CSRGraph
from repro.mapping.hier import _fix_counts
from repro.mapping.topomap import _fix_cardinality, dual_recursive_map
from repro.metrics.mapping import evaluate_mapping
from repro.topology.allocation import AllocationSpec, SparseAllocator
from repro.topology.torus import Torus3D


@pytest.fixture()
def machine12():
    torus = Torus3D((4, 4, 2))
    return SparseAllocator(torus).allocate(
        AllocationSpec(num_nodes=12, procs_per_node=2, fragmentation=0.3, seed=1)
    )


@pytest.fixture()
def fine_tg():
    """24-rank task graph (2 ranks per node on machine12)."""
    rng = np.random.default_rng(5)
    m = 120
    src = rng.integers(0, 24, m)
    dst = rng.integers(0, 24, m)
    keep = src != dst
    return TaskGraph.from_edges(24, src[keep], dst[keep], rng.uniform(1, 4, keep.sum()))


class TestDefault:
    def test_blocks_follow_allocation_order(self, machine12):
        fine = DefaultMapper().map_ranks(24, machine12)
        expect = np.repeat(machine12.alloc_nodes, 2)
        assert np.array_equal(fine, expect)

    def test_partial_fill(self, machine12):
        fine = DefaultMapper().map_ranks(5, machine12)
        assert fine.shape == (5,)
        assert list(fine[:2]) == [machine12.alloc_nodes[0]] * 2

    def test_too_many_ranks(self, machine12):
        with pytest.raises(ValueError):
            DefaultMapper().map_ranks(100, machine12)

    def test_rank_groups(self, machine12):
        groups = DefaultMapper().rank_groups(24, machine12)
        assert groups.max() == 11
        assert np.all(np.bincount(groups) == 2)


class TestDualRecursive:
    def test_one_to_one_valid(self, machine12):
        rng = np.random.default_rng(2)
        src = rng.integers(0, 12, 40)
        dst = rng.integers(0, 12, 40)
        keep = src != dst
        coarse = TaskGraph.from_edges(12, src[keep], dst[keep], np.ones(keep.sum()))
        for split in ("geometric", "graph"):
            gamma = dual_recursive_map(coarse, machine12, seed=0, split=split)
            assert np.unique(gamma).shape[0] == 12
            assert machine12.alloc_mask()[gamma].all()

    def test_size_mismatch_rejected(self, machine12):
        coarse = TaskGraph.from_edges(5, [0], [1], [1.0])
        with pytest.raises(ValueError):
            dual_recursive_map(coarse, machine12)


class TestPipeline:
    def test_prepare_groups_exact_capacity(self, fine_tg, machine12):
        groups, coarse = prepare_groups(fine_tg, machine12, seed=0)
        counts = np.bincount(groups, minlength=12)
        assert np.array_equal(counts, machine12.capacities)
        assert coarse.num_tasks == 12

    @pytest.mark.parametrize("name", MAPPER_NAMES)
    def test_all_mappers_produce_valid_fine_gamma(self, fine_tg, machine12, name):
        res = get_mapper(name, seed=0).map(fine_tg, machine12)
        assert res.fine_gamma.shape == (24,)
        assert machine12.alloc_mask()[res.fine_gamma].all()
        used = np.bincount(res.fine_gamma, minlength=machine12.torus.num_nodes)
        assert np.all(used <= machine12.node_capacities())
        # metrics must be computable at rank granularity
        m = evaluate_mapping(fine_tg, machine12, res.fine_gamma)
        assert m.th >= 0

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            TwoPhaseMapper(algorithm="BEST")
        with pytest.raises(ValueError):
            get_mapper("nope")

    def test_shared_groups_reused(self, fine_tg, machine12):
        groups = prepare_groups(fine_tg, machine12, seed=0)
        r1 = get_mapper("UG", seed=0).map(fine_tg, machine12, groups=groups)
        r2 = get_mapper("UWH", seed=0).map(fine_tg, machine12, groups=groups)
        assert np.array_equal(r1.group_of_task, r2.group_of_task)

    def test_def_ignores_seed(self, fine_tg, machine12):
        a = get_mapper("DEF", seed=0).map(fine_tg, machine12).fine_gamma
        b = get_mapper("DEF", seed=99).map(fine_tg, machine12).fine_gamma
        assert np.array_equal(a, b)

    def test_tmap_fallback_rule(self, fine_tg, machine12):
        """TMAP returns either its own mapping (strictly better MC) or DEF's."""
        res = get_mapper("TMAP", seed=0).map(fine_tg, machine12)
        def_res = get_mapper("DEF").map(fine_tg, machine12)
        ours = evaluate_mapping(fine_tg, machine12, res.fine_gamma)
        ref = evaluate_mapping(fine_tg, machine12, def_res.fine_gamma)
        if np.array_equal(res.fine_gamma, def_res.fine_gamma):
            assert True  # fell back
        else:
            assert ours.mc < ref.mc

    def test_smap_valid(self, fine_tg, machine12):
        groups = prepare_groups(fine_tg, machine12, seed=1)
        res = get_mapper("SMAP", seed=1).map(fine_tg, machine12, groups=groups)
        assert np.unique(res.coarse_gamma).shape[0] == 12


class TestCardinalityFixupsFoldLeft:
    """The fix-ups compare attachment sums that must not depend on the
    interpreter: builtin ``sum()`` compensates float rounding from Python
    3.12 on, so ten 0.1-edges (0.9999999999999999 as a left fold) would tie
    with one 1.0-edge there and break the tie the other way."""

    @staticmethod
    def _graph(n, edges):
        src = [a for a, b, _ in edges] + [b for a, b, _ in edges]
        dst = [b for a, b, _ in edges] + [a for a, b, _ in edges]
        w = [x for _, _, x in edges] * 2
        return CSRGraph.from_edges(n, src, dst, w)

    def test_hier_fix_counts_moves_the_strictly_stronger_group(self):
        # Groups 0 and 1 sit in part 0, which must shrink to one group.
        # Group 0 has ten 0.1-edges into part 1, group 1 one 1.0-edge.
        edges = [(0, v, 0.1) for v in range(2, 12)] + [(1, 2, 1.0)]
        sub = self._graph(12, edges)
        part = np.array([0, 0] + [1] * 10)
        fixed = _fix_counts(sub, part, [1, 11])
        assert list(fixed[:2]) == [0, 1]

    def test_topomap_fix_cardinality_moves_the_weakest_task(self):
        # Task 1 has ten 0.1-edges inside the left side, task 0 one
        # 1.0-edge; tasks 2..11 form a heavy ring.  One task must move.
        edges = [(1, v, 0.1) for v in range(2, 12)] + [(0, 2, 1.0)]
        edges += [(v, 2 + (v - 1) % 10, 5.0) for v in range(2, 12)]
        sub = self._graph(13, edges)
        left, right = _fix_cardinality(sub, np.arange(12), np.array([12]), 11)
        assert list(right) == [1, 12]
