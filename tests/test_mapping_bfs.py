"""Tests for the shared BFS-ordered candidate enumeration.

:meth:`Machine.bfs_order` must list exactly the allocated nodes a
multi-source :meth:`CSRGraph.bfs_levels` of ``Gm`` reaches, in (level,
id) order, on healthy and degraded tori alike — that order decides every
tie in GETBESTNODE and the swap-partner searches of Algorithms 2 and 3.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.machine import Machine
from repro.topology.torus import Torus3D


@pytest.fixture()
def machine():
    """Every node of a 3x3x3 torus allocated."""
    return Machine(Torus3D((3, 3, 3)), range(27), 1)


def _reference_order(machine, seeds):
    """Allocated nodes in (BFS level, id) order, from ``CSRGraph.bfs_levels``."""
    level = machine.graph().bfs_levels(list(seeds))
    nodes = np.sort(machine.alloc_nodes)
    nodes = nodes[level[nodes] >= 0]
    order = np.lexsort((nodes, level[nodes]))
    return nodes[order], level[nodes][order]


@st.composite
def healthy_machines(draw):
    """A torus with 1-4 routers per dimension and an allocation."""
    dims = tuple(draw(st.integers(1, 4)) for _ in range(3))
    torus = Torus3D(dims)
    n = torus.num_nodes
    alloc = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return Machine(torus, alloc, 2)


@st.composite
def machines_and_seeds(draw):
    """A healthy machine, maybe degraded by faults, and seeds."""
    machine = draw(healthy_machines())
    torus, alloc = machine.torus, machine.alloc_nodes.tolist()
    valid = np.flatnonzero(torus.link_valid()).tolist()
    dead_links = draw(st.lists(st.sampled_from(valid), max_size=8)) if valid else []
    dead_nodes = draw(st.lists(st.sampled_from(alloc), max_size=len(alloc) - 1, unique=True))
    if dead_links or dead_nodes:
        machine = machine.degrade(dead_links=dead_links, dead_nodes=dead_nodes)
    live = machine.alloc_nodes.tolist()
    seeds = draw(st.lists(st.sampled_from(live), min_size=1, max_size=4))
    return machine, np.asarray(seeds, dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(machines_and_seeds())
def test_bfs_order_matches_bfs_levels(case):
    machine, seeds = case
    nodes, levels = machine.bfs_order(seeds)
    want_nodes, want_levels = _reference_order(machine, seeds)
    np.testing.assert_array_equal(nodes, want_nodes)
    np.testing.assert_array_equal(levels, want_levels)


@settings(max_examples=60, deadline=None)
@given(machines_and_seeds())
def test_alloc_hops_is_per_source_bfs(case):
    """Healthy tori read the ring-hop matrix, degraded ones BFS: both equal BFS."""
    machine, _ = case
    hops = machine.alloc_hops()
    nodes = np.sort(machine.alloc_nodes)
    gm = machine.graph()
    want = np.stack([gm.bfs_levels([int(s)])[nodes] for s in nodes])
    unreached = np.iinfo(hops.dtype).max
    assert np.all((hops == unreached) == (want < 0))
    np.testing.assert_array_equal(hops[want >= 0], want[want >= 0])
    assert hops.dtype == np.min_scalar_type(int(want.max()) + 1)


@settings(max_examples=100, deadline=None)
@given(healthy_machines())
def test_healthy_alloc_hops_are_bfs_and_ring_hops(machine):
    """On a healthy torus BFS hops are ring hops: one array serves both."""
    hops = machine.alloc_hops()
    assert hops is machine.ring_hops()
    nodes = np.sort(machine.alloc_nodes)
    gm = machine.graph()
    want = np.stack([gm.bfs_levels([int(s)])[nodes] for s in nodes])
    np.testing.assert_array_equal(hops, want)


def test_unreachable_nodes_are_left_out():
    """A 2x1x1 torus whose two links out of node 0 (both into node 1) failed."""
    torus = Torus3D((2, 1, 1))
    out_of_0 = [0, 1]  # node 0, x dimension, + and - directions
    machine = Machine(torus, [0, 1], 1).degrade(dead_links=out_of_0)
    nodes, levels = machine.bfs_order(np.asarray([0]))
    assert nodes.tolist() == [0] and levels.tolist() == [0]
    nodes, _ = machine.bfs_order(np.asarray([1]))
    assert nodes.tolist() == [1, 0]
    hops = machine.alloc_hops()
    assert hops[0, 1] == np.iinfo(hops.dtype).max and hops[1, 0] == 1


class TestBfsNodes:
    def test_sources_come_first(self, machine):
        nodes, levels = machine.bfs_order(np.asarray([5, 7]))
        assert nodes[:2].tolist() == [5, 7]
        assert levels[:2].tolist() == [0, 0]

    def test_visits_everything_once(self, machine):
        nodes, _ = machine.bfs_order(np.asarray([0]))
        assert sorted(nodes.tolist()) == list(range(27))

    def test_level_order(self, machine):
        nodes, levels = machine.bfs_order(np.asarray([0]))
        dists = machine.hop_distance(np.zeros_like(nodes), nodes)
        np.testing.assert_array_equal(levels, dists)
        assert np.all(np.diff(levels.astype(np.int64)) >= 0), "level by level"

    def test_within_level_sorted_by_id(self, machine):
        nodes, levels = machine.bfs_order(np.asarray([0]))
        for level in np.unique(levels):
            chunk = nodes[levels == level].tolist()
            assert chunk == sorted(chunk)

    def test_empty_sources(self, machine):
        nodes, levels = machine.bfs_order(np.asarray([], dtype=np.int64))
        assert nodes.size == 0 and levels.size == 0


class TestUnitCost:
    def test_unit_cost_view(self):
        from repro.graph.task_graph import TaskGraph

        tg = TaskGraph.from_edges(4, [0, 1, 2], [1, 2, 3], [5.0, 7.0, 9.0])
        unit = tg.unit_cost()
        assert unit.num_messages == tg.num_messages
        assert unit.total_volume() == 3.0
        assert np.array_equal(unit.graph.indices, tg.graph.indices)
        # original untouched
        assert tg.total_volume() == 21.0
