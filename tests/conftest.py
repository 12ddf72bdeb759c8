"""Shared fixtures: small deterministic workloads and machines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import TaskGraph, cage_like, rgg_like
from repro.hypergraph import Hypergraph
from repro.topology import AllocationSpec, SparseAllocator, Torus3D


@pytest.fixture(scope="session")
def small_matrix():
    """A 400-row cage-like matrix (fast to partition)."""
    return cage_like(400, seed=7)


@pytest.fixture(scope="session")
def small_hypergraph(small_matrix):
    return Hypergraph.from_matrix(small_matrix)


@pytest.fixture(scope="session")
def rgg_matrix():
    return rgg_like(500, seed=3)


@pytest.fixture()
def torus444():
    return Torus3D((4, 4, 4))


@pytest.fixture()
def machine16(torus444):
    """16 allocated nodes (1 proc each) on a 4x4x4 torus."""
    return SparseAllocator(torus444).allocate(
        AllocationSpec(num_nodes=16, procs_per_node=1, fragmentation=0.3, seed=5)
    )


@pytest.fixture()
def ring_task_graph():
    """8-task directed ring with unit volumes and unit loads."""
    src = list(range(8))
    dst = [(i + 1) % 8 for i in range(8)]
    return TaskGraph.from_edges(8, src, dst, [1.0] * 8)


@pytest.fixture()
def random_task_graph():
    """A 16-task random sparse task graph (deterministic)."""
    rng = np.random.default_rng(11)
    m = 60
    src = rng.integers(0, 16, size=m)
    dst = rng.integers(0, 16, size=m)
    keep = src != dst
    vol = rng.integers(1, 9, size=m).astype(float)
    return TaskGraph.from_edges(16, src[keep], dst[keep], vol[keep])
