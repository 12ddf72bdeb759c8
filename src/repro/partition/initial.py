"""Initial bisection on the coarsest graph.

Greedy graph growing (GGG): BFS-grow a region from a seed vertex, always
absorbing the unassigned vertex with the strongest connection to the grown
region, until the region reaches its target weight.  Several seeds are
tried and the best cut (after balance) wins — the same scheme METIS and
PaToH use for their initial partitions.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.util.rng import seeded_rng

__all__ = ["greedy_grow_bisection", "best_bisection"]


def greedy_grow_bisection(
    graph: CSRGraph,
    target0: float,
    seed_vertex: int,
) -> np.ndarray:
    """Grow part 0 from *seed_vertex* to weight ~*target0*; rest is part 1.

    Ties in connectivity break toward the vertex first reached by the
    grown region (a :mod:`heapq` of ``(-connectivity, seq, v)`` with lazy
    deletion, ``seq`` fixed when the vertex is first reached).
    Disconnected graphs are handled by re-seeding from the heaviest
    unassigned vertex.
    """
    n = graph.num_vertices
    side = [1] * n
    vwl = graph.vertex_weights.tolist()
    ptr, ind, wts = graph.indptr.tolist(), graph.indices.tolist(), graph.weights.tolist()
    grown = 0.0
    conn = [0.0] * n
    seq = [-1] * n  # first-reached number while queued, -1 otherwise
    order = itertools.count()
    heap = []

    def absorb(v: int) -> None:
        nonlocal grown
        side[v] = 0
        grown += vwl[v]
        for u, w in zip(ind[ptr[v] : ptr[v + 1]], wts[ptr[v] : ptr[v + 1]]):
            if side[u] == 0:
                continue
            if seq[u] < 0:
                seq[u] = next(order)
            conn[u] += w
            heapq.heappush(heap, (-conn[u], seq[u], u))

    absorb(seed_vertex)
    while grown < target0:
        while heap:
            neg, s, v = heapq.heappop(heap)
            if seq[v] == s and -neg == conn[v]:
                seq[v] = -1
                break
        else:
            # Disconnected: restart from the heaviest unassigned vertex.
            rest = np.flatnonzero(side)
            if rest.size == 0:
                break
            v = int(rest[np.argmax(graph.vertex_weights[rest])])
        if grown + vwl[v] > target0 and grown > 0.5 * target0:
            # Absorbing v overshoots badly; stop if reasonably full.
            if grown + vwl[v] - target0 > target0 - grown:
                break
        absorb(v)
    return np.array(side, dtype=np.int64)


def best_bisection(
    graph: CSRGraph,
    target0: float,
    *,
    attempts: int = 4,
    seed: int = 0,
) -> np.ndarray:
    """Try *attempts* GGG seeds; return the bisection with the best cut.

    Candidate seeds are random plus one pseudo-peripheral vertex (end of a
    BFS from the heaviest vertex), which tends to give clean sweeps on
    mesh-like graphs.  Ranking penalizes imbalance quadratically so a
    slightly worse cut with a far better balance wins.
    """
    n = graph.num_vertices
    if n <= 1:
        return np.zeros(n, dtype=np.int64)
    rng = seeded_rng(seed)
    total = float(graph.vertex_weights.sum())
    seeds = set()
    heaviest = int(np.argmax(graph.vertex_weights))
    # The engine's working graphs are symmetric: BFS needs no symmetrized copy.
    levels = graph.bfs_levels([heaviest])
    if np.any(levels >= 0):
        reached = np.flatnonzero(levels >= 0)
        seeds.add(int(reached[np.argmax(levels[reached])]))
    # A graph with n vertices has at most n distinct seeds to offer.
    while len(seeds) < min(attempts, n):
        seeds.add(int(rng.integers(0, n)))

    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    best: Optional[np.ndarray] = None
    best_score = np.inf
    for s in sorted(seeds):
        side = greedy_grow_bisection(graph, target0, s)
        cut = float(graph.weights[side[src] != side[graph.indices]].sum())
        w0 = float(graph.vertex_weights[side == 0].sum())
        imb = abs(w0 - target0) / max(total, 1e-12)
        score = cut * (1.0 + 4.0 * imb * imb) + imb * total * 1e-6
        if score < best_score:
            best_score = score
            best = side
    assert best is not None
    return best
