"""Initial bisection on the coarsest graph.

Greedy graph growing (GGG): BFS-grow a region from a seed vertex, always
absorbing the unassigned vertex with the strongest connection to the grown
region, until the region reaches its target weight.  Several seeds are
tried and the best cut (after balance) wins — the same scheme METIS and
PaToH use for their initial partitions.

Most calls come from recursive bisection deep in the mapping pipeline,
on graphs of a handful of vertices, where fixed per-call NumPy overhead
dominates.  :func:`best_bisection` therefore converts the graph to Python
lists once (:func:`_list_view`) and runs the peripheral-seed BFS, every
growing seed and the cut/balance scoring on that one view.  Scores sum
the masked edge and vertex weights with :func:`~repro.partition.fm._exact_sum`
in CSR order, bit for bit what the masked NumPy ``.sum()`` gives.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition.fm import _exact_sum
from repro.util.rng import seeded_rng

__all__ = ["greedy_grow_bisection", "best_bisection"]

#: ``(indptr, indices, weights, vertex_weights)`` of a graph as lists.
ListView = Tuple[List[int], List[int], List[float], List[float]]


def _list_view(graph: CSRGraph) -> ListView:
    return (
        graph.indptr.tolist(),
        graph.indices.tolist(),
        graph.weights.tolist(),
        graph.vertex_weights.tolist(),
    )


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
    unassigned vertex (the lowest id among equals).
    """
    return np.array(_grow(_list_view(graph), target0, seed_vertex), dtype=np.int64)


def _grow(view: ListView, target0: float, seed_vertex: int) -> List[int]:
    """:func:`greedy_grow_bisection` on a list view; returns the side list."""
    ptr, ind, wts, vwl = view
    n = len(vwl)
    side = [1] * n
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
            rest = [u for u in range(n) if side[u]]
            if not rest:
                break
            v = max(rest, key=vwl.__getitem__)
        if grown + vwl[v] > target0 and grown > 0.5 * target0:
            # Absorbing v overshoots badly; stop if reasonably full.
            if grown + vwl[v] - target0 > target0 - grown:
                break
        absorb(v)
    return side


def _peripheral_vertex(view: ListView, root: int) -> int:
    """Lowest-id vertex on the deepest level of a BFS from *root*."""
    ptr, ind = view[0], view[1]
    seen = [False] * len(view[3])
    seen[root] = True
    frontier = [root]
    while True:
        fresh = []
        for v in frontier:
            for u in ind[ptr[v] : ptr[v + 1]]:
                if not seen[u]:
                    seen[u] = True
                    fresh.append(u)
        if not fresh:
            return min(frontier)
        frontier = fresh


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
    slightly worse cut with a far better balance wins.  The random
    generator is built only when a random seed is drawn.

    Raises :class:`ValueError` when no seed gets a comparable score,
    i.e. when *target0* or the weights are not finite.
    """
    n = graph.num_vertices
    if n <= 1:
        return np.zeros(n, dtype=np.int64)
    view = _list_view(graph)
    ptr, ind, wts, vwl = view
    total = _exact_sum(vwl)
    # The engine's working graphs are symmetric: BFS needs no symmetrized copy.
    seeds = {_peripheral_vertex(view, max(range(n), key=vwl.__getitem__))}
    rng = None
    # A graph with n vertices has at most n distinct seeds to offer.
    while len(seeds) < min(attempts, n):
        if rng is None:
            rng = seeded_rng(seed)
        seeds.add(int(rng.integers(0, n)))

    src = [v for v in range(n) for _ in range(ptr[v + 1] - ptr[v])]
    best: Optional[List[int]] = None
    best_score = np.inf
    for s in sorted(seeds):
        side = _grow(view, target0, s)
        cut = _exact_sum([w for u, v, w in zip(src, ind, wts) if side[u] != side[v]])
        w0 = _exact_sum([x for x, sv in zip(vwl, side) if sv == 0])
        imb = abs(w0 - target0) / max(total, 1e-12)
        score = cut * (1.0 + 4.0 * imb * imb) + imb * total * 1e-6
        if score < best_score:
            best_score = score
            best = side
    if best is None:
        raise ValueError(f"no finite bisection score for target0={target0!r}")
    return np.array(best, dtype=np.int64)
