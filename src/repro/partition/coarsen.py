"""Coarsening: vectorized heavy-edge matching and contraction.

The multilevel engine shrinks the graph with rounds of *propose–accept*
heavy-edge matching (each unmatched vertex proposes its heaviest unmatched
neighbour; mutual proposals become pairs), the standard parallel
formulation of HEM that vectorizes cleanly over CSR arrays.  A round is
O(m): each source's proposal is picked over its contiguous CSR block with
``np.maximum.reduceat`` (the last entry reaching the block maximum, which
with sorted rows is the heaviest and then highest-id neighbour), so no
sort runs.  A sequential mop-up on Python lists then pairs leftover
vertices.  Contraction reuses :meth:`CSRGraph.quotient`; a graph already
at its target size is returned as the single identity level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.util.rng import seeded_rng

__all__ = ["heavy_edge_matching", "contract", "coarsen_graph", "CoarseLevel"]


def heavy_edge_matching(
    graph: CSRGraph,
    rng: np.random.Generator,
    *,
    rounds: int = 4,
    max_vertex_weight: Optional[float] = None,
) -> np.ndarray:
    """Match vertices to heavy neighbours; returns int64[n] mate (-1 = single).

    Parameters
    ----------
    graph:
        Symmetric working graph (weights = connection strength).
    rng:
        Drives the tiny tie-breaking jitter, which is what differentiates
        partitioner personalities running the same engine.
    rounds:
        Propose–accept rounds; 3–4 leave only a few percent unmatched.
    max_vertex_weight:
        Pairs whose combined vertex weight exceeds this are not formed
        (keeps coarse vertices balanceable).
    """
    n = graph.num_vertices
    mate = np.full(n, -1, dtype=np.int64)
    if graph.num_edges == 0 or n < 2:
        return mate
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    dst = graph.indices.astype(np.int64)
    w = graph.weights
    vw = graph.vertex_weights
    allowed = src != dst
    if max_vertex_weight is not None:
        allowed &= (vw[src] + vw[dst]) <= max_vertex_weight
    jitter_scale = 1.0 + np.abs(w)

    for _ in range(rounds):
        ok = allowed & (mate[src] < 0) & (mate[dst] < 0)
        if not np.any(ok):
            break
        # Fresh tie-breaking jitter every round: on equal-weight graphs the
        # proposal is effectively a random neighbour, and re-rolling it is
        # what lets unmatched vertices find new mutual partners.
        jitter = rng.random(w.shape[0]) * 1e-9 * jitter_scale
        prop_src, prop_dst = _proposals(src[ok], dst[ok], w[ok] + jitter[ok])
        proposal = np.full(n, -1, dtype=np.int64)
        proposal[prop_src] = prop_dst
        # Mutual proposals become matches.
        cand = prop_src[proposal[prop_dst] == prop_src]
        if cand.size == 0:
            continue
        partner = proposal[cand]
        keep = cand < partner
        a, b = cand[keep], partner[keep]
        mate[a] = b
        mate[b] = a

    # Sequential clean-up: mop up remaining unmatched vertices greedily
    # (heaviest incident edge first).  Runs in O(unmatched · degree) and
    # guarantees a near-maximal matching even on equal-weight graphs where
    # the propose–accept rounds converge slowly.
    mates = mate.tolist()
    ptr, ind, wts = graph.indptr.tolist(), graph.indices.tolist(), w.tolist()
    vwl = vw.tolist()
    for v in np.flatnonzero(mate < 0).tolist():
        if mates[v] >= 0:
            continue
        best_u = -1
        best_w = -np.inf
        for u, wt in zip(ind[ptr[v] : ptr[v + 1]], wts[ptr[v] : ptr[v + 1]]):
            if u == v or mates[u] >= 0:
                continue
            if max_vertex_weight is not None and vwl[v] + vwl[u] > max_vertex_weight:
                continue
            if wt > best_w:
                best_w = wt
                best_u = u
        if best_u >= 0:
            mates[v] = best_u
            mates[best_u] = v
    return np.array(mates, dtype=np.int64)


def _proposals(s: np.ndarray, d: np.ndarray, ww: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each source's heaviest edge: ``(sources, chosen targets)``.

    ``s`` must be non-decreasing and ``d`` ascending within each source's
    block (a filtered CSR edge list).  The pick is the last entry reaching
    its block's maximum — the heaviest and then highest-id target, what
    the last entry of each block of ``np.lexsort((d, ww, s))`` would be —
    found in O(m) with two ``np.maximum.reduceat`` over the blocks.
    """
    first = np.ones(s.shape[0], dtype=bool)
    first[1:] = s[1:] != s[:-1]
    starts = np.flatnonzero(first)
    block_max = np.maximum.reduceat(ww, starts)
    at_max = ww == block_max[np.cumsum(first) - 1]
    pick = np.maximum.reduceat(np.where(at_max, np.arange(s.shape[0]), -1), starts)
    return s[starts], d[pick]


def contract(graph: CSRGraph, mate: np.ndarray) -> Tuple[CSRGraph, np.ndarray]:
    """Contract matched pairs; returns ``(coarse_graph, fine_to_coarse)``.

    Unmatched vertices become singleton coarse vertices.  Coarse vertex
    weights are sums; intra-pair edges vanish; parallel edges accumulate.
    """
    n = graph.num_vertices
    mate = np.asarray(mate, dtype=np.int64)
    rep = np.where((mate >= 0) & (mate < np.arange(n)), mate, np.arange(n))
    # rep[v] = min(v, mate) — the pair representative; compress to ids.
    reps, coarse_id = np.unique(rep, return_inverse=True)
    coarse_id = coarse_id.astype(np.int64)
    coarse = graph.quotient(coarse_id, reps.shape[0])
    return coarse, coarse_id


@dataclass
class CoarseLevel:
    """One level of the multilevel hierarchy."""

    graph: CSRGraph
    fine_to_coarse: np.ndarray  # maps the *previous* level's ids to this level


def coarsen_graph(
    graph: CSRGraph,
    *,
    target_vertices: int = 64,
    max_levels: int = 24,
    min_shrink: float = 0.05,
    seed: int = 0,
    balance_cap_factor: float = 1.5,
) -> List[CoarseLevel]:
    """Build the coarsening hierarchy down to ~*target_vertices*.

    Stops early when a round shrinks the graph by less than *min_shrink*
    (heavy star centres resist matching).  ``balance_cap_factor`` bounds
    coarse vertex weights to ``factor * total / target_vertices`` so one
    mega-vertex cannot make bisection infeasible.

    Returns levels from finest (index 0 = the input graph, identity map)
    to coarsest.
    """
    levels = [CoarseLevel(graph=graph, fine_to_coarse=np.arange(graph.num_vertices))]
    if graph.num_vertices <= target_vertices:
        return levels
    rng = seeded_rng(seed)
    total_w = float(graph.vertex_weights.sum())
    cap = balance_cap_factor * total_w / max(1, target_vertices)
    cur = graph
    for _ in range(max_levels):
        if cur.num_vertices <= target_vertices:
            break
        mate = heavy_edge_matching(cur, rng, max_vertex_weight=cap)
        coarse, f2c = contract(cur, mate)
        if coarse.num_vertices >= cur.num_vertices * (1.0 - min_shrink):
            break
        levels.append(CoarseLevel(graph=coarse, fine_to_coarse=f2c))
        cur = coarse
    return levels
