"""Coarsening: vectorized heavy-edge matching and contraction.

The multilevel engine shrinks the graph with rounds of *propose–accept*
heavy-edge matching (each unmatched vertex proposes its heaviest unmatched
neighbour; mutual proposals become pairs), the standard parallel
formulation of HEM that vectorizes cleanly over CSR arrays — no Python
loop touches an edge.  Contraction reuses :meth:`CSRGraph.quotient`.
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

    for _ in range(rounds):
        un_src = mate[src] < 0
        un_dst = mate[dst] < 0
        ok = un_src & un_dst & (src != dst)
        if max_vertex_weight is not None:
            ok &= (vw[src] + vw[dst]) <= max_vertex_weight
        if not np.any(ok):
            break
        # Fresh tie-breaking jitter every round: on equal-weight graphs the
        # proposal is effectively a random neighbour, and re-rolling it is
        # what lets unmatched vertices find new mutual partners.
        jitter = rng.random(w.shape[0]) * 1e-9 * (1.0 + np.abs(w))
        s, d, ww = src[ok], dst[ok], w[ok] + jitter[ok]
        # Per-source argmax: sort by (source, weight) and take the last
        # entry of each source block.
        order = np.lexsort((d, ww, s))
        s_sorted = s[order]
        last_of_block = np.ones(s_sorted.shape[0], dtype=bool)
        last_of_block[:-1] = s_sorted[1:] != s_sorted[:-1]
        prop_src = s_sorted[last_of_block]
        prop_dst = d[order][last_of_block]
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
    unmatched = np.flatnonzero(mate < 0)
    for v in unmatched.tolist():
        if mate[v] >= 0:
            continue
        nbrs = graph.neighbors(v)
        wts = graph.neighbor_weights(v)
        best_u = -1
        best_w = -np.inf
        for u, wt in zip(nbrs.tolist(), wts.tolist()):
            if u == v or mate[u] >= 0:
                continue
            if max_vertex_weight is not None and vw[v] + vw[u] > max_vertex_weight:
                continue
            if wt > best_w:
                best_w = wt
                best_u = u
        if best_u >= 0:
            mate[v] = best_u
            mate[best_u] = v
    return mate


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
    rng = seeded_rng(seed)
    levels = [CoarseLevel(graph=graph, fine_to_coarse=np.arange(graph.num_vertices))]
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
