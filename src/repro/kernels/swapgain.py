"""Batched weighted-hop kernels for the swap refiners.

Algorithm 2 evaluates up to Δ swap candidates per popped task; the scalar
path paid four ``hop_distance`` calls plus fresh ``np.full`` temporaries
*per candidate*.  The kernels here score a whole candidate batch with a
fixed number of NumPy calls:

* :func:`all_task_whops` / :func:`task_whops_many` — the per-task
  ``TASKWHOPS`` rows (Σ hops·volume over the task's neighbours) for all
  tasks or a touched subset, used to build and refresh the ``whHeap``;
* :func:`refresh_whops_around` — the ``whHeap`` refresh after a committed
  swap: the refiners' ``whHeap`` is a :mod:`heapq` of
  ``(-TASKWHOPS, task, task)`` with lazy deletion, so a refreshed
  row pushes a fresh entry and the older one is skipped when popped;
* :func:`batched_swap_gains` — the exact WH change of swapping one task
  against each of ``k`` partners, in one ragged-gather pass.

All sums are over integer hop counts times the task graph's communication
volumes.  Volumes in this reproduction are integer-valued (message/byte
counts), which makes every weighted-hop sum exact in float64 and the
batched results equal to the scalar reference *bit for bit* — the
golden-equivalence tests pin this down end to end.  With non-integer
volumes the reduction orders differ, so agreement is only to a few ulp
(~1e-9 in the equivalence tests) and a swap whose scalar gain is exactly
zero could in principle tip over ``WHRefiner``'s 1e-12 acceptance
threshold.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph.csr import CSRGraph, _ranges
from repro.kernels.hoptable import HopTable

__all__ = [
    "all_task_whops",
    "task_whops_many",
    "batched_swap_gains",
    "refresh_whops_around",
    "total_weighted_hops",
]


def total_weighted_hops(graph: CSRGraph, table: HopTable, gamma: np.ndarray) -> float:
    """WH of mapping *gamma* over *graph*'s directed edges (Σ hops·vol).

    The single implementation behind ``wh_of``, ``fine_wh_of`` and the
    ``weighted_hops`` metric, so the refiners' internal WH bookkeeping
    can never diverge from the reported metric.
    """
    src, dst, vol = graph.edge_list()
    hops = table.pairwise_hops(gamma[src], gamma[dst])
    return float((hops * vol).sum())


def all_task_whops(sym: CSRGraph, table: HopTable, gamma: np.ndarray) -> np.ndarray:
    """``TASKWHOPS`` of every task under Γ in one pass (float64[n]).

    Equivalent to calling the scalar per-task helper n times; one edge
    gather plus a ``bincount`` instead.
    """
    n = sym.num_vertices
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(sym.indptr))
    if rows.size == 0:
        return np.zeros(n, dtype=np.float64)
    hops = table.pairwise_hops(gamma[rows], gamma[sym.indices])
    return np.bincount(rows, weights=hops * sym.weights, minlength=n)


def task_whops_many(
    sym: CSRGraph, table: HopTable, gamma: np.ndarray, tasks: np.ndarray
) -> np.ndarray:
    """``TASKWHOPS`` of a task subset (float64[len(tasks)]).

    Used to refresh the cached per-task rows around a committed swap —
    only the swapped pair and their neighbourhoods can change.
    """
    tasks = np.asarray(tasks, dtype=np.int64)
    starts = sym.indptr[tasks]
    counts = sym.indptr[tasks + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.zeros(tasks.size, dtype=np.float64)
    gather = np.repeat(starts, counts) + _ranges(counts)
    nbrs = sym.indices[gather]
    hops = table.pairwise_hops(np.repeat(gamma[tasks], counts), gamma[nbrs])
    seg = np.repeat(np.arange(tasks.size, dtype=np.int64), counts)
    return np.bincount(seg, weights=hops * sym.weights[gather], minlength=tasks.size)


def refresh_whops_around(
    heap: list,
    popped: list,
    whops: np.ndarray,
    sym: CSRGraph,
    table: HopTable,
    gamma: np.ndarray,
    swapped,
) -> None:
    """Refresh the cached ``TASKWHOPS`` rows and ``whHeap`` after a swap.

    Only the swapped tasks and their neighbourhoods can change.  Their
    rows of *whops* are recomputed, and each of them not yet *popped*
    this pass gets a fresh ``(-whops, task, task)`` entry on the
    :mod:`heapq` list *heap*; its older entry goes stale.  Popped tasks
    stay processed for the pass, as in the paper's Algorithm 2 lines
    5–6.  Shared by the coarse and fine WH refiners.
    """
    t1, t2 = swapped
    touched = np.unique(
        np.concatenate([sym.neighbors(t1), sym.neighbors(t2), np.asarray([t1, t2])])
    ).astype(np.int64)
    fresh = task_whops_many(sym, table, gamma, touched)
    whops[touched] = fresh
    for u, w in zip(touched.tolist(), fresh.tolist()):
        if not popped[u]:
            heapq.heappush(heap, (-w, u, u))


def batched_swap_gains(
    sym: CSRGraph,
    table: HopTable,
    gamma: np.ndarray,
    t1: int,
    partners: np.ndarray,
    *,
    whops_t1: float,
) -> np.ndarray:
    """Exact WH gains of swapping Γ[*t1*] with each partner (float64[k]).

    Positive entries are improvements.  The direct ``t1``–partner edge
    keeps its dilation under a swap and is excluded from both sides of
    the difference, exactly as in the scalar ``_swap_gain``.

    Parameters
    ----------
    whops_t1:
        ``TASKWHOPS(t1)`` under the current Γ (the cached heap row) —
        the "before" cost of ``t1`` including a possible direct edge.
    """
    partners = np.asarray(partners, dtype=np.int64)
    k = partners.size
    if k == 0:
        return np.zeros(0, dtype=np.float64)
    nbrs1 = sym.neighbors(t1)
    w1 = sym.neighbor_weights(t1)
    n1 = int(gamma[t1])
    n2s = gamma[partners]
    nbr_nodes1 = gamma[nbrs1]

    # -- t1 side ------------------------------------------------------
    if nbrs1.size:
        # cost(t1, n2_j, t2_j): the excluded direct neighbour sits at
        # n2_j itself (hop 0), so the full row sum needs no correction.
        cost_t1_after = table.cross_hops(n2s, nbr_nodes1) @ w1
        # cost(t1, n1, t2_j): subtract the direct edge's contribution
        # from the cached full row (rows sorted: binary-search member).
        idx = np.searchsorted(nbrs1, partners)
        idxc = np.minimum(idx, nbrs1.size - 1)
        direct_w = np.where(nbrs1[idxc] == partners, w1[idxc], 0.0)
        cost_t1_before = whops_t1 - direct_w * table.hops_to_many(n1, n2s)
    else:
        # Isolated pivot: only the partners' costs move.
        cost_t1_after = np.zeros(k, dtype=np.float64)
        cost_t1_before = np.full(k, float(whops_t1))

    # -- partner side (ragged over the partners' neighbour lists) -----
    starts = sym.indptr[partners]
    counts = sym.indptr[partners + 1] - starts
    if int(counts.sum()):
        gather = np.repeat(starts, counts) + _ranges(counts)
        nbrs2 = sym.indices[gather]
        w2 = np.where(nbrs2 == t1, 0.0, sym.weights[gather])
        nodes2 = gamma[nbrs2]
        seg = np.repeat(np.arange(k, dtype=np.int64), counts)
        before_hops = table.pairwise_hops(np.repeat(n2s, counts), nodes2)
        cost_t2_before = np.bincount(seg, weights=before_hops * w2, minlength=k)
        cost_t2_after = np.bincount(
            seg, weights=table.hops_to_many(n1, nodes2) * w2, minlength=k
        )
    else:
        cost_t2_before = np.zeros(k, dtype=np.float64)
        cost_t2_after = np.zeros(k, dtype=np.float64)

    return (cost_t1_before + cost_t2_before) - (cost_t1_after + cost_t2_after)
