"""Weighted-hop kernels for the swap refiners.

Algorithm 2 evaluates up to Δ swap candidates per popped task.  The
coarse refiner scores them from a **swap-cost table**
(:class:`SwapCostTable`): with ``H`` the ring-hop block between the
allocated nodes, ``C[t, r] = Σ_u w(t,u)·H[r, Γ(u)]`` is what task ``t``
would pay on allocation row ``r``.  ``TASKWHOPS(t)`` is ``C[t, Γ(t)]``,
a swap's gain is four table entries plus the direct edge's correction,
scored for all ≤Δ partners in one vectorised gather, and a committed
swap updates only the rows of the swapped tasks' neighbours.  A try
costs a fixed handful of NumPy calls instead of a ragged gather over
every partner's neighbour list, which at |Va| = 16–32 is what counted.

The fine refiner works on ranks, where a table would be
``n_ranks × |Va|``; it keeps per-rank rows instead:

* :func:`all_task_whops` — ``TASKWHOPS`` of every task in one pass;
* :func:`refresh_whops_around` — the ``whHeap`` refresh after a committed
  swap: the refiners' ``whHeap`` is a :mod:`heapq` of
  ``(-TASKWHOPS, task, task)`` with lazy deletion, so a refreshed
  row pushes a fresh entry and the older one is skipped when popped.

All sums are over integer hop counts times the task graph's communication
volumes.  Volumes in this reproduction are integer-valued (message/byte
counts), so every weighted-hop sum is an integer below 2**53, exact in
float64 whatever the summation order, and the table's gains equal the
scalar reference *bit for bit* — the golden-equivalence tests pin this
down end to end.  With non-integer volumes the table accumulates its
commits, so agreement is only to ~1e-9 relative and a swap whose scalar
gain is exactly zero could in principle tip over ``WHRefiner``'s 1e-12
acceptance threshold.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph.csr import CSRGraph, _ranges

__all__ = [
    "SwapCostTable",
    "all_task_whops",
    "refresh_whops_around",
    "total_weighted_hops",
]


def total_weighted_hops(graph: CSRGraph, hops: np.ndarray, rows: np.ndarray) -> float:
    """WH over *graph*'s directed edges (Σ hops·vol).

    *hops* is ``Machine.ring_hops()`` and *rows* every task's allocation
    row (``Machine.alloc_rows(Γ)``).  The single implementation behind
    ``wh_of``, ``fine_wh_of`` and the ``weighted_hops`` metric, so the
    refiners' internal WH bookkeeping can never diverge from the
    reported metric.
    """
    src, dst, vol = graph.edge_list()
    return float((hops[rows[src], rows[dst]] * vol).sum())


def all_task_whops(sym: CSRGraph, hops: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``TASKWHOPS`` of every task in one pass (float64[n]).

    *hops* and *rows* are as for :func:`total_weighted_hops`.
    Equivalent to calling the scalar per-task helper n times; one edge
    gather plus a ``bincount`` instead.
    """
    n = sym.num_vertices
    owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(sym.indptr))
    if owner.size == 0:
        return np.zeros(n, dtype=np.float64)
    dilation = hops[rows[owner], rows[sym.indices]]
    return np.bincount(owner, weights=dilation * sym.weights, minlength=n)


def refresh_whops_around(
    heap: list,
    popped: list,
    whops: np.ndarray,
    sym: CSRGraph,
    hops: np.ndarray,
    rows: np.ndarray,
    swapped,
) -> None:
    """Refresh the cached ``TASKWHOPS`` rows and ``whHeap`` after a swap.

    Only the swapped tasks and their neighbourhoods can change.  Their
    rows of *whops* are recomputed, and each of them not yet *popped*
    this pass gets a fresh ``(-whops, task, task)`` entry on the
    :mod:`heapq` list *heap*; its older entry goes stale.  Popped tasks
    stay processed for the pass, as in the paper's Algorithm 2 lines
    5–6.
    """
    t1, t2 = swapped
    touched = np.unique(
        np.concatenate([sym.neighbors(t1), sym.neighbors(t2), np.asarray([t1, t2])])
    ).astype(np.int64)
    starts = sym.indptr[touched]
    counts = sym.indptr[touched + 1] - starts
    gather = np.repeat(starts, counts) + _ranges(counts)
    dilation = hops[np.repeat(rows[touched], counts), rows[sym.indices[gather]]]
    seg = np.repeat(np.arange(touched.size, dtype=np.int64), counts)
    fresh = np.bincount(seg, weights=dilation * sym.weights[gather], minlength=touched.size)
    whops[touched] = fresh
    for u, w in zip(touched.tolist(), fresh.tolist()):
        if not popped[u]:
            heapq.heappush(heap, (-w, u, u))


class SwapCostTable:
    """``C[t, r]``: the WH task *t* would incur on allocation row *r*.

    Parameters
    ----------
    sym:
        The symmetrized task graph (rows sorted, as every ``CSRGraph``).
    hops:
        ``[|Va|, |Va|]`` hop counts between the allocated nodes in
        ascending id order — the WH metric's ring distance, so
        ``Machine.ring_hops()``.  It must be symmetric.  These are *not*
        ``Machine.alloc_hops()``: on a degraded torus BFS hops differ
        from ring hops, and BFS hops only order the swap partners.
    row:
        int64[n] allocation row of every task, at most one task per row.
        The table owns this array: :meth:`commit` updates it in place.

    ``C = Mᵀ @ H``, with ``M[r, t]`` the volume between *t* and the task
    on row *r*, built from the CSR rows.  ``M`` is kept too: it gives a
    swap's direct-edge volume in one gather, and a commit just swaps two
    of its rows.  Each costs ``8·n·|Va|`` bytes (8 KB at 32 nodes,
    2 MB at 512).
    """

    __slots__ = ("sym", "hops", "row", "volume", "cost")

    def __init__(self, sym: CSRGraph, hops: np.ndarray, row: np.ndarray) -> None:
        n, k = sym.num_vertices, hops.shape[0]
        self.sym = sym
        self.hops = np.asarray(hops, dtype=np.float64)
        self.row = row
        owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(sym.indptr))
        volume = np.bincount(
            row[sym.indices] * n + owner, weights=sym.weights, minlength=k * n
        )
        self.volume = volume.reshape(k, n)
        self.cost = self.volume.T @ self.hops

    def whops(self, tasks=None) -> np.ndarray:
        """``TASKWHOPS`` of *tasks* (all tasks by default): ``C[t, Γ(t)]``."""
        if tasks is None:
            tasks = np.arange(self.row.size)
        return self.cost[tasks, self.row[tasks]]

    def gains(self, t1: int, partners: np.ndarray) -> np.ndarray:
        """Exact WH gains of swapping *t1* with each partner (float64[k]).

        Positive entries are improvements.  The direct ``t1``–partner
        edge keeps its dilation under a swap; it is counted on both
        "before" rows and on neither "after" row, hence ``2·w·H``.
        """
        cost, row = self.cost, self.row
        r1, r2 = row[t1], row[partners]
        return (
            (cost[t1, r1] - cost[t1, r2])
            + (cost[partners, r2] - cost[partners, r1])
            - 2.0 * self.volume[r2, t1] * self.hops[r1, r2]
        )

    def commit(self, t1: int, t2: int) -> np.ndarray:
        """Swap the rows of *t1* and *t2*; return the tasks whose WH moved.

        Only the neighbours' rows of ``C`` change: each gains
        ``±w·(H[r2] − H[r1])``.  The returned ids (sorted, unique) are
        the neighbourhoods of both tasks plus the tasks themselves.
        """
        sym, cost, row = self.sym, self.cost, self.row
        r1, r2 = row[t1], row[t2]
        moved = self.hops[r2] - self.hops[r1]
        nbrs1, nbrs2 = sym.neighbors(t1), sym.neighbors(t2)
        cost[nbrs1] += sym.neighbor_weights(t1)[:, None] * moved
        cost[nbrs2] -= sym.neighbor_weights(t2)[:, None] * moved
        row[t1], row[t2] = r2, r1
        self.volume[[r1, r2]] = self.volume[[r2, r1]]
        return np.unique(np.concatenate([nbrs1, nbrs2, [t1, t2]]))
