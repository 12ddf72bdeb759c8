"""Fiduccia–Mattheyses refinement.

Two flavours are needed:

* :func:`fm_bisection_refine` — classic FM with rollback for the
  multilevel bisection engine (boundary-seeded gain heaps, best-prefix
  rollback, a handful of passes);
* :func:`balance_fixup` — the paper's post-partition step: "since graph
  partitioning algorithms do not always obtain a perfect balance, as a
  post processing, we fix the balance with a small sacrifice on the
  edge-cut metric via a single Fiduccia–Mattheyses iteration".  It moves
  vertices out of overloaded parts into underloaded ones, always choosing
  the move with the least edge-cut damage, until every part meets its
  target weight.
"""

from __future__ import annotations

import heapq
import itertools
from functools import reduce
from operator import add
from typing import List, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["fm_bisection_refine", "greedy_bisection_refine", "balance_fixup"]


def _bisection_gains(graph: CSRGraph, side: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Vectorized FM gains (external − internal weight) for every vertex."""
    cut = side[src] != side[graph.indices]
    n = graph.num_vertices
    ext = np.bincount(src, weights=graph.weights * cut, minlength=n)
    itn = np.bincount(src, weights=graph.weights * ~cut, minlength=n)
    return ext - itn


def greedy_bisection_refine(
    graph: CSRGraph,
    side: np.ndarray,
    target0: float,
    *,
    tolerance: float = 0.03,
    slack: Optional[float] = None,
    max_passes: int = 3,
) -> np.ndarray:
    """Hill-climbing bisection refinement with hard balance enforcement.

    A vectorized, cheaper stand-in for strict FM at large levels: each pass
    computes all gains in one shot, then walks the positive-gain vertices
    in descending order re-checking gains locally before moving.  A
    rebalance step first forces both sides within ``target ± tolerance·total``
    by moving the least-damaging vertices off the heavy side, so imbalance
    cannot compound through the multilevel hierarchy.
    """
    side = np.asarray(side, dtype=np.int64).copy()
    n = graph.num_vertices
    if n < 2 or graph.num_edges == 0:
        return side
    vw = graph.vertex_weights
    if slack is None:
        slack = tolerance * float(vw.sum())
    slack = max(float(slack), 1e-12)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    w0 = float(vw[side == 0].sum())

    def local_gain(v: int) -> float:
        nbrs = graph.neighbors(v)
        wts = graph.neighbor_weights(v)
        cut = side[nbrs] != side[v]
        return float(wts[cut].sum() - wts[~cut].sum())

    for _ in range(max_passes):
        # --- hard rebalance -------------------------------------------
        # Shed weight off the heavy side, best cut-gain first, accepting a
        # vertex only if moving it strictly reduces the imbalance (so the
        # residual is bounded by half the lightest rejected vertex, not by
        # an a-priori floor).
        imb = w0 - target0
        if abs(imb) > slack:
            heavy = 0 if imb > 0 else 1
            gains = _bisection_gains(graph, side, src)
            cand = np.flatnonzero(side == heavy)
            order = cand[np.argsort(-gains[cand], kind="stable")]
            for v in order.tolist():
                if abs(imb) <= slack:
                    break
                # Moving off the heavy side shifts imb toward zero by
                # vw[v]; stop once the sign flips (further moves would walk
                # away from the target) and skip overshooting vertices.
                if (heavy == 0 and imb <= 0) or (heavy == 1 and imb >= 0):
                    break
                delta = -float(vw[v]) if heavy == 0 else float(vw[v])
                if abs(imb + delta) >= abs(imb):
                    continue
                side[v] = 1 - heavy
                w0 += delta
                imb = w0 - target0
        # --- hill climb ------------------------------------------------
        gains = _bisection_gains(graph, side, src)
        cand = np.flatnonzero(gains > 1e-12)
        if cand.size == 0:
            break
        order = cand[np.argsort(-gains[cand], kind="stable")]
        moved = 0
        for v in order.tolist():
            g = local_gain(v)
            if g <= 1e-12:
                continue
            a = int(side[v])
            new_w0 = w0 - vw[v] if a == 0 else w0 + vw[v]
            # Accept only moves that stay within slack or strictly improve
            # the imbalance (no per-vertex grace: heavy hub vertices would
            # otherwise walk the bisection arbitrarily far off balance).
            if abs(new_w0 - target0) > slack and abs(new_w0 - target0) >= abs(w0 - target0):
                continue
            side[v] = 1 - a
            w0 = new_w0
            moved += 1
        if moved == 0:
            break
    return side


def _exact_sum(values: List[float]) -> float:
    """``float(np.asarray(values).sum())`` bit for bit, without the array.

    NumPy sums float64 pairwise: sequentially below 8 terms, in eight
    interleaved accumulators up to 128 terms, and by recursive halving
    above that (left to NumPy here).  On non-integral weights another
    order can change the last bit of a gain, and with it FM's move order.
    The accumulators are eight locals fed one 8-term block at a time.
    """
    n = len(values)
    if n > 128:
        return float(np.asarray(values).sum())
    if n < 8:
        return reduce(add, values, 0.0)
    m = n - n % 8
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    for i in range(8, m, 8):
        a0, a1, a2, a3, a4, a5, a6, a7 = values[i : i + 8]
        r0 += a0
        r1 += a1
        r2 += a2
        r3 += a3
        r4 += a4
        r5 += a5
        r6 += a6
        r7 += a7
    head = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    return 0.0 + reduce(add, values[m:], head)


def _integral_weights(weights: np.ndarray) -> bool:
    """True if every weight is an integer and ``Σ|w| ≤ 2**52``.

    Then every edge-weight sum FM forms — a row's external or internal
    weight, a gain, a gain plus or minus ``2w`` — is an integer of
    magnitude below ``2**53``, which float64 holds exactly, so every
    summation order gives the same bits.  NaN fails the integer test and
    ±inf the magnitude test.  The float sum of non-negative integers can
    only read ``≤ 2**52`` when it is exact, so the test is never loose.
    """
    return bool(np.all(np.floor(weights) == weights)) and float(
        np.abs(weights).sum()
    ) <= 2.0**52


def fm_bisection_refine(
    graph: CSRGraph,
    side: np.ndarray,
    target0: float,
    *,
    tolerance: float = 0.03,
    slack: Optional[float] = None,
    max_passes: int = 4,
) -> np.ndarray:
    """Refine a bisection in place-style (returns the improved copy).

    Standard FM: per pass, repeatedly move the best-gain unlocked boundary
    vertex whose move keeps both sides within ``target ± tolerance·total``
    (or strictly improves balance), tracking the best prefix; roll back the
    tail.  Stops after a pass with no improvement.

    The gain queue is a :mod:`heapq` of ``(-gain, seq, v)`` with lazy
    deletion: ``seq`` is the vertex's insertion number, kept by gain
    updates and renewed on re-insertion, so among equal gains the
    earliest-inserted vertex pops first.  A popped vertex whose move is
    infeasible leaves the queue; a later neighbour move re-inserts it.

    Gains are external minus internal edge weight, as NumPy sums them,
    and come from one of two paths, chosen once per call from the edge
    weights alone (:func:`_integral_weights`):

    * **integral weights** (every weight an integer, ``Σ|w| ≤ 2**52``):
      each pass starts from one vectorized gain computation, and every
      move adds ``±2w`` to the gain of each unlocked neighbour, queued or
      not, so every unlocked vertex's gain stays current.  All those
      values are integers below ``2**53``, exact in any order, so they
      equal the fresh row sums bit for bit;
    * **otherwise**: a vertex's gain is re-summed from its row in NumPy's
      pairwise order (:func:`_exact_sum`) whenever it enters the queue,
      and ``±2w`` is applied only to queued neighbours.  On non-integral
      weights another order can change a gain's last bit, and with it
      the move order, so this is the only exact path there.

    The graph is symmetric without parallel edges, as every working graph
    of the partitioner is.
    """
    side = np.asarray(side, dtype=np.int64).copy()
    n = graph.num_vertices
    if n < 2 or graph.num_edges == 0:
        return side
    vw = graph.vertex_weights
    total = float(vw.sum())
    target = [float(target0), total - target0]
    if slack is None:
        slack = tolerance * total
    slack = max(float(slack), float(vw.max()) * 1.001)
    cap = [target[0] + slack, target[1] + slack]
    vwl = vw.tolist()
    ptr, ind, wts = graph.indptr.tolist(), graph.indices.tolist(), graph.weights.tolist()
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    sd = side.tolist()
    integral = _integral_weights(graph.weights)
    heappush, heappop = heapq.heappush, heapq.heappop

    def fresh_gain(u: int) -> float:
        """External minus internal edge weight of *u*, as NumPy sums it."""
        su = sd[u]
        lo, hi = ptr[u], ptr[u + 1]
        if hi - lo < 8:
            # Below 8 terms NumPy's sum is a left fold: fold both at once.
            ext = same = 0.0
            for x, wx in zip(ind[lo:hi], wts[lo:hi]):
                if sd[x] == su:
                    same += wx
                else:
                    ext += wx
            return ext - same
        same, ext = [], []
        for x, wx in zip(ind[lo:hi], wts[lo:hi]):
            (same if sd[x] == su else ext).append(wx)
        return _exact_sum(ext) - _exact_sum(same)

    gain = [0.0] * n
    order = itertools.count()
    for _ in range(max_passes):
        side = np.array(sd, dtype=np.int64)
        w0 = float(vw[side == 0].sum())
        weights = [w0, total - w0]
        locked = [False] * n
        seq = [-1] * n  # insertion number while queued, -1 otherwise
        on_boundary = np.zeros(n, dtype=bool)
        on_boundary[src[side[src] != side[graph.indices]]] = True
        boundary = np.flatnonzero(on_boundary).tolist()
        if integral:
            gain = _bisection_gains(graph, side, src).tolist()
        else:
            for v in boundary:
                gain[v] = fresh_gain(v)
        for v in boundary:
            seq[v] = next(order)
        heap = [(-gain[v], seq[v], v) for v in boundary]
        heapq.heapify(heap)

        moves = []
        cur_gain = 0.0
        best_gain = 0.0
        best_len = 0
        imb0 = max(abs(weights[0] - target[0]), abs(weights[1] - target[1]))
        best_imb = imb0
        while heap:
            neg, s, v = heappop(heap)
            if seq[v] != s or -neg != gain[v]:
                continue  # superseded entry
            seq[v] = -1
            a = sd[v]
            b = 1 - a
            new_wb = weights[b] + vwl[v]
            new_wa = weights[a] - vwl[v]
            new_imb = None  # computed only where it is read
            if new_wb > cap[b]:
                new_imb = max(abs(new_wa - target[a]), abs(new_wb - target[b]))
                if new_imb >= max(abs(weights[a] - target[a]), abs(weights[b] - target[b])):
                    continue  # infeasible and not balance-improving
            # Tentatively move.
            sd[v] = b
            weights[a] = new_wa
            weights[b] = new_wb
            locked[v] = True
            cur_gain += gain[v]
            moves.append(v)
            # A strictly better cut, or equal cut with better balance,
            # advances the rollback point.
            if cur_gain >= best_gain:
                if new_imb is None:
                    new_imb = max(abs(new_wa - target[a]), abs(new_wb - target[b]))
                if cur_gain > best_gain or new_imb < best_imb:
                    best_gain = cur_gain
                    best_len = len(moves)
                    best_imb = new_imb
            # Update neighbour gains: v moved a -> b, so v joining u's side
            # turns an external edge internal (gain -= 2w) and v leaving
            # turns an internal one external (gain += 2w).
            lo, hi = ptr[v], ptr[v + 1]
            for u, wu in zip(ind[lo:hi], wts[lo:hi]):
                if locked[u]:
                    continue
                if integral or seq[u] >= 0:
                    g = gain[u] - (2.0 * wu if sd[u] == b else -2.0 * wu)
                else:
                    g = fresh_gain(u)
                if seq[u] < 0:
                    seq[u] = next(order)  # (re-)insert a fresh boundary vertex
                gain[u] = g
                heappush(heap, (-g, seq[u], u))
        # Roll back the tail beyond the best prefix.
        for v in moves[best_len:]:
            sd[v] = 1 - sd[v]
        if best_gain <= 0 and best_imb >= imb0:
            break
    return np.array(sd, dtype=np.int64)


def balance_fixup(
    graph: CSRGraph,
    part: np.ndarray,
    num_parts: int,
    targets: np.ndarray,
    *,
    tolerance: float = 0.0,
    max_moves: Optional[int] = None,
) -> np.ndarray:
    """Move vertices until every part weight is within its target.

    Parameters
    ----------
    graph:
        Symmetric working graph (for edge-cut gains).
    part:
        Current partition vector (not modified; a copy is returned).
    targets:
        float64[num_parts] target weights.  With unit vertex weights and
        ``tolerance=0`` the result is *exactly* balanced — what the
        mapping pipeline needs, since a node cannot host more tasks than
        it has processors.
    tolerance:
        Allowed overload as a fraction of each target.

    Moves always go from the currently most-overloaded part to some
    underloaded part, choosing the (vertex, destination) pair with the
    smallest edge-cut damage.  Candidate destinations are the underloaded
    parts adjacent to the vertex plus the globally most underloaded part,
    so the procedure terminates even on disconnected graphs.
    """
    part = np.asarray(part, dtype=np.int64).copy()
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape[0] != num_parts:
        raise ValueError("targets length must equal num_parts")
    vw = graph.vertex_weights
    if float(vw.sum()) > float(targets.sum()) + 1e-9:
        raise ValueError("total vertex weight exceeds total target capacity")
    loads = np.bincount(part, weights=vw, minlength=num_parts).astype(np.float64)
    limits = targets * (1.0 + tolerance)
    budget = max_moves if max_moves is not None else 8 * graph.num_vertices

    moves = 0
    while moves < budget:
        over = np.flatnonzero(loads > limits + 1e-9)
        if over.size == 0:
            break
        p = int(over[np.argmax(loads[over] - limits[over])])
        members = np.flatnonzero(part == p)
        under = loads < targets - 1e-9
        best_gain = -np.inf
        best_move: Optional[Tuple[int, int]] = None
        fallback_q = int(np.argmin(loads - targets))
        for v in members.tolist():
            nbrs = graph.neighbors(v)
            wts = graph.neighbor_weights(v)
            conn = np.zeros(num_parts, dtype=np.float64)
            if nbrs.size:
                np.add.at(conn, part[nbrs], wts)
            cand = set(int(q) for q in np.unique(part[nbrs]) if under[q])
            cand.add(fallback_q)
            cand.discard(p)
            for q in cand:
                if loads[q] + vw[v] > targets[q] + 1e-9 and not under[q]:
                    continue
                gain = conn[q] - conn[p]
                if gain > best_gain:
                    best_gain = gain
                    best_move = (v, q)
        if best_move is None:
            break
        v, q = best_move
        part[v] = q
        loads[p] -= vw[v]
        loads[q] += vw[v]
        moves += 1
    return part
