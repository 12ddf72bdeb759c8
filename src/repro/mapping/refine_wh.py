"""Algorithm 2 — WH Refinement (``UWH`` = UG + this pass).

Kernighan–Lin-type *swap* refinement of a one-to-one group↔node mapping:

* ``whHeap`` ranks tasks by the WH they individually incur
  (``TASKWHOPS``); the top task ``t_wh`` is the likeliest to profit from
  moving closer to its neighbours.  It is a :mod:`heapq` of
  ``(-TASKWHOPS, task, task)`` with lazy deletion: ties pop lowest id
  first, and an entry counts only if its task is not yet popped this
  pass and its priority is the task's current row;
* candidate partners are discovered by BFS on ``Gm`` started from
  ``Γ[nghbor(t_wh)]`` (the nodes of ``t_wh``'s neighbours), visiting
  allocated nodes in BFS order — the order makes near-neighbour swaps be
  tried first;
* at most ``Δ`` candidates are evaluated per task (early exit); the first
  *improving* swap is committed and the pass moves on;
* a pass ends when ``whHeap`` empties; passes repeat while the previous
  pass improved WH by more than ``min_gain`` (paper: 0.5%).

Swaps are restricted to equal-weight task groups (with uniform
processors-per-node every group weighs the same, so this is vacuous in
the paper's setting but keeps heterogeneous configurations feasible).

Hot-path layout (behaviour-identical to the scalar reference, pinned by
the golden-equivalence tests): the refiner works on allocation rows (the
allocated nodes in ascending id).  The ≤Δ BFS-ordered candidates of a
popped task are read off the allocation hop matrix
(:meth:`repro.topology.machine.Machine.bfs_rows`, whose cost does not
grow with the torus) and scored in one gather from a
:class:`repro.kernels.SwapCostTable`, which also holds every task's
``TASKWHOPS``.  A committed swap updates the table's rows of the two
tasks' neighbours only, and pushes fresh ``whHeap`` entries for them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.graph.task_graph import TaskGraph
from repro.kernels import SwapCostTable
from repro.mapping.base import Mapping, validate_mapping, wh_of

__all__ = ["WHRefiner"]


@dataclass
class WHRefiner:
    """Algorithm 2 with the paper's Δ=8 early exit and 0.5% pass gate."""

    delta: int = 8
    min_gain: float = 0.005
    max_passes: int = 50

    name: str = "UWH"

    def refine(self, task_graph: TaskGraph, mapping: Mapping) -> Mapping:
        """Refine *mapping* in a copy; the input is left untouched."""
        machine = mapping.machine
        wh = wh_of(task_graph, machine, mapping.gamma)
        if wh <= 0:
            return Mapping(mapping.gamma.copy(), machine)
        nodes, node_row = machine.sorted_alloc()
        table = SwapCostTable(
            task_graph.symmetrized(), machine.ring_hops(), node_row[mapping.gamma]
        )
        row = table.row
        weights = task_graph.loads
        # task currently hosted on each allocation row (one-to-one).
        host = np.full(nodes.size, -1, dtype=np.int64)
        host[row] = np.arange(task_graph.num_tasks)

        # With uniform group weights (the paper's setting) the equal-weight
        # swap restriction is vacuous; skip the per-level filter then.
        uniform = bool(np.all(weights == weights[0])) if weights.size else True
        for _ in range(self.max_passes):
            pass_start_wh = wh
            whops = table.whops().tolist()
            heap = [(-w, t, t) for t, w in enumerate(whops)]
            heapq.heapify(heap)
            popped = [False] * len(heap)
            while heap:
                neg, _, twh = heapq.heappop(heap)
                if popped[twh] or -neg != whops[twh]:
                    continue  # stale: popped already, or re-pushed since
                popped[twh] = True
                found = self._find_swap(twh, table, machine, host, weights, uniform)
                if found is None:
                    continue
                t, gain = found
                wh -= gain
                host[row[twh]], host[row[t]] = t, twh
                touched = table.commit(twh, t)
                for u, w in zip(touched.tolist(), table.whops(touched).tolist()):
                    whops[u] = w
                    if not popped[u]:
                        heapq.heappush(heap, (-w, u, u))
            if pass_start_wh <= 0:
                break
            improvement = (pass_start_wh - wh) / pass_start_wh
            if improvement <= self.min_gain:
                break
        gamma = nodes[row]
        validate_mapping(gamma, machine, weights)
        return Mapping(gamma, machine)

    # ------------------------------------------------------------------
    def _find_swap(self, twh: int, table, machine, host, weights, uniform: bool):
        """Score ≤Δ BFS-ordered candidates; return the first improving one.

        Returns ``(partner, gain)``, or None when no candidate improves.
        The candidate *filtering* (hosting a task, equal weights)
        consumes no Δ budget — only scored candidates do — matching the
        scalar reference exactly.
        """
        nbrs = table.sym.neighbors(twh)
        if nbrs.size == 0:
            return None

        # ---- the first ≤Δ eligible partners in BFS order ----
        rows, _ = machine.bfs_rows(table.row[nbrs])
        hosts = host[rows]
        # host[row[twh]] == twh, so the "skip our own node" test of the
        # scalar path is subsumed by hosts != twh.
        cand = hosts[(hosts >= 0) & (hosts != twh)]
        if not uniform:
            cand = cand[weights[cand] == weights[twh]]
        partners = cand[: self.delta]
        if partners.size == 0:
            return None

        for t, gain in zip(partners.tolist(), table.gains(twh, partners).tolist()):
            if gain > 1e-12:
                return t, gain
        return None


# ----------------------------------------------------------------------
# Scalar reference implementations.
#
# The swap-cost table must agree with these term for term; the
# equivalence tests exercise both paths side by side.  They are not on
# the hot path.
# ----------------------------------------------------------------------
def _task_whops(t: int, sym, torus, gamma: np.ndarray) -> float:
    """TASKWHOPS: the WH incurred by task *t* under Γ (scalar reference)."""
    nbrs = sym.neighbors(t)
    if nbrs.size == 0:
        return 0.0
    hops = torus.hop_distance(np.full(nbrs.shape[0], gamma[t]), gamma[nbrs])
    return float((hops * sym.neighbor_weights(t)).sum())


def _swap_gain(t1: int, t2: int, sym, torus, gamma: np.ndarray) -> float:
    """Exact WH change (positive = improvement) of swapping Γ[t1] ↔ Γ[t2].

    The direct t1–t2 edge keeps its dilation under a swap, so it is
    excluded from both sides of the difference.  Scalar reference for
    :meth:`repro.kernels.SwapCostTable.gains`.
    """
    n1, n2 = int(gamma[t1]), int(gamma[t2])

    def cost(task: int, node: int, exclude: int) -> float:
        nbrs = sym.neighbors(task)
        w = sym.neighbor_weights(task)
        keep = nbrs != exclude
        nbrs = nbrs[keep]
        if nbrs.size == 0:
            return 0.0
        hops = torus.hop_distance(np.full(nbrs.shape[0], node), gamma[nbrs])
        return float((hops * w[keep]).sum())

    before = cost(t1, n1, t2) + cost(t2, n2, t1)
    after = cost(t1, n2, t2) + cost(t2, n1, t1)
    return before - after
