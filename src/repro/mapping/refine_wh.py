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
the golden-equivalence tests): the ≤Δ BFS-ordered candidates of a popped
task are read off the allocated nodes' BFS order
(:meth:`repro.topology.machine.Machine.bfs_order`, a lookup in the
allocation hop matrix whose cost does not grow with the torus) and
scored in **one** :func:`repro.kernels.batched_swap_gains` call;
per-task ``TASKWHOPS`` rows are cached in a flat array and refreshed
only around committed swaps, feeding both the ``whHeap`` build of each
pass and the fresh entries pushed after a swap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.graph.task_graph import TaskGraph
from repro.kernels import (
    all_task_whops,
    batched_swap_gains,
    hop_table_for,
    refresh_whops_around,
)
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
        gamma = mapping.gamma.copy()
        machine = mapping.machine
        sym = task_graph.symmetrized()
        weights = task_graph.loads
        table = hop_table_for(machine.torus)

        # task currently hosted by each node (one-to-one at group level).
        host = np.full(machine.torus.num_nodes, -1, dtype=np.int64)
        host[gamma] = np.arange(task_graph.num_tasks)

        wh = wh_of(task_graph, machine, gamma)
        if wh <= 0:
            return Mapping(gamma, machine)

        # Cached TASKWHOPS rows; invalidated only around committed swaps.
        whops = all_task_whops(sym, table, gamma)
        # With uniform group weights (the paper's setting) the equal-weight
        # swap restriction is vacuous; skip the per-level filter then.
        uniform = bool(np.all(weights == weights[0])) if weights.size else True
        for _ in range(self.max_passes):
            pass_start_wh = wh
            heap = [(-w, t, t) for t, w in enumerate(whops.tolist())]
            heapq.heapify(heap)
            popped = [False] * len(heap)
            while heap:
                neg, _, twh = heapq.heappop(heap)
                if popped[twh] or -neg != whops[twh]:
                    continue  # stale: popped already, or re-pushed since
                popped[twh] = True
                gain = self._try_swap(
                    twh,
                    sym,
                    weights,
                    table,
                    machine,
                    gamma,
                    host,
                    heap,
                    popped,
                    whops,
                    uniform,
                )
                wh -= gain
            if pass_start_wh <= 0:
                break
            improvement = (pass_start_wh - wh) / pass_start_wh
            if improvement <= self.min_gain:
                break
        validate_mapping(gamma, machine, weights)
        return Mapping(gamma, machine)

    # ------------------------------------------------------------------
    def _try_swap(
        self,
        twh: int,
        sym,
        weights: np.ndarray,
        table,
        machine,
        gamma: np.ndarray,
        host: np.ndarray,
        heap: list,
        popped: list,
        whops: np.ndarray,
        uniform: bool,
    ) -> float:
        """Score ≤Δ BFS-ordered candidates; commit the first improving swap.

        Returns the WH gain achieved (0.0 when no swap was committed).
        The candidate *filtering* (hosting a task, equal weights)
        consumes no Δ budget — only scored candidates do — matching the
        scalar reference exactly.
        """
        nbrs = sym.neighbors(twh)
        if nbrs.size == 0:
            return 0.0

        # ---- the first ≤Δ eligible partners in BFS order ----
        nodes, _ = machine.bfs_order(gamma[nbrs])
        hosts = host[nodes]
        # host[Γ[twh]] == twh, so the "skip our own node" test of the
        # scalar path is subsumed by hosts != twh.
        cand = hosts[(hosts >= 0) & (hosts != twh)]
        if not uniform:
            cand = cand[weights[cand] == weights[twh]]
        partners = cand[: self.delta]
        if partners.size == 0:
            return 0.0
        na = int(gamma[twh])

        # ---- one batched gain evaluation for the whole candidate set ----
        gains = batched_swap_gains(
            sym, table, gamma, twh, partners, whops_t1=float(whops[twh])
        )
        improving = np.flatnonzero(gains > 1e-12)
        if improving.size == 0:
            return 0.0
        j = int(improving[0])
        t = int(partners[j])
        gain = float(gains[j])

        nb = int(gamma[t])
        gamma[twh] = nb
        gamma[t] = na
        host[na] = t
        host[nb] = twh
        refresh_whops_around(heap, popped, whops, sym, table, gamma, (twh, t))
        return gain


# ----------------------------------------------------------------------
# Scalar reference implementations.
#
# The batched kernels above must agree with these term for term; the
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
    :func:`repro.kernels.batched_swap_gains`.
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
