"""Fine-level WH refinement (the paper's Sec. III-B discussion).

Algorithm 2 normally runs on the coarse (node-level) graph.  The paper
notes: "With slight modifications, it can perform the refinement on the
finer level task vertices or in a multilevel fashion from coarser to
finer levels" — but warns that fine-level WH-improving swaps "can also
increase the total internode communication volume".  The authors chose
coarse-only; we implement the fine variant as an extension so the trade
can be measured (see ``benchmarks/test_ablation.py``).

The fine refiner swaps individual *ranks* between nodes (unit weights, so
capacity stays exact) using the same machinery: a whHeap of per-rank WH
contributions (a :mod:`heapq` with lazy deletion over a per-pass
``whops`` array, as in the coarse refiner), BFS-ordered candidate nodes
from the ranks' neighbour nodes, and a Δ early exit.  Because every rank
on a candidate node is a potential partner, each BFS-visited node
contributes up to ``procs_per_node`` candidates.  Like the coarse
refiner it works on allocation rows: the BFS order comes from
:meth:`~repro.topology.machine.Machine.bfs_rows` and the hops from
:meth:`~repro.topology.machine.Machine.ring_hops`, so a search costs
the same on any torus size.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.graph.task_graph import TaskGraph
from repro.kernels import all_task_whops, refresh_whops_around
from repro.mapping.base import wh_of
from repro.topology.machine import Machine

__all__ = ["FineWHRefiner", "fine_wh_of", "internode_volume"]


def fine_wh_of(task_graph: TaskGraph, machine: Machine, fine_gamma: np.ndarray) -> float:
    """WH of a rank-level mapping (counts each directed edge once)."""
    return wh_of(task_graph, machine, fine_gamma)


def internode_volume(task_graph: TaskGraph, fine_gamma: np.ndarray) -> float:
    """Total volume crossing node boundaries under *fine_gamma* (ICV)."""
    src, dst, vol = task_graph.graph.edge_list()
    g = np.asarray(fine_gamma, dtype=np.int64)
    return float(vol[g[src] != g[dst]].sum())


@dataclass
class FineWHRefiner:
    """Rank-granularity WH swap refinement.

    Parameters mirror :class:`repro.mapping.refine_wh.WHRefiner`; *delta*
    counts swap *evaluations* per popped rank.
    """

    delta: int = 8
    min_gain: float = 0.005
    max_passes: int = 20

    def refine(
        self,
        task_graph: TaskGraph,
        machine: Machine,
        fine_gamma: np.ndarray,
    ) -> np.ndarray:
        """Return an improved copy of the rank→node mapping."""
        gamma = np.asarray(fine_gamma, dtype=np.int64).copy()
        wh = fine_wh_of(task_graph, machine, gamma)
        if wh <= 0:
            return gamma
        sym = task_graph.symmetrized()
        hops = machine.ring_hops()
        rows = machine.alloc_rows(gamma)
        n = task_graph.num_tasks

        # allocation row -> list of hosted ranks.
        hosted: Dict[int, List[int]] = {}
        for t in range(n):
            hosted.setdefault(int(rows[t]), []).append(t)

        for _ in range(self.max_passes):
            pass_start = wh
            whops = all_task_whops(sym, hops, rows)
            heap = [(-w, t, t) for t, w in enumerate(whops.tolist())]
            heapq.heapify(heap)
            popped = [False] * n
            while heap:
                neg, _, twh = heapq.heappop(heap)
                if popped[twh] or -neg != whops[twh]:
                    continue  # stale: popped already, or re-pushed since
                popped[twh] = True
                if -neg <= 0:
                    continue  # nothing to gain from a zero-WH rank
                gain = self._try_swap(
                    twh, sym, hops, machine, rows, hosted, heap, popped, whops
                )
                wh -= gain
            if pass_start <= 0 or (pass_start - wh) / pass_start <= self.min_gain:
                break
        return machine.sorted_alloc()[0][rows]

    # ------------------------------------------------------------------
    def _try_swap(
        self, twh, sym, hops, machine, rows, hosted, heap, popped, whops
    ) -> float:
        nbrs = sym.neighbors(twh)
        if nbrs.size == 0:
            return 0.0
        ra = int(rows[twh])
        order, _ = machine.bfs_rows(rows[nbrs])
        checked = 0
        for r in order[order != ra].tolist():
            for t in list(hosted.get(r, ())):
                if checked >= self.delta:
                    return 0.0
                checked += 1
                gain = _fine_swap_gain(twh, t, sym, hops, rows)
                if gain > 1e-12:
                    rb = int(rows[t])
                    rows[twh] = rb
                    rows[t] = ra
                    hosted[ra].remove(twh)
                    hosted[rb].remove(t)
                    hosted[ra].append(t)
                    hosted[rb].append(twh)
                    refresh_whops_around(
                        heap, popped, whops, sym, hops, rows, (twh, t)
                    )
                    return gain
        return 0.0


def _fine_swap_gain(t1: int, t2: int, sym, hops, rows: np.ndarray) -> float:
    """Exact symmetric-WH change of swapping the two ranks' allocation rows."""
    r1, r2 = int(rows[t1]), int(rows[t2])
    if r1 == r2:
        return 0.0

    def cost(task: int, row: int, exclude: int) -> float:
        nbrs = sym.neighbors(task)
        w = sym.neighbor_weights(task)
        keep = nbrs != exclude
        kept = nbrs[keep]
        if kept.size == 0:
            return 0.0
        return float((hops[row, rows[kept]] * w[keep]).sum())

    before = cost(t1, r1, t2) + cost(t2, r2, t1)
    after = cost(t1, r2, t2) + cost(t2, r1, t1)
    return before - after
