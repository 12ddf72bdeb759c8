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
contributes up to ``procs_per_node`` candidates.  The BFS order of the
allocated nodes comes from the allocation hop matrix
(:meth:`~repro.topology.machine.Machine.bfs_order`), so a search costs
the same on any torus size.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.graph.task_graph import TaskGraph
from repro.kernels import (
    all_task_whops,
    hop_table_for,
    refresh_whops_around,
    total_weighted_hops,
)
from repro.topology.machine import Machine

__all__ = ["FineWHRefiner", "fine_wh_of", "internode_volume"]


def fine_wh_of(task_graph: TaskGraph, machine: Machine, fine_gamma: np.ndarray) -> float:
    """WH of a rank-level mapping (counts each directed edge once)."""
    g = np.asarray(fine_gamma, dtype=np.int64)
    return total_weighted_hops(task_graph.graph, hop_table_for(machine.torus), g)


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
        sym = task_graph.symmetrized()
        table = hop_table_for(machine.torus)
        n = task_graph.num_tasks

        # node -> list of hosted ranks.
        hosted: Dict[int, List[int]] = {}
        for t in range(n):
            hosted.setdefault(int(gamma[t]), []).append(t)

        wh = fine_wh_of(task_graph, machine, gamma)
        if wh <= 0:
            return gamma

        for _ in range(self.max_passes):
            pass_start = wh
            whops = all_task_whops(sym, table, gamma)
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
                    twh, sym, table, machine, gamma, hosted, heap, popped, whops
                )
                wh -= gain
            if pass_start <= 0 or (pass_start - wh) / pass_start <= self.min_gain:
                break
        return gamma

    # ------------------------------------------------------------------
    def _try_swap(
        self, twh, sym, table, machine, gamma, hosted, heap, popped, whops
    ) -> float:
        nbrs = sym.neighbors(twh)
        if nbrs.size == 0:
            return 0.0
        na = int(gamma[twh])
        nodes, _ = machine.bfs_order(gamma[nbrs])
        checked = 0
        for node in nodes[nodes != na].tolist():
            for t in list(hosted.get(node, ())):
                if checked >= self.delta:
                    return 0.0
                checked += 1
                gain = _fine_swap_gain(twh, t, sym, table, gamma)
                if gain > 1e-12:
                    nb = int(gamma[t])
                    gamma[twh] = nb
                    gamma[t] = na
                    hosted[na].remove(twh)
                    hosted[nb].remove(t)
                    hosted[na].append(t)
                    hosted[nb].append(twh)
                    refresh_whops_around(
                        heap, popped, whops, sym, table, gamma, (twh, t)
                    )
                    return gain
        return 0.0


def _fine_swap_gain(t1: int, t2: int, sym, table, gamma: np.ndarray) -> float:
    """Exact symmetric-WH change of swapping the two ranks' nodes."""
    n1, n2 = int(gamma[t1]), int(gamma[t2])
    if n1 == n2:
        return 0.0

    def cost(task: int, node: int, exclude: int) -> float:
        nbrs = sym.neighbors(task)
        w = sym.neighbor_weights(task)
        keep = nbrs != exclude
        kept = nbrs[keep]
        if kept.size == 0:
            return 0.0
        hops = table.hops_to_many(node, gamma[kept])
        return float((hops * w[keep]).sum())

    before = cost(t1, n1, t2) + cost(t2, n2, t1)
    after = cost(t1, n2, t2) + cost(t2, n1, t1)
    return before - after
