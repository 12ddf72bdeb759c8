"""Algorithm 3 — MC Refinement (``UMC``; with ``metric='message'``, ``UMMC``).

Congestion-driven swap refinement for static-routing networks:

1. compute every link's congestion from the static routes of all messages
   and index the tasks whose messages cross each link (``commTasks``);
2. take the most congested link ``e_mc``;
3. for each task routed through ``e_mc``, search swap partners in BFS
   order from ``Γ[nghbor(t_mc)]`` (the order keeps WH damage minimal) and
   commit the first swap that improves MC — or, at equal MC, improves the
   average congestion AC;
4. go back to 2; stop when the most congested link admits no improvement.

The paper tracks link congestion in a ``congHeap`` and bounds the search
with ``Δ = 8`` candidates per task.  All route/congestion state lives in
the shared :class:`~repro.kernels.congestion.CongestionModel` (per-edge
route table, per-link loads, ``commTasks`` CSR — everything incremental);
this module keeps only the search policy of Algorithm 3: pop order,
candidate ordering, acceptance rule and early exits follow the paper
exactly.  The BFS order of the candidate nodes is read from the
allocation hop matrix (:meth:`~repro.topology.machine.Machine.bfs_order`),
so a search costs the same on any torus size.  The ≤Δ candidates of one
search are scored in a single batched kernel call
(:meth:`CongestionModel.evaluate_swaps`) that reads every new
route from the model's pair-route memo, and a task whose search found no
partner is not searched again until the next commit changes the state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graph.task_graph import TaskGraph
from repro.kernels.congestion import CongestionModel
from repro.mapping.base import Mapping, validate_mapping
from repro.topology.machine import Machine
from repro.topology.routing import RouteTable, shared_route_table

__all__ = ["MCRefiner"]

_EPS = 1e-9


@dataclass
class MCRefiner:
    """Algorithm 3 with Δ=8 early exit.

    Parameters
    ----------
    metric:
        ``'volume'`` refines MC (volume congestion / bandwidth, ``UMC``);
        ``'message'`` refines MMC (``UMMC``) — "adapting this algorithm
        to refine MMC is trivial".  In message mode the input graph's
        edge weights are interpreted as *message multiplicities* (pass
        ``task_graph.unit_cost()`` for one message per edge, or a coarse
        graph weighted by fine rank-pair counts as the pipeline does);
        bandwidths are ignored.
    batch_candidates:
        Score the ≤Δ candidates of one search in a single batched kernel
        call (default).  ``False`` probes them one by one through the
        scalar ``swap_improves`` — same verdicts, kept as the reference
        path for the batched-vs-scalar property tests.
    """

    delta: int = 8
    metric: str = "volume"
    max_swaps: int = 2_000
    #: how deep into the congestion order a sweep may fall through before
    #: declaring the pass improvement-free (bounds worst-case sweeps; the
    #: paper's congHeap pops successive links until one improves).
    sweep_limit: int = 4
    batch_candidates: bool = True

    def __post_init__(self) -> None:
        if self.metric not in ("volume", "message"):
            raise ValueError("metric must be 'volume' or 'message'")

    @property
    def name(self) -> str:
        return "UMC" if self.metric == "volume" else "UMMC"

    # ------------------------------------------------------------------
    def refine(
        self,
        task_graph: TaskGraph,
        mapping: Mapping,
        *,
        cache=None,
    ) -> Mapping:
        """Refine *mapping* (copy) to lower MC (or MMC) with minimal WH harm.

        Links are visited in ``congHeap`` pop order — most congested
        first, falling through to the next link when the current one
        admits no improving swap.  A committed swap restarts from the
        (recomputed) top; the algorithm stops when a full sweep over the
        loaded links improves nothing, realizing Algorithm 3's "while MC
        or AC is improved" outer loop.

        When an :class:`~repro.api.cache.ArtifactCache` is passed, the
        initial route table is fetched from (or seeded into) its
        ``route_table`` namespace, so algorithms routing the same
        endpoints — UMC and UMMC of one ``map_batch`` — enumerate them
        once.
        """
        machine = mapping.machine
        src_t, dst_t, vol = task_graph.graph.edge_list()
        state = CongestionModel(
            machine.torus,
            src_t,
            dst_t,
            vol,
            mapping.gamma.copy(),
            metric=self.metric,
            route_table=self._shared_route_table(task_graph, mapping, cache),
        )
        sym = task_graph.symmetrized()
        weights = task_graph.loads

        swaps = 0
        while swaps < self.max_swaps:
            load = state._load()
            order = np.argsort(-load, kind="stable")[: self.sweep_limit]
            order = order[load[order] > _EPS]
            if order.size == 0:
                break
            improved = False
            # _find_swap is a pure function of (task, model state), so a
            # task that found no partner stays partnerless until a commit.
            failed = set()
            for emc in order.tolist():
                for tmc in state.tasks_through(emc):
                    if tmc in failed:
                        continue
                    partner = self._find_swap(tmc, state, machine, sym, weights)
                    if partner is None:
                        failed.add(tmc)
                        continue
                    state.commit_swap(tmc, partner)
                    swaps += 1
                    improved = True
                    break  # restart from the (new) most congested link
                if improved:
                    break
            if not improved:
                break  # no loaded link can be improved -> stop
        validate_mapping(state.gamma, machine, weights)
        return Mapping(state.gamma, machine)

    @staticmethod
    def _shared_route_table(
        task_graph: TaskGraph, mapping: Mapping, cache
    ) -> Optional[RouteTable]:
        """Initial-route sharing through the artifact cache (optional)."""
        if cache is None:
            return None  # the model builds its own private table
        src_t, dst_t, _ = task_graph.graph.edge_list()
        return shared_route_table(
            mapping.machine.torus,
            mapping.gamma[src_t.astype(np.int64)],
            mapping.gamma[dst_t.astype(np.int64)],
            cache,
        )

    def _find_swap(
        self,
        tmc: int,
        state: CongestionModel,
        machine: Machine,
        sym,
        weights: np.ndarray,
    ) -> Optional[int]:
        """First MC/AC-improving partner among ≤Δ BFS-ordered candidates.

        Eligibility is filtered over the whole BFS order in one
        vectorized shot; the first Δ surviving candidates are scored in
        a single batched kernel call and the first improving partner (in
        BFS order) wins — exactly the partner the scalar
        probe-one-by-one loop commits.
        """
        nbrs = sym.neighbors(tmc)
        if nbrs.size == 0:
            return None
        nodes, _ = machine.bfs_order(state.gamma[nbrs])
        hosts = state.host[nodes]
        # host[Γ[tmc]] == tmc subsumes the scalar "skip our own node".
        cand = hosts[(hosts >= 0) & (hosts != tmc)]
        cands = cand[weights[cand] == weights[tmc]][: self.delta]
        if cands.size == 0:
            return None
        if not self.batch_candidates:
            for t in cands.tolist():
                if state.swap_improves(tmc, int(t)):
                    return int(t)
            return None
        verdicts = state.evaluate_swaps(tmc, cands)
        hits = np.flatnonzero(verdicts)
        return int(cands[hits[0]]) if hits.size else None
