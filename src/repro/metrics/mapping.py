"""Topology-aware mapping metrics (paper Sec. II).

Given a mapping ``Γ : tasks -> nodes``, the well-received metrics are:

* ``TH(Γ)  = Σ_{(t1,t2)∈Et} dilation(t1, t2)`` — total hop count
  (latency proxy; dilation = shortest-path length between mapped nodes);
* ``WH(Γ)  = Σ dilation · c(t1,t2)`` — weighted hops;
* ``Congestion(e) = Σ inSP(e, Γ(t1), Γ(t2))`` — messages crossing link e;
* ``MMC(Γ) = max_e Congestion(e)`` — max message congestion;
* ``VC(e)  = Σ inSP(e, ·) · c / bw(e)`` and ``MC = max_e VC(e)`` — max
  volume congestion (bandwidth proxy);
* ``AMC = Σ_e Congestion(e) / |Etm|`` and ``AC = Σ_e VC(e) / |Etm|`` over
  the set ``Etm`` of links actually used — the paper's averaged metrics
  that balance hops against congestion.

Everything is computed in one vectorized pass over the static routes of
all messages (at most ``|Et| · D`` link crossings, D = torus diameter).
The routes come from the shared :class:`~repro.topology.routing.RouteTable`
subsystem — pass ``route_table=`` to reuse one you already hold, or
``cache=`` (an :class:`~repro.api.cache.ArtifactCache`) to share the
enumeration with every other consumer keyed on the same endpoints (the
congestion refiners, the flow simulator, repeated evaluations of the
same mapping).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.graph.task_graph import TaskGraph
from repro.kernels import total_weighted_hops
from repro.topology.machine import Machine
from repro.topology.routing import RouteTable, shared_route_table

__all__ = ["MappingMetrics", "evaluate_mapping", "link_congestion"]


@dataclass(frozen=True)
class MappingMetrics:
    """Snapshot of every Sec.-II metric for one mapping.

    ``used_links`` is ``|Etm|``, the number of directed links carrying at
    least one message.
    """

    th: float
    wh: float
    mmc: float
    mc: float
    amc: float
    ac: float
    used_links: int

    def as_dict(self) -> dict:
        return {
            "TH": self.th,
            "WH": self.wh,
            "MMC": self.mmc,
            "MC": self.mc,
            "AMC": self.amc,
            "AC": self.ac,
            "used_links": self.used_links,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TH={self.th:.0f} WH={self.wh:.0f} MMC={self.mmc:.0f} "
            f"MC={self.mc:.3f} AMC={self.amc:.2f} AC={self.ac:.3f}"
        )


def _validate_gamma(task_graph: TaskGraph, machine: Machine, gamma: np.ndarray) -> np.ndarray:
    gamma = np.asarray(gamma, dtype=np.int64)
    if gamma.shape[0] != task_graph.num_tasks:
        raise ValueError(
            f"gamma has {gamma.shape[0]} entries for {task_graph.num_tasks} tasks"
        )
    if np.any(gamma < 0) or np.any(gamma >= machine.torus.num_nodes):
        raise ValueError("gamma maps tasks outside the torus")
    if not machine.alloc_mask()[gamma].all():
        raise ValueError("gamma maps tasks to unallocated nodes")
    return gamma


def link_congestion(
    task_graph: TaskGraph,
    machine: Machine,
    gamma: np.ndarray,
    *,
    cache=None,
    route_table: Optional[RouteTable] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-link (message_count, volume) arrays over the directed links.

    Realizes Eq. (1) for all links at once.  Intra-node messages
    (``Γ(t1) == Γ(t2)``) use no links and contribute nothing (their
    route segments are empty).  A *route_table* passed in must index the
    edges' endpoint pairs under *gamma*, in edge-list order.
    """
    gamma = _validate_gamma(task_graph, machine, gamma)
    src_t, dst_t, vol = task_graph.graph.edge_list()
    if route_table is None:
        route_table = shared_route_table(
            machine.torus, gamma[src_t], gamma[dst_t], cache
        )
    return route_table.accumulate(vol)


def evaluate_mapping(
    task_graph: TaskGraph,
    machine: Machine,
    gamma: np.ndarray,
    *,
    cache=None,
    route_table: Optional[RouteTable] = None,
) -> MappingMetrics:
    """Compute TH, WH, MMC, MC, AMC and AC for mapping *gamma*.

    *gamma* maps each task-graph vertex to a torus node id in ``Va``.
    When the task graph is the coarse (node-level) graph, these are
    exactly the metrics of the paper's Figures 2, 4 and 5.
    """
    gamma = _validate_gamma(task_graph, machine, gamma)
    src_t, dst_t, vol = task_graph.graph.edge_list()
    rows = machine.alloc_rows(gamma)
    dilation = machine.ring_hops()[rows[src_t], rows[dst_t]].astype(np.float64)
    th = float(dilation.sum())
    wh = float((dilation * vol).sum())

    msgs, vols = link_congestion(
        task_graph, machine, gamma, cache=cache, route_table=route_table
    )
    bw = machine.torus.link_bandwidths()
    used = msgs > 0
    n_used = int(np.count_nonzero(used))
    mmc = float(msgs.max()) if n_used else 0.0
    vc = np.zeros_like(vols)
    np.divide(vols, bw, out=vc, where=bw > 0)
    mc = float(vc.max()) if n_used else 0.0
    amc = float(msgs.sum() / n_used) if n_used else 0.0
    ac = float(vc.sum() / n_used) if n_used else 0.0
    return MappingMetrics(
        th=th, wh=wh, mmc=mmc, mc=mc, amc=amc, ac=ac, used_links=n_used
    )


def weighted_hops(
    task_graph: TaskGraph, machine: Machine, gamma: np.ndarray
) -> float:
    """WH only (cheaper than :func:`evaluate_mapping`; no routing pass)."""
    gamma = _validate_gamma(task_graph, machine, gamma)
    return total_weighted_hops(
        task_graph.graph, machine.ring_hops(), machine.alloc_rows(gamma)
    )


def total_hops(task_graph: TaskGraph, machine: Machine, gamma: np.ndarray) -> float:
    """TH only."""
    gamma = _validate_gamma(task_graph, machine, gamma)
    src_t, dst_t, _ = task_graph.graph.edge_list()
    rows = machine.alloc_rows(gamma)
    return float(machine.ring_hops()[rows[src_t], rows[dst_t]].sum())
