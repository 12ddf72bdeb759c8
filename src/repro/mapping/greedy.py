"""Algorithm 1 — Greedy Mapping (the paper's ``UG`` without refinement).

The algorithm grows a mapped region greedily:

1. map ``t_MSRV`` (maximum send+receive volume task) to an arbitrary node;
2. while unmapped tasks remain, pick the unmapped task with the maximum
   total connectivity to mapped tasks (max-heap ``conn``: a :mod:`heapq`
   of ``(-connectivity, seq, task)`` with lazy deletion, ``seq`` fixed
   when the task is first reached, so ties pop first-reached first);
   during the seeding phase (``NBFS`` seeds) pick instead the *farthest*
   unmapped task found by BFS on ``Gt`` from all mapped tasks (ties
   favour the higher-communication-volume task; disconnected components
   fall back to their maximum-volume task);
3. place the picked task with ``GETBESTNODE``: BFS on ``Gm`` from the
   nodes of its mapped neighbours, stopping at the first level that
   contains allocated nodes with free capacity and choosing among them
   the one with the minimum WH overhead (early exit).  A task with no
   mapped neighbour goes to one of the farthest free allocated nodes.

``NBFS ∈ {0, 1}`` produces two mappings; the driver keeps the lower-WH
one, exactly as the paper's implementation does.

Hot path: GETBESTNODE only ever picks an allocated node and its seeds
are allocated, so it works on allocation rows: it reads the BFS order
of the allocated nodes from the machine's allocation hop matrix
(:meth:`Machine.bfs_rows`) and the WH overhead from its ring-hop matrix
(:meth:`Machine.ring_hops`), at a cost that does not grow with the
torus.  The order (level, then id) is the allocated part of a BFS of
``Gm``, so the same node wins.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.task_graph import TaskGraph
from repro.mapping.base import Mapping, validate_mapping, wh_of
from repro.topology.machine import Machine

__all__ = ["GreedyMapper"]


@dataclass
class GreedyMapper:
    """Algorithm 1 with best-of-``nbfs_candidates`` seeding.

    Parameters
    ----------
    nbfs_candidates:
        The NBFS values to try (paper: ``(0, 1)``); the mapping with the
        lowest WH wins.
    """

    nbfs_candidates: Sequence[int] = (0, 1)

    name: str = "UG"

    def map(self, task_graph: TaskGraph, machine: Machine) -> Mapping:
        """Map *task_graph* groups onto *machine* nodes minimizing WH."""
        best: Optional[np.ndarray] = None
        best_wh = np.inf
        for nbfs in self.nbfs_candidates:
            gamma = greedy_map(task_graph, machine, nbfs=int(nbfs))
            wh = wh_of(task_graph, machine, gamma)
            if wh < best_wh:
                best_wh = wh
                best = gamma
        assert best is not None, "nbfs_candidates must not be empty"
        return Mapping(best, machine)


def greedy_map(task_graph: TaskGraph, machine: Machine, *, nbfs: int = 0) -> np.ndarray:
    """One run of Algorithm 1 for a fixed *nbfs*; returns Γ (int64)."""
    sym = task_graph.symmetrized()
    n_tasks = task_graph.num_tasks
    weights = task_graph.loads
    caps = machine.node_capacities().astype(np.float64)
    free = caps.copy()
    # Hoisted out of the per-task placement loop: allocation membership
    # is placement-invariant.
    alloc_mask = machine.alloc_mask()

    gamma = np.full(n_tasks, -1, dtype=np.int64)
    mapped_mask = np.zeros(n_tasks, dtype=bool)
    total_vol = task_graph.send_volume() + task_graph.recv_volume()
    # conn: connectivity of each reached unmapped task to the mapped
    # ones; its heap holds (-conn, seq, task) entries, and an entry is
    # live only while its task is unmapped and its priority current.
    conn = [0.0] * n_tasks
    seq = [-1] * n_tasks
    reached = itertools.count()
    heap: List[tuple] = []

    # With uniform group weights the "has room" mask is task-independent
    # and only the placed node can change — maintain it incrementally.
    uniform_w = n_tasks > 0 and bool(np.all(weights == weights[0]))
    room = alloc_mask & (free >= weights[0] - 1e-9) if uniform_w else None

    def place(task: int, node: int) -> None:
        gamma[task] = node
        mapped_mask[task] = True
        free[node] -= weights[task]
        if room is not None:
            room[node] = alloc_mask[node] and free[node] >= weights[0] - 1e-9
        nbrs = sym.neighbors(task)
        keep = ~mapped_mask[nbrs]
        for u, c in zip(
            nbrs[keep].tolist(), sym.neighbor_weights(task)[keep].tolist()
        ):
            if seq[u] < 0:
                seq[u] = next(reached)
            conn[u] += c
            heapq.heappush(heap, (-conn[u], seq[u], u))

    # ------------------------------------------------------------------
    # Non-uniform capacities: groups whose weight differs from the common
    # one are placed first "since their nodes are almost decided due to
    # their uniqueness" (paper Sec. III-A).
    # ------------------------------------------------------------------
    order_first: List[int] = []
    if not machine.uniform_capacity() or np.unique(weights).shape[0] > 1:
        vals, counts = np.unique(weights, return_counts=True)
        modal = vals[np.argmax(counts)]
        rare = np.flatnonzero(weights != modal)
        order_first = sorted(
            rare.tolist(), key=lambda t: (-weights[t], -total_vol[t], t)
        )

    # Map t_MSRV to an arbitrary node (first allocated node able to host it).
    t0 = int(np.argmax(total_vol))
    if order_first:
        t0 = order_first.pop(0)
    m0 = _first_fitting_node(machine, free, weights[t0])
    place(t0, m0)

    for t in order_first:
        node = _get_best_node(
            t, task_graph, sym, machine, gamma, mapped_mask, free, room
        )
        place(t, node)

    seeds_placed = 0
    while not mapped_mask.all():
        if seeds_placed < nbfs:
            tbest = _farthest_task(sym, mapped_mask, total_vol)
            seeds_placed += 1
        else:
            tbest = -1
            while heap:
                neg, _, cand = heapq.heappop(heap)
                if not mapped_mask[cand] and -neg == conn[cand]:
                    tbest = cand
                    break
            if tbest < 0:
                # Disconnected component: maximum-volume unmapped task.
                rest = np.flatnonzero(~mapped_mask)
                tbest = int(rest[np.argmax(total_vol[rest])])
        node = _get_best_node(
            tbest, task_graph, sym, machine, gamma, mapped_mask, free, room
        )
        place(tbest, node)

    validate_mapping(gamma, machine, weights)
    return gamma


def _first_fitting_node(machine: Machine, free: np.ndarray, weight: float) -> int:
    """First allocated node (allocation order) with room for *weight*."""
    nodes = machine.alloc_nodes
    fits = np.flatnonzero(free[nodes] >= weight - 1e-9)
    if fits.size == 0:
        raise ValueError("no allocated node can host the first task group")
    return int(nodes[fits[0]])


def _farthest_task(sym: CSRGraph, mapped_mask: np.ndarray, total_vol: np.ndarray) -> int:
    """Farthest unmapped task by BFS on Gt from all mapped tasks.

    All mapped tasks sit at BFS level 0; ties break toward the larger
    communication volume, then the smaller id.  Unreached tasks (other
    components) are preferred last via their maximum-volume member, per
    the paper's disconnected-graph rule.
    """
    sources = np.flatnonzero(mapped_mask)
    level = sym.bfs_levels(sources)
    unmapped = ~mapped_mask
    reached = (level >= 0) & unmapped
    if np.any(reached):
        lv = np.where(reached, level, -1)
        far = lv.max()
        cands = np.flatnonzero(lv == far)
        return int(cands[np.argmax(total_vol[cands])])
    rest = np.flatnonzero(unmapped)
    return int(rest[np.argmax(total_vol[rest])])


def _get_best_node(
    task: int,
    task_graph: TaskGraph,
    sym: CSRGraph,
    machine: Machine,
    gamma: np.ndarray,
    mapped_mask: np.ndarray,
    free: np.ndarray,
    room: Optional[np.ndarray] = None,
) -> int:
    """GETBESTNODE of Algorithm 1 (with the early-exit BFS).

    * If *task* has mapped neighbours: BFS on ``Gm`` from their nodes;
      stop at the first BFS level holding allocated nodes with enough free
      capacity and return the one with the minimum WH increase.
    * Otherwise: BFS from all non-empty nodes and return one of the
      *farthest* allocated nodes with room (spreading unrelated tasks).

    Both read the allocated nodes' BFS order from
    :meth:`Machine.bfs_rows`; ties within a level go to the lowest id,
    which is the lowest allocation row.
    """
    nbrs = sym.neighbors(task)
    nbr_w = sym.neighbor_weights(task)
    mapped_nbrs = nbrs[mapped_mask[nbrs]]
    spread = mapped_nbrs.size == 0
    nodes, node_row = machine.sorted_alloc()
    mapped_nbr_rows = node_row[gamma[mapped_nbrs]]

    seed_rows = node_row[gamma[gamma >= 0]] if spread else mapped_nbr_rows
    rows, levels = machine.bfs_rows(seed_rows)
    # bfs_rows yields allocated nodes only, so free capacity decides.
    fits = room if room is not None else free >= task_graph.loads[task] - 1e-9
    ok = fits[nodes[rows]]
    if not ok.any():
        # Room exists by construction, but on a degraded torus the
        # seeds may reach none of the free nodes.
        raise ValueError("no free allocated node found")
    rows, levels = rows[ok], levels[ok]
    if spread:
        # The farthest level's lowest id: its first entry in BFS order.
        return int(nodes[rows[np.searchsorted(levels, levels[-1])]])

    # The nearest level holding a free node, in ascending row order.
    cands = rows[: np.searchsorted(levels, levels[0], side="right")]
    costs = nbr_w[mapped_mask[nbrs]]
    # Minimum WH overhead among this level's candidates.
    overhead = machine.ring_hops()[cands[:, None], mapped_nbr_rows] @ costs
    best = np.flatnonzero(overhead == overhead.min())
    return int(nodes[cands[best].min()])
