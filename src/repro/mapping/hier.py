"""``HIER`` — hierarchical per-dimension partition→placement pipeline.

Schulz & Woydt's *Shared-Memory Hierarchical Process Mapping* maps in
stages that mirror the machine's hierarchy: processes are k-way
partitioned into the top hierarchy level's modules, each part is
recursively partitioned into the next level, and only the leaves place
individual processes.  Our torus analogue treats the allocation's
geometry as the hierarchy: at every level the current node subset is
sliced into its coordinate planes along the widest dimension, the task
groups are k-way partitioned to the slices (target weights = slice
capacities, multilevel engine), and the recursion descends per slice
until single nodes remain.

Compared to ``TMAP``/``SMAP``'s binary dual recursion this runs *one*
k-way partition per torus dimension level (k = plane count), so its
cut decisions see the whole axis at once and the recursion is only as
deep as the torus has dimensions with extent > 1.

The placement expects the standard coarse setup (one group per
allocated node, group weights sized to the capacity multiset by the
shared grouping stage).  A final swap-repair pass resolves the rare
capacity violations a cardinality-exact partition can leave on
heterogeneous machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import List

import numpy as np

from repro.graph.task_graph import TaskGraph
from repro.mapping.base import Mapping, validate_mapping
from repro.partition.driver import PartitionConfig, partition_graph
from repro.topology.machine import Machine
from repro.util.rng import mix_seed

__all__ = ["HierMapper", "hierarchical_map"]


def hierarchical_map(
    task_graph: TaskGraph,
    machine: Machine,
    *,
    seed: int = 0,
    engine: PartitionConfig = PartitionConfig(fm_passes=2, initial_attempts=2),
) -> np.ndarray:
    """Recursive per-dimension partitioning of groups onto nodes; returns Γ."""
    n = task_graph.num_tasks
    if n != machine.num_alloc_nodes:
        raise ValueError(
            "hierarchical placement expects one task group per allocated node "
            f"({n} groups, {machine.num_alloc_nodes} nodes)"
        )
    sym = task_graph.symmetrized()
    gamma = np.full(n, -1, dtype=np.int64)
    _recurse(
        sym,
        np.arange(n, dtype=np.int64),
        machine.alloc_nodes.copy(),
        machine,
        gamma,
        seed,
        engine,
    )
    _repair_capacities(gamma, task_graph.graph.vertex_weights, machine)
    validate_mapping(gamma, machine, task_graph.graph.vertex_weights)
    return gamma


def _recurse(
    sym,
    group_ids: np.ndarray,
    node_ids: np.ndarray,
    machine: Machine,
    gamma: np.ndarray,
    seed: int,
    engine: PartitionConfig,
) -> None:
    if node_ids.shape[0] == 0 or group_ids.shape[0] == 0:
        return
    if node_ids.shape[0] == 1:
        gamma[group_ids] = node_ids[0]
        return

    # ---- slice the node subset into planes of its widest dimension ----
    coords = machine.torus.coords()[node_ids]
    spans = coords.max(axis=0) - coords.min(axis=0)
    dim = int(np.argmax(spans))
    # Distinct allocated node ids always differ in some coordinate, so
    # the widest dimension of a >1-node subset has extent > 0.
    values = np.unique(coords[:, dim])
    buckets = [node_ids[coords[:, dim] == v] for v in values]
    caps = machine.node_capacities().astype(np.float64)
    targets = [float(caps[b].sum()) for b in buckets]

    # ---- k-way partition the groups to the slices ----------------------
    sub, _ = sym.subgraph(group_ids)
    part = partition_graph(
        sub,
        len(buckets),
        target_weights=targets,
        seed=mix_seed(seed, dim * 8191 + int(node_ids[0])),
        config=engine,
        tool="grouping",
    ).part
    part = _fix_counts(sub, part, [b.shape[0] for b in buckets])

    for i, bucket in enumerate(buckets):
        _recurse(
            sym,
            group_ids[part == i],
            bucket,
            machine,
            gamma,
            seed + i + 1,
            engine,
        )


def _fix_counts(sub, part: np.ndarray, counts: List[int]) -> np.ndarray:
    """Enforce exact per-part cardinalities (one group per node downstream).

    Moves the group with the weakest attachment to its over-full part
    toward the under-full part it is most attached to, until every part
    holds exactly its slice's node count.  Ties break on the lower group
    id, keeping the placement deterministic.
    """
    part = part.astype(np.int64).copy()
    k = len(counts)
    have = np.bincount(part, minlength=k)
    if np.array_equal(have, np.asarray(counts)):
        return part

    # A left fold, not builtin sum(): from Python 3.12 sum() compensates
    # float rounding, which would break attachment ties per interpreter.
    def attachment(g: int, side: int) -> float:
        nbrs = sub.neighbors(g)
        wts = sub.neighbor_weights(g)
        return reduce(
            add, (w for u, w in zip(nbrs.tolist(), wts.tolist()) if part[u] == side), 0.0
        )

    while True:
        over = [i for i in range(k) if have[i] > counts[i]]
        under = [i for i in range(k) if have[i] < counts[i]]
        if not over:
            break
        best = None
        for g in np.flatnonzero(np.isin(part, over)).tolist():
            src = int(part[g])
            for dst in under:
                gain = attachment(g, dst) - attachment(g, src)
                cand = (-gain, g, dst)
                if best is None or cand < best:
                    best = cand
        _, g, dst = best
        have[part[g]] -= 1
        part[g] = dst
        have[dst] += 1
    return part


def _repair_capacities(
    gamma: np.ndarray, weights: np.ndarray, machine: Machine
) -> None:
    """Swap-repair capacity violations in a group↔node bijection, in place.

    The grouping stage sizes group weights to the capacity multiset, so
    a feasible bijection always exists; on (heterogeneous) machines the
    cardinality-exact partition can still pair a heavy group with a
    small node.  Greedily applies the swap that shrinks the total
    overflow ``Σ max(0, w - cap)`` the most (ties broken on the lower
    group ids) — single direct swaps are the common case, and the
    strictly decreasing integer potential also resolves the chain
    shapes where a heavy group must displace a medium one first.
    """
    caps = machine.node_capacities().astype(np.float64)
    w = np.asarray(weights, dtype=np.float64)

    def over(weight: float, node: int) -> float:
        return max(0.0, weight - caps[node])

    total = float(sum(over(w[g], gamma[g]) for g in range(gamma.shape[0])))
    while total > 1e-9:
        bad = np.flatnonzero(w > caps[gamma] + 1e-9)
        best = None  # (-improvement, g, h)
        for g in bad.tolist():
            cur_g = over(w[g], gamma[g])
            for h in range(gamma.shape[0]):
                if h == g:
                    continue
                delta = (
                    over(w[g], gamma[h])
                    + over(w[h], gamma[g])
                    - cur_g
                    - over(w[h], gamma[h])
                )
                if delta < -1e-9:
                    cand = (delta, g, h)
                    if best is None or cand < best:
                        best = cand
        if best is None:
            g = int(bad[0])
            raise ValueError(
                f"no overflow-reducing swap for group {g} "
                f"(weight {w[g]:.0f} on capacity {caps[gamma[g]]:.0f})"
            )
        delta, g, h = best
        gamma[g], gamma[h] = gamma[h], gamma[g]
        total += delta


@dataclass
class HierMapper:
    """Hierarchical per-dimension recursive partition placement."""

    seed: int = 0
    engine: PartitionConfig = PartitionConfig(fm_passes=2, initial_attempts=2)

    name: str = "HIER"

    def map(self, task_graph: TaskGraph, machine: Machine) -> Mapping:
        """Map one task group per allocated node (hierarchy-style)."""
        gamma = hierarchical_map(
            task_graph, machine, seed=self.seed, engine=self.engine
        )
        return Mapping(gamma, machine)
