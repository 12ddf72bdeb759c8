"""``TMAP`` — LibTopoMap-like recursive-bipartitioning mapper.

LibTopoMap [Hoefler & Snir, SC'11] first partitions the task graph into
the allocated nodes, then maps part ↔ node with one of several strategies;
the paper reports its *recursive graph bipartitioning* variant as the
best and notes two behaviours we reproduce:

* the primary metric is MC: "If TMAP's MC value is not smaller than the
  DEF mapping, it returns the DEF mapping";
* it is the slowest mapper (it runs a full partitioner per level of the
  node-set recursion).

The dual recursion: split the allocated nodes into two halves by their
position along the longest torus dimension of the current node subset
(geometric bisection of the machine), split the task groups with a
multilevel graph bisection of matching size, and recurse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Optional

import numpy as np

from repro.graph.task_graph import TaskGraph
from repro.mapping.base import Mapping, validate_mapping
from repro.metrics.mapping import evaluate_mapping
from repro.partition.driver import PartitionConfig, multilevel_bisect
from repro.topology.machine import Machine
from repro.util.rng import mix_seed

__all__ = ["TopoMapper", "dual_recursive_map"]


@dataclass
class TopoMapper:
    """Recursive-bipartitioning mapping with DEF fallback on MC."""

    seed: int = 0
    engine: PartitionConfig = PartitionConfig(fm_passes=4, initial_attempts=4)
    fallback_on_mc: bool = True

    name: str = "TMAP"

    def map(
        self,
        task_graph: TaskGraph,
        machine: Machine,
        *,
        reference_gamma: Optional[np.ndarray] = None,
    ) -> Mapping:
        """Map groups to nodes; falls back to *reference_gamma* (DEF) on MC.

        *task_graph* must already be at node granularity (one group per
        allocated node), as LibTopoMap's own partitioning phase produces.
        """
        gamma = dual_recursive_map(
            task_graph, machine, seed=self.seed, engine=self.engine,
            split="geometric",
        )
        if self.fallback_on_mc and reference_gamma is not None:
            ours = evaluate_mapping(task_graph, machine, gamma)
            ref = evaluate_mapping(task_graph, machine, reference_gamma)
            if ours.mc >= ref.mc:
                return Mapping(np.asarray(reference_gamma, dtype=np.int64).copy(), machine)
        return Mapping(gamma, machine)


def dual_recursive_map(
    task_graph: TaskGraph,
    machine: Machine,
    *,
    seed: int = 0,
    engine: PartitionConfig = PartitionConfig(),
    split: str = "geometric",
) -> np.ndarray:
    """Simultaneous recursive bipartition of tasks and allocated nodes.

    ``split='geometric'`` halves the node subset along its widest torus
    dimension (LibTopoMap-style); ``split='graph'`` bisects the induced
    machine subgraph with the multilevel engine (Scotch-style).
    """
    sym = task_graph.symmetrized()
    n_tasks = task_graph.num_tasks
    if n_tasks != machine.num_alloc_nodes:
        raise ValueError(
            "dual recursive mapping expects one task group per allocated node "
            f"({n_tasks} groups, {machine.num_alloc_nodes} nodes)"
        )
    gamma = np.full(n_tasks, -1, dtype=np.int64)
    _recurse(
        sym,
        np.arange(n_tasks, dtype=np.int64),
        machine.alloc_nodes.copy(),
        machine,
        gamma,
        seed,
        engine,
        split,
    )
    validate_mapping(gamma, machine, None)
    return gamma


def _recurse(
    sym,
    task_ids: np.ndarray,
    node_ids: np.ndarray,
    machine: Machine,
    gamma: np.ndarray,
    seed: int,
    engine: PartitionConfig,
    split: str,
) -> None:
    k = node_ids.shape[0]
    if k == 0:
        return
    if k == 1:
        gamma[task_ids] = node_ids[0]
        return
    if task_ids.shape[0] == 1:
        gamma[task_ids[0]] = node_ids[0]
        return

    # ---- split the node subset ----------------------------------------
    left_nodes, right_nodes = _split_nodes(node_ids, machine, split, seed)
    k0 = left_nodes.shape[0]

    # ---- split the task subset to matching cardinality ------------------
    sub, _ = sym.subgraph(task_ids)
    # Target weight: proportion of nodes going left (groups are
    # node-sized, so cardinality tracks weight).
    total = float(sub.vertex_weights.sum())
    target0 = total * (k0 / k)
    side = multilevel_bisect(
        sub, target0, seed=mix_seed(seed, k * 131 + int(node_ids[0])),
        slack=max(total / (4.0 * k), float(sub.vertex_weights.max())),
        config=engine,
    )
    left_ids = np.flatnonzero(side == 0)
    right_ids = np.flatnonzero(side == 1)
    # Cardinality must match the node split exactly (one group per node):
    # move the least-attached tasks across if the bisection missed.
    left_ids, right_ids = _fix_cardinality(sub, left_ids, right_ids, k0)

    _recurse(sym, task_ids[left_ids], left_nodes, machine, gamma, seed + 1, engine, split)
    _recurse(sym, task_ids[right_ids], right_nodes, machine, gamma, seed + 2, engine, split)


def _split_nodes(node_ids: np.ndarray, machine: Machine, split: str, seed: int):
    """Halve the node subset, keeping each half topologically compact."""
    k = node_ids.shape[0]
    k0 = (k + 1) // 2
    coords = machine.torus.coords()[node_ids]
    if split == "graph":
        # Bisect the induced machine subgraph; fall back to geometry when
        # the subgraph is too sparse to bisect meaningfully.
        sub, _ = machine.graph().subgraph(node_ids)
        if sub.num_edges > 0:
            side = multilevel_bisect(
                sub,
                float(k0),
                seed=mix_seed(seed, 977),
                slack=1.0,
                config=PartitionConfig(fm_passes=2, initial_attempts=2),
            )
            left = node_ids[side == 0]
            right = node_ids[side == 1]
            if left.shape[0] and right.shape[0]:
                # Rebalance cardinality geometrically if needed.
                if abs(left.shape[0] - k0) <= max(1, k // 8):
                    return left, right
    # Geometric: sort along the widest spread dimension, split in half.
    spans = coords.max(axis=0) - coords.min(axis=0)
    dim = int(np.argmax(spans))
    order = np.lexsort(
        (node_ids, coords[:, (dim + 2) % 3], coords[:, (dim + 1) % 3], coords[:, dim])
    )
    ordered = node_ids[order]
    return ordered[:k0], ordered[k0:]


def _fix_cardinality(sub, left_ids: np.ndarray, right_ids: np.ndarray, k0: int):
    """Move weakest-attached tasks between sides until |left| == k0."""
    left = list(left_ids.tolist())
    right = list(right_ids.tolist())
    side_of = {t: 0 for t in left}
    side_of.update({t: 1 for t in right})

    # A left fold, not builtin sum(): from Python 3.12 sum() compensates
    # float rounding, which would break attachment ties per interpreter.
    def attachment(t: int, side: int) -> float:
        nbrs = sub.neighbors(t)
        wts = sub.neighbor_weights(t)
        return reduce(
            add, (w for u, w in zip(nbrs.tolist(), wts.tolist()) if side_of[u] == side), 0.0
        )

    while len(left) > k0:
        t = min(left, key=lambda x: (attachment(x, 0) - attachment(x, 1), x))
        left.remove(t)
        right.append(t)
        side_of[t] = 1
    while len(left) < k0:
        t = min(right, key=lambda x: (attachment(x, 1) - attachment(x, 0), x))
        right.remove(t)
        left.append(t)
        side_of[t] = 0
    return (
        np.asarray(sorted(left), dtype=np.int64),
        np.asarray(sorted(right), dtype=np.int64),
    )
