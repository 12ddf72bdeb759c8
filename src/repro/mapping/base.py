"""Shared mapping plumbing: the Mapping container and helpers.

A *coarse* mapping assigns one task-group per allocated node
(``Γ : groups -> node ids``); the *fine* mapping sends every MPI rank to a
node.  All quality metrics are evaluated on the fine level so that DEF
(whose grouping is the consecutive-rank blocking, not the partitioner's)
is compared fairly against the two-phase algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graph.task_graph import TaskGraph
from repro.topology.machine import Machine

__all__ = ["Mapping", "expand_mapping", "validate_mapping", "group_targets", "wh_of"]


@dataclass
class Mapping:
    """A task-group → node assignment.

    Attributes
    ----------
    gamma:
        int64[num_groups] node id per group (``Γ`` in the paper).
    machine:
        The machine the mapping targets.
    """

    gamma: np.ndarray
    machine: Machine

    def __post_init__(self) -> None:
        self.gamma = np.asarray(self.gamma, dtype=np.int64)

    def copy(self) -> "Mapping":
        return Mapping(self.gamma.copy(), self.machine)

    @property
    def num_groups(self) -> int:
        return self.gamma.shape[0]


def validate_mapping(
    gamma: np.ndarray,
    machine: Machine,
    group_weights: Optional[np.ndarray] = None,
) -> None:
    """Raise ValueError unless *gamma* respects allocation and capacities.

    With *group_weights* given (processors demanded per group), the sum of
    weights landing on each node must not exceed its capacity.
    """
    gamma = np.asarray(gamma, dtype=np.int64)
    mask = machine.alloc_mask()
    if np.any(gamma < 0) or np.any(gamma >= machine.torus.num_nodes):
        raise ValueError("gamma contains node ids outside the torus")
    if not mask[gamma].all():
        bad = int(np.flatnonzero(~mask[gamma])[0])
        raise ValueError(f"group {bad} mapped to unallocated node {int(gamma[bad])}")
    if group_weights is not None:
        weights = np.asarray(group_weights, dtype=np.float64)
        used = np.zeros(machine.torus.num_nodes, dtype=np.float64)
        np.add.at(used, gamma, weights)
        caps = machine.node_capacities().astype(np.float64)
        over = used > caps + 1e-9
        if np.any(over):
            node = int(np.flatnonzero(over)[0])
            raise ValueError(
                f"node {node} overcommitted: {used[node]:.0f} > {caps[node]:.0f}"
            )


def expand_mapping(group_of_task: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Fine mapping: task → node via its group's assignment."""
    group_of_task = np.asarray(group_of_task, dtype=np.int64)
    return np.asarray(gamma, dtype=np.int64)[group_of_task]


def group_targets(machine: Machine) -> np.ndarray:
    """Target group weights = per-node processor capacities.

    The paper partitions the task graph "into |Va| nodes, where the target
    part weights are the number of available processors on each node".
    """
    return machine.capacities.astype(np.float64)


def wh_of(task_graph: TaskGraph, machine: Machine, gamma: np.ndarray) -> float:
    """Weighted hops of a mapping into ``Va`` (no routing pass needed)."""
    from repro.kernels import total_weighted_hops

    rows = machine.alloc_rows(np.asarray(gamma, dtype=np.int64))
    return total_weighted_hops(task_graph.graph, machine.ring_hops(), rows)
