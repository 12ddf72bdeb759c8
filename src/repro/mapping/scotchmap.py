"""``SMAP`` — Scotch-like dual recursive bipartitioning mapper.

Scotch's ``SMAP`` [Pellegrini & Roman] performs *simultaneous* recursive
bipartitioning of the process graph and the architecture graph.  The
paper used Scotch 5.1.0 (the last version supporting sparse allocations)
and found its mappings "worse than DEF mappings for most of the cases"
while being among the fastest.

We reuse the dual recursion of :mod:`repro.mapping.topomap` with Scotch's
characteristics: the *architecture* side is split by graph bisection of
the induced machine subgraph (Scotch models the machine as a graph, not
geometry), the engine runs in its fast/weak configuration, and there is
no DEF fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.task_graph import TaskGraph
from repro.mapping.base import Mapping
from repro.mapping.topomap import dual_recursive_map
from repro.partition.driver import PartitionConfig
from repro.topology.machine import Machine

__all__ = ["ScotchMapper"]


@dataclass
class ScotchMapper:
    """Fast dual-recursive-bipartitioning mapping (no fallback)."""

    seed: int = 0
    engine: PartitionConfig = PartitionConfig(
        fm_passes=1, initial_attempts=1, coarse_target=96, strict_fm_limit=0
    )

    name: str = "SMAP"

    def map(self, task_graph: TaskGraph, machine: Machine) -> Mapping:
        """Map one task group per allocated node (Scotch-style)."""
        gamma = dual_recursive_map(
            task_graph,
            machine,
            seed=self.seed,
            engine=self.engine,
            split="graph",
        )
        return Mapping(gamma, machine)
