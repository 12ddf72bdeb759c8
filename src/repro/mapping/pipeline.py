"""Two-phase mapping pipeline — legacy facade over the mapper registry.

This is the UMPA driver of Sec. III: the fine MPI task graph (one vertex
per rank) is partitioned into ``|Va|`` groups whose target weights are the
per-node processor counts (METIS-like engine), the balance is fixed
exactly with an FM iteration, the coarse (node-level) graph is mapped by
the chosen algorithm, and the node assignment is expanded back to ranks.

Since the API redesign the algorithms themselves live in the
:mod:`repro.api` registry as declarative stage compositions
(``grouping → placement → refine*``); :class:`TwoPhaseMapper` and
:func:`get_mapper` remain as thin back-compat shims that build a
:class:`~repro.api.request.MapRequest` and run it through a
:class:`~repro.api.service.MappingService`.  Mappings are bit-identical
to the pre-registry pipeline (pinned by ``tests/test_kernels_golden.py``).

Timing follows Figure 3's accounting: ``prep_time`` covers the shared
partition/coarsen preprocessing, ``map_time`` the mapping algorithm
itself — with UWH/UMC/UMMC including UG's time, "as they run on top of
it".  TMAP and SMAP run their own dual recursive bipartitioning, which is
why TMAP lands as the slowest method in the reproduction too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.task_graph import TaskGraph, coarse_task_graph
from repro.partition.driver import PartitionConfig, partition_graph
from repro.partition.fm import balance_fixup
from repro.topology.machine import Machine

__all__ = [
    "TwoPhaseMapper",
    "MapperResult",
    "MAPPER_NAMES",
    "EXTENDED_MAPPER_NAMES",
    "FAMILY_MAPPER_NAMES",
    "get_mapper",
    "prepare_groups",
]

#: All mapping algorithms of the paper's figures, in figure order.
MAPPER_NAMES: Tuple[str, ...] = ("DEF", "TMAP", "SMAP", "UG", "UWH", "UMC", "UMMC")

#: Extensions the paper discusses but does not report: UTH (the trivial
#: unit-cost / TH adaptation of UG+UWH) and UWHF (UWH followed by the
#: fine-level rank-swap refinement of Sec. III-B's discussion).
EXTENDED_MAPPER_NAMES: Tuple[str, ...] = MAPPER_NAMES + ("UTH", "UWHF")

#: Algorithm families beyond the paper, registered as first-class specs:
#: hierarchical per-dimension partitioning (Schulz & Woydt) and geometric
#: space-filling-curve placement (Deveci et al.), each bare and with the
#: Algorithm 2 WH swap refinement on top.
FAMILY_MAPPER_NAMES: Tuple[str, ...] = ("HIER", "HIERWH", "SFC", "SFCWH")


@dataclass
class MapperResult:
    """Outcome of one two-phase mapping run."""

    name: str
    fine_gamma: np.ndarray  # rank -> node id
    group_of_task: np.ndarray  # rank -> group index
    coarse: TaskGraph  # node-level communication graph
    coarse_gamma: np.ndarray  # group -> node id
    map_time: float  # seconds spent in the mapping algorithm
    prep_time: float  # seconds spent partitioning/coarsening


def prepare_groups(
    task_graph: TaskGraph,
    machine: Machine,
    *,
    seed: int = 0,
    config: Optional[PartitionConfig] = None,
) -> Tuple[np.ndarray, TaskGraph]:
    """Partition ranks into node-sized groups; returns (group_of_task, coarse).

    Unit task weights (each rank occupies one processor), target part
    weights = per-node capacities, exact balance via
    :func:`balance_fixup` — the paper's METIS + single-FM-iteration step.
    The coarse graph's vertex weights are set to the groups' *processor*
    counts so capacity checks in the mapping algorithms line up.
    """
    if config is None:
        config = PartitionConfig(fm_passes=3, initial_attempts=4)
    n_nodes = machine.num_alloc_nodes
    if task_graph.num_tasks > machine.total_procs:
        raise ValueError(
            f"{task_graph.num_tasks} tasks exceed {machine.total_procs} processors"
        )
    sym = task_graph.symmetrized()
    work = CSRGraph(
        sym.indptr,
        sym.indices,
        sym.weights,
        np.ones(sym.num_vertices, dtype=np.float64),
        sorted_indices=True,
    )
    targets = machine.capacities.astype(np.float64)
    result = partition_graph(
        work, n_nodes, target_weights=targets, seed=seed, config=config, tool="grouping"
    )
    part = balance_fixup(work, result.part, n_nodes, targets)
    coarse = coarse_task_graph(task_graph, part, n_nodes)
    group_procs = np.bincount(part, minlength=n_nodes).astype(np.float64)
    coarse.graph.vertex_weights = group_procs
    return part, coarse


def _message_count_coarse(
    task_graph: TaskGraph, group_of_task: np.ndarray, machine: Machine
) -> TaskGraph:
    """Coarse graph whose edge weights count fine (rank-pair) messages."""
    unit = task_graph.unit_cost()
    coarse = coarse_task_graph(unit, group_of_task, machine.num_alloc_nodes)
    coarse.graph.vertex_weights = np.bincount(
        group_of_task, minlength=machine.num_alloc_nodes
    ).astype(np.float64)
    return coarse


@dataclass
class TwoPhaseMapper:
    """Facade running any registered mapping algorithm.

    Back-compat shim over :class:`~repro.api.service.MappingService`:
    each ``map()`` call builds a single-algorithm
    :class:`~repro.api.request.MapRequest` and executes it with a
    private artifact cache, reproducing the legacy pipeline's behaviour
    (and mappings) exactly.

    Parameters
    ----------
    algorithm:
        Any name in the mapper registry — the paper's seven
        (:data:`MAPPER_NAMES`), the UTH/UWHF extensions, or a custom
        mapper registered via
        :func:`repro.api.register_mapper`.
    seed:
        Seed for the grouping partitioner and baseline engines.
    delta:
        Early-exit budget Δ of the refinement algorithms.
    """

    algorithm: str = "UG"
    seed: int = 0
    delta: int = 8
    group_config: Optional[PartitionConfig] = None

    def __post_init__(self) -> None:
        from repro.api.registry import get_spec

        self.algorithm = get_spec(self.algorithm).name

    @property
    def name(self) -> str:
        return self.algorithm

    # ------------------------------------------------------------------
    def map(
        self,
        task_graph: TaskGraph,
        machine: Machine,
        *,
        groups: Optional[Tuple[np.ndarray, TaskGraph]] = None,
    ) -> MapperResult:
        """Run the two-phase pipeline.

        ``groups`` may carry a precomputed ``(group_of_task, coarse)`` pair
        so the expensive grouping step is shared across the seven
        algorithms when the harness compares them on one task graph.
        """
        from repro.api.request import MapRequest
        from repro.api.service import MappingService

        response = MappingService().map(
            MapRequest(
                task_graph=task_graph,
                machine=machine,
                algorithms=(self.algorithm,),
                seed=self.seed,
                delta=self.delta,
                group_config=self.group_config,
                groups=groups,
            )
        )
        return response.result


def get_mapper(name: str, *, seed: int = 0, delta: int = 8) -> TwoPhaseMapper:
    """Look up a mapper by its registry name (case-insensitive).

    Accepts the paper's seven algorithms, the UTH / UWHF extensions, and
    any custom mapper registered through
    :func:`repro.api.register_mapper`.
    """
    return TwoPhaseMapper(algorithm=name, seed=seed, delta=delta)
