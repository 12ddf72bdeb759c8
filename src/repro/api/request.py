"""MapRequest / MapResponse — the service's wire-level dataclasses.

A :class:`MapRequest` bundles everything one mapping run needs: the task
graph, the machine, one or more algorithm names, the seeds/Δ-budget, and
optional precomputed artifacts.  A :class:`MapResponse` carries the
legacy :class:`~repro.mapping.pipeline.MapperResult` (so every existing
consumer keeps working) plus per-stage timings and, when requested, the
fine-level quality metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graph.task_graph import TaskGraph
from repro.mapping.pipeline import MapperResult
from repro.metrics.mapping import MappingMetrics
from repro.partition.driver import PartitionConfig
from repro.topology.machine import Machine

__all__ = ["MapRequest", "MapResponse"]


@dataclass
class MapRequest:
    """One mapping job: a workload, a machine, and the algorithm(s) to run.

    Parameters
    ----------
    task_graph:
        Fine (rank-level) communication graph.
    machine:
        Allocated torus nodes + per-node processor capacities.
    algorithms:
        Registered mapper name(s).  A plain string is accepted and
        normalized to a one-element tuple; :meth:`MappingService.map`
        requires exactly one name, :meth:`~MappingService.map_batch`
        runs them all against the shared artifact cache.
    seed:
        Seed for the mapping algorithms (grouping partitioner, baseline
        engines).
    delta:
        Early-exit budget Δ of the refinement algorithms.
    group_config:
        Optional partitioner configuration for the grouping stage.
    groups:
        Optional precomputed ``(group_of_task, coarse)`` pair, injected
        verbatim (the legacy ``TwoPhaseMapper.map(groups=...)`` path).
    grouping_seed:
        Seed for the shared grouping stage when the service computes it;
        defaults to ``seed``.  The experiment harness uses a distinct,
        workload-derived seed here so all algorithms (and all figure
        runners) share one cached grouping per workload.
    evaluate:
        Attach fine-level :class:`MappingMetrics` to each response.
    tag:
        Opaque caller label, echoed on the response (useful when batching
        requests for many workloads).
    """

    task_graph: TaskGraph
    machine: Machine
    algorithms: Union[str, Sequence[str]] = ("UG",)
    seed: int = 0
    delta: int = 8
    group_config: Optional[PartitionConfig] = None
    groups: Optional[Tuple[np.ndarray, TaskGraph]] = None
    grouping_seed: Optional[int] = None
    evaluate: bool = False
    tag: Optional[Hashable] = None

    def __post_init__(self) -> None:
        if isinstance(self.algorithms, str):
            self.algorithms = (self.algorithms,)
        else:
            self.algorithms = tuple(self.algorithms)
        if not self.algorithms:
            raise ValueError("MapRequest needs at least one algorithm name")
        if self.delta < 1:
            raise ValueError(f"refinement budget delta must be >= 1, got {self.delta}")
        _check_task_graph(self.task_graph)
        self._content_keys: Optional[Tuple[int, int]] = None

    @property
    def effective_grouping_seed(self) -> int:
        return self.seed if self.grouping_seed is None else self.grouping_seed

    def content_keys(self) -> Tuple[int, int]:
        """(task-graph, machine) content fingerprints, computed once.

        A batched request fingerprints its (possibly MB-sized) arrays a
        single time, however many algorithms it fans out to.  The
        request's task graph and machine must not be mutated after the
        first service call — the service does not, and callers share the
        same contract.
        """
        if self._content_keys is None:
            from repro.api.cache import machine_key, task_graph_key

            self._content_keys = (
                task_graph_key(self.task_graph),
                machine_key(self.machine),
            )
        return self._content_keys


def _check_task_graph(task_graph: TaskGraph) -> None:
    """Reject volumes or loads that are NaN, infinite or negative.

    Such a graph has no meaningful mapping: an infinite volume turns WH
    into NaN, a NaN stops the partitioner, a negative one maps silently.
    """
    for name, values in (("volumes", task_graph.graph.weights), ("loads", task_graph.loads)):
        bad = np.flatnonzero(~(np.isfinite(values) & (values >= 0)))
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"task_graph {name} must be finite and non-negative; {bad.size} "
                f"are not, the first at index {i} is {float(values[i])!r}"
            )


@dataclass
class MapResponse:
    """Outcome of one (request, algorithm) run.

    ``result`` is the legacy :class:`MapperResult` — fine/coarse Γ,
    grouping vector, coarse graph, ``map_time``/``prep_time`` with the
    paper's Figure-3 accounting.  ``stage_times`` breaks ``map_time``
    down per declared stage (``"placement:greedy"``, ``"refine:wh"``,
    …), which the monolithic pipeline could never report.

    In a batch run with ``EngineConfig(on_error="partial")`` a failed
    run comes back with ``result=None`` and a structured
    :class:`~repro.api.fault.PlanError` on ``error`` instead of
    aborting the batch; check :attr:`ok` before touching the mapping
    accessors.
    """

    algorithm: str
    result: Optional[MapperResult]
    stage_times: Dict[str, float] = field(default_factory=dict)
    metrics: Optional[MappingMetrics] = None
    grouping_cached: bool = False
    tag: Optional[Hashable] = None
    error: Optional["PlanError"] = None

    @property
    def ok(self) -> bool:
        """True when the run produced a mapping (no structured error)."""
        return self.error is None

    def _result(self) -> MapperResult:
        if self.result is None:
            raise RuntimeError(
                f"response for {self.algorithm!r} carries no mapping: {self.error}"
            )
        return self.result

    @property
    def fine_gamma(self) -> np.ndarray:
        return self._result().fine_gamma

    @property
    def coarse_gamma(self) -> np.ndarray:
        return self._result().coarse_gamma

    @property
    def map_time(self) -> float:
        return self._result().map_time

    @property
    def prep_time(self) -> float:
        return self._result().prep_time

    def fingerprint(self) -> Optional[int]:
        """Content fingerprint of the produced mapping (None on error).

        Two responses carry the same fingerprint iff their fine and
        coarse mappings are byte-identical — the serving layer ships
        this over the wire instead of the gamma arrays, so clients
        (and the integration tests) can assert response identity
        without a side channel.
        """
        if self.result is None:
            return None
        from repro.util.fingerprint import fingerprint_arrays

        return int(
            fingerprint_arrays(
                np.ascontiguousarray(self.result.fine_gamma),
                np.ascontiguousarray(self.result.coarse_gamma),
            )
        )
