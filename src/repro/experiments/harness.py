"""Shared plumbing for the experiment runners.

Workload construction (matrix → partition → MPI task graph), machine
construction (torus sizing + sparse allocation), and a per-process memo
layer so figure runners sharing inputs (e.g. Fig. 2 and Fig. 3) don't
repeat partitioning work.

Since the API redesign all memoization lives in one
:class:`~repro.api.cache.ArtifactCache` shared with a
:class:`~repro.api.service.MappingService`: matrices, hypergraphs,
workloads, machines *and* groupings are namespaces in the same store the
service uses for its own artifacts (DEF baselines, message-count coarse
graphs), so a figure runner batching seven algorithms over one workload
computes the grouping exactly once.

Every figure runner calls ``cache.service.map_batch(...)``, which since
the planner/executor split routes through the parallel execution engine
(:mod:`repro.api.plan` / :mod:`repro.api.executor`).  The backend is
``serial`` by default — bit-identical to the legacy sequential sweeps —
and selectable per :class:`WorkloadCache` (or via the ``REPRO_BACKEND``
/ ``REPRO_WORKERS`` environment variables), so the fig1–5/table1 sweeps
can fan requests out over a process pool without touching the runners;
any backend but ``serial`` or ``process`` raises :class:`ValueError`.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.api.cache import ArtifactCache
from repro.api.request import MapRequest
from repro.api.service import MappingService
from repro.data.corpus import CORPUS, load_matrix
from repro.graph.matrices import SparseMatrix
from repro.graph.task_graph import TaskGraph
from repro.hypergraph.model import Hypergraph
from repro.mapping.pipeline import MapperResult
from repro.metrics.mapping import MappingMetrics
from repro.metrics.nodes import NodeMetrics, evaluate_node_metrics
from repro.metrics.partition import PartitionMetrics, evaluate_partition
from repro.partition.toolbox import get_partitioner
from repro.experiments.profiles import ExperimentProfile
from repro.topology.allocation import AllocationSpec, SparseAllocator, torus_for_job
from repro.topology.machine import Machine
from repro.util.rng import mix_seed

__all__ = [
    "Workload",
    "build_workload",
    "build_machine",
    "run_mapper",
    "WorkloadCache",
    "hash_key",
]


@dataclass
class Workload:
    """A partitioned matrix ready for mapping experiments."""

    matrix: SparseMatrix
    hypergraph: Hypergraph
    partitioner: str
    num_procs: int
    part: np.ndarray
    task_graph: TaskGraph
    partition_metrics: PartitionMetrics


def build_workload(
    matrix: SparseMatrix,
    hypergraph: Hypergraph,
    partitioner: str,
    num_procs: int,
    seed: int,
) -> Workload:
    """Partition *matrix* into ranks with one tool; derive the task graph."""
    tool = get_partitioner(partitioner)
    result = tool.partition(matrix, num_procs, seed=seed, hypergraph=hypergraph)
    pm = evaluate_partition(hypergraph, result.part, num_procs)
    loads = np.bincount(result.part, weights=hypergraph.loads, minlength=num_procs)
    tg = TaskGraph.from_comm_triplets(
        num_procs, hypergraph.comm_triplets(result.part, num_procs), loads=loads
    )
    return Workload(
        matrix=matrix,
        hypergraph=hypergraph,
        partitioner=partitioner,
        num_procs=num_procs,
        part=result.part,
        task_graph=tg,
        partition_metrics=pm,
    )


def build_machine(
    profile: ExperimentProfile, num_procs: int, alloc_seed: int
) -> Machine:
    """Torus + sparse allocation for *num_procs* under *profile*."""
    nodes = profile.nodes_for(num_procs)
    torus = torus_for_job(nodes, headroom=profile.torus_headroom)
    allocator = SparseAllocator(torus)
    return allocator.allocate(
        AllocationSpec(
            num_nodes=nodes,
            procs_per_node=profile.procs_per_node,
            fragmentation=profile.fragmentation,
            seed=mix_seed(profile.seed, 7_700_000 + alloc_seed),
        )
    )


def run_mapper(
    name: str,
    workload: Workload,
    machine: Machine,
    *,
    seed: int,
    groups: Optional[Tuple[np.ndarray, TaskGraph]] = None,
    service: Optional[MappingService] = None,
) -> Tuple[MapperResult, MappingMetrics, NodeMetrics]:
    """Run one mapping algorithm; return result + fine-level metrics.

    Routed through the :class:`MappingService`; pass *service* (e.g.
    ``cache.service``) to share its artifact cache across calls.
    """
    service = service or MappingService()
    response = service.map(
        MapRequest(
            task_graph=workload.task_graph,
            machine=machine,
            algorithms=(name,),
            seed=seed,
            groups=groups,
            evaluate=True,
        )
    )
    result = response.result
    node_metrics = evaluate_node_metrics(result.coarse)
    return result, response.metrics, node_metrics


class WorkloadCache:
    """Per-process memoization of matrices, hypergraphs and workloads.

    A façade over one shared :class:`ArtifactCache` plus the
    :class:`MappingService` bound to it (``self.service``); figure
    runners hand ``service`` their batched requests so groupings, DEF
    baselines and derived coarse graphs are shared across algorithms,
    allocations and runners.
    """

    def __init__(
        self,
        profile: ExperimentProfile,
        artifacts: Optional[ArtifactCache] = None,
        *,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> None:
        self.profile = profile
        self.artifacts = artifacts if artifacts is not None else ArtifactCache()
        if backend is None:
            backend = os.environ.get("REPRO_BACKEND", "serial")
        if workers is None:
            env_workers = os.environ.get("REPRO_WORKERS")
            if env_workers:
                try:
                    workers = int(env_workers)
                except ValueError:
                    raise ValueError(
                        f"REPRO_WORKERS must be an integer, got {env_workers!r}"
                    ) from None
        self.service = MappingService(
            cache=self.artifacts, backend=backend, workers=workers
        )
        # Key harness artifacts by the profile's *content*, not just its
        # display name — two same-named profiles with different
        # parameters sharing one ArtifactCache must not collide.
        self._pkey = hash_key(repr(profile))

    # ------------------------------------------------------------------
    def corpus_entries(self):
        names = self.profile.corpus_names
        return [e for e in CORPUS if not names or e.name in names]

    def matrix(self, name: str) -> SparseMatrix:
        return self.artifacts.get_or_compute(
            "matrix",
            (self._pkey, name),
            lambda: load_matrix(
                next(e for e in CORPUS if e.name == name),
                self.profile.rows_per_unit,
                self.profile.seed,
            ),
        )

    def hypergraph(self, name: str) -> Hypergraph:
        return self.artifacts.get_or_compute(
            "hypergraph",
            (self._pkey, name),
            lambda: Hypergraph.from_matrix(self.matrix(name)),
        )

    def workload(self, matrix_name: str, partitioner: str, num_procs: int) -> Workload:
        key = (matrix_name, partitioner, num_procs)
        return self.artifacts.get_or_compute(
            "workload",
            (self._pkey,) + key,
            lambda: build_workload(
                self.matrix(matrix_name),
                self.hypergraph(matrix_name),
                partitioner,
                num_procs,
                seed=mix_seed(self.profile.seed, hash_key(key)),
            ),
        )

    def machine(self, num_procs: int, alloc_seed: int) -> Machine:
        return self.artifacts.get_or_compute(
            "machine",
            (self._pkey, num_procs, alloc_seed),
            lambda: build_machine(self.profile, num_procs, alloc_seed),
        )

    # ------------------------------------------------------------------
    def grouping_seed(
        self, matrix_name: str, partitioner: str, num_procs: int, alloc_seed: int
    ) -> int:
        """Deterministic seed of the shared grouping for one workload.

        Figure runners pass this as ``MapRequest.grouping_seed`` so the
        service's content-keyed grouping cache is shared across
        algorithms, allocations sweeps and runners.
        """
        key = (matrix_name, partitioner, num_procs, alloc_seed, 0)
        return mix_seed(self.profile.seed, hash_key(key))

    def groups(
        self, matrix_name: str, partitioner: str, num_procs: int, alloc_seed: int
    ) -> Tuple[np.ndarray, TaskGraph]:
        """Shared grouping (phase-1 partition of ranks into nodes)."""
        wl = self.workload(matrix_name, partitioner, num_procs)
        mach = self.machine(num_procs, alloc_seed)
        return self.service.grouping(
            wl.task_graph,
            mach,
            seed=self.grouping_seed(matrix_name, partitioner, num_procs, alloc_seed),
        )


def hash_key(key) -> int:
    """Stable hash of a tuple of strs/ints (process-independent).

    The full 32-bit CRC digest of the key's repr (an earlier version
    truncated to ``crc32 & 0xFFFF``, colliding distinct workload keys
    onto the same 16-bit seed), avalanched through
    :func:`repro.util.rng.mix_seed` so that keys with near-identical
    reprs land far apart across the 64-bit seed space.
    """
    return mix_seed(zlib.crc32(repr(key).encode()) & 0xFFFFFFFF, 0)
