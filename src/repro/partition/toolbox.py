"""The seven partitioner personalities of the paper's evaluation.

One multilevel engine (:mod:`repro.partition.driver`) plus per-tool
objective refinement (:mod:`repro.partition.kway_refine`) reproduces the
behavioural differences Sec. IV-A reports:

* ``SCOTCH`` / ``KAFFPA`` — edge-cut minimizers (KaFFPa the stronger
  engine), slightly worse communication-volume quality;
* ``METIS`` / ``PATOH`` — total-volume (TV) minimizers, PaToH (a true
  hypergraph tool) the best on TV;
* ``UMPAMV`` — MSV primary, TV secondary;
* ``UMPAMM`` — MSM, TM, TV priorities;
* ``UMPATM`` — TM, TV priorities.

Every personality accepts a :class:`SparseMatrix`, partitions its rows
1-D into K parts, and returns a :class:`PartitionResult`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


from repro.graph.matrices import SparseMatrix
from repro.hypergraph.model import Hypergraph
from repro.partition.driver import PartitionConfig, PartitionResult, partition_graph
from repro.partition.kway_refine import refine_kway
from repro.util.rng import mix_seed

__all__ = ["Partitioner", "get_partitioner", "PARTITIONER_NAMES"]


@dataclass(frozen=True)
class Partitioner:
    """A named partitioning personality.

    Attributes
    ----------
    name:
        Tool name as used in the paper's figures.
    engine:
        Multilevel engine strength settings (the volume tools use the defaults).
    objective:
        ``None`` for pure edge-cut tools, otherwise a named priority list
        for the hypergraph k-way refinement.
    refine_passes, candidate_limit:
        Strength of the objective refinement stage.
    """

    name: str
    engine: PartitionConfig = PartitionConfig()
    objective: Optional[str] = None
    refine_passes: int = 2
    candidate_limit: int = 6
    balance_tolerance: float = 0.05

    def partition(
        self,
        matrix: SparseMatrix,
        num_parts: int,
        seed: int = 0,
        *,
        hypergraph: Optional[Hypergraph] = None,
    ) -> PartitionResult:
        """Partition the matrix rows into *num_parts* parts.

        ``hypergraph`` may be passed to avoid rebuilding the column-net
        model when several tools run on the same matrix.
        """
        graph = matrix.structure_graph()
        # zlib.crc32 is stable across processes (str.__hash__ is salted).
        result = partition_graph(
            graph,
            num_parts,
            seed=mix_seed(seed, zlib.crc32(self.name.encode()) & 0xFFFF),
            config=self.engine,
            tool=self.name,
        )
        part = result.part
        if self.objective is not None:
            h = hypergraph if hypergraph is not None else Hypergraph.from_matrix(matrix)
            part = refine_kway(
                h,
                part,
                num_parts,
                self.objective,
                passes=self.refine_passes,
                tolerance=self.balance_tolerance,
                candidate_limit=self.candidate_limit,
            )
        return PartitionResult(part=part, num_parts=num_parts, seed=seed, tool=self.name)


_REGISTRY: Dict[str, Partitioner] = {
    # Edge-cut graph partitioners.  SCOTCH: fast, fewer FM passes;
    # KaFFPa: the heavyweight evolutionary engine -> strongest edge-cut.
    "SCOTCH": Partitioner(
        name="SCOTCH",
        engine=PartitionConfig(fm_passes=2, initial_attempts=2),
    ),
    "KAFFPA": Partitioner(
        name="KAFFPA",
        engine=PartitionConfig(fm_passes=5, initial_attempts=6),
    ),
    # Volume minimizers.  METIS's volume objective works on the graph
    # model (one light TV pass); PaToH natively optimizes connectivity-1.
    "METIS": Partitioner(
        name="METIS",
        objective="tv",
        refine_passes=1,
        candidate_limit=4,
    ),
    "PATOH": Partitioner(
        name="PATOH",
        objective="tv",
        refine_passes=3,
        candidate_limit=8,
    ),
    # UMPA multi-objective variants (primary, secondary, tertiary).
    "UMPAMV": Partitioner(
        name="UMPAMV",
        objective="msv_tv",
        refine_passes=2,
        candidate_limit=8,
    ),
    "UMPAMM": Partitioner(
        name="UMPAMM",
        objective="msm_tm_tv",
        refine_passes=2,
        candidate_limit=8,
    ),
    "UMPATM": Partitioner(
        name="UMPATM",
        objective="tm_tv",
        refine_passes=2,
        candidate_limit=8,
    ),
}

PARTITIONER_NAMES: Tuple[str, ...] = tuple(sorted(_REGISTRY))


def get_partitioner(name: str) -> Partitioner:
    """Look up a personality by its paper name (case-insensitive)."""
    key = name.upper()
    if key not in _REGISTRY:
        raise ValueError(f"unknown partitioner {name!r}; available: {PARTITIONER_NAMES}")
    return _REGISTRY[key]
