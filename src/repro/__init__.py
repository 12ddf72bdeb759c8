"""repro — reproduction of "Fast and High Quality Topology-Aware Task Mapping".

Deveci, Kaya, Uçar, Çatalyürek — IPDPS 2015 (hal-01159677).

The package rebuilds, in pure NumPy-backed Python, the paper's three
mapping algorithms (greedy WH mapping, WH swap refinement, MC congestion
refinement), the baselines they are compared against (DEF, LibTopoMap- and
Scotch-like mappers), and every substrate the evaluation needs: a CSR
graph kernel, a column-net hypergraph model, a multilevel partitioner with
seven tool personalities, a Gemini-like 3-D torus with static routing and
ALPS-like sparse allocations, mapping/partition/node metrics, a flow-level
network simulator with two applications (communication-only, SpMV), and
an NNLS regression analysis — plus an experiment harness regenerating all
five figures and Table I.

Quickstart
----------
>>> from repro import quick_map
>>> report = quick_map(rows=2000, procs=64)     # doctest: +SKIP
>>> report["UG"].wh < report["DEF"].wh          # doctest: +SKIP
True
"""

from repro.graph import CSRGraph, SparseMatrix, TaskGraph, generate_matrix
from repro.hypergraph import Hypergraph
from repro.partition import get_partitioner, PARTITIONER_NAMES, partition_graph
from repro.topology import (
    AllocationSpec,
    Machine,
    SparseAllocator,
    Torus3D,
    torus_for_job,
)
from repro.metrics import (
    MappingMetrics,
    NodeMetrics,
    PartitionMetrics,
    evaluate_mapping,
    evaluate_node_metrics,
    evaluate_partition,
)
from repro.mapping import (
    DefaultMapper,
    GreedyMapper,
    MCRefiner,
    MAPPER_NAMES,
    ScotchMapper,
    TopoMapper,
    TwoPhaseMapper,
    WHRefiner,
    get_mapper,
)
from repro.sim import CommOnlyApp, FlowSimulator, SpMVSimulator
from repro.analysis import nnls_regression, geometric_mean
from repro.api import (
    ArtifactCache,
    ExecutorPool,
    MapRequest,
    MapResponse,
    MapperSpec,
    MappingService,
    register_mapper,
    registered_mappers,
)

__version__ = "1.1.0"

__all__ = [
    "CSRGraph",
    "SparseMatrix",
    "TaskGraph",
    "generate_matrix",
    "Hypergraph",
    "get_partitioner",
    "PARTITIONER_NAMES",
    "partition_graph",
    "Torus3D",
    "Machine",
    "SparseAllocator",
    "AllocationSpec",
    "torus_for_job",
    "MappingMetrics",
    "PartitionMetrics",
    "NodeMetrics",
    "evaluate_mapping",
    "evaluate_partition",
    "evaluate_node_metrics",
    "GreedyMapper",
    "WHRefiner",
    "MCRefiner",
    "DefaultMapper",
    "TopoMapper",
    "ScotchMapper",
    "TwoPhaseMapper",
    "MAPPER_NAMES",
    "get_mapper",
    "CommOnlyApp",
    "FlowSimulator",
    "SpMVSimulator",
    "nnls_regression",
    "geometric_mean",
    "quick_map",
    "ArtifactCache",
    "ExecutorPool",
    "MapRequest",
    "MapResponse",
    "MapperSpec",
    "MappingService",
    "register_mapper",
    "registered_mappers",
]


def quick_map(rows: int = 2000, procs: int = 64, *, group: str = "cage", seed: int = 0):
    """One-call demo: generate, partition, map with every algorithm.

    Returns ``{mapper_name: MappingMetrics}`` at rank granularity — the
    fastest way to see the paper's headline effect (UG/UWH beating DEF on
    WH, UMC on MC).
    """
    import numpy as np

    matrix = generate_matrix(group, rows, seed=seed)
    h = Hypergraph.from_matrix(matrix)
    tool = get_partitioner("PATOH")
    part = tool.partition(matrix, procs, seed=seed, hypergraph=h).part
    loads = np.bincount(part, weights=h.loads, minlength=procs)
    tg = TaskGraph.from_comm_triplets(procs, h.comm_triplets(part, procs), loads=loads)

    ppn = 4
    nodes = procs // ppn
    torus = torus_for_job(nodes)
    machine = SparseAllocator(torus).allocate(
        AllocationSpec(num_nodes=nodes, procs_per_node=ppn, seed=seed)
    )
    responses = MappingService().map_batch(
        MapRequest(
            task_graph=tg,
            machine=machine,
            algorithms=MAPPER_NAMES,
            seed=seed,
            evaluate=True,
        )
    )
    return {r.algorithm: r.metrics for r in responses}
