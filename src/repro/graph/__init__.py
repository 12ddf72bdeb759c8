"""Graph substrate: CSR kernel, task graphs, matrices and generators.

The paper models two kinds of graphs (Sec. II):

* the **task graph** ``Gt = (Vt, Et)`` -- a directed MPI communication
  graph whose edges carry communication volumes ``c(e)``;
* the **topology graph** ``Gm = (Vm, Em)`` -- the machine network (built in
  :mod:`repro.topology`).

This subpackage provides the shared CSR graph kernel
(:class:`repro.graph.csr.CSRGraph`), the task-graph abstraction
(:class:`repro.graph.task_graph.TaskGraph`), a sparse-matrix container and
the synthetic matrix generators standing in for the University of Florida
collection used in the paper's evaluation.
"""

from repro.graph.csr import CSRGraph
from repro.graph.matrices import SparseMatrix
from repro.graph.task_graph import TaskGraph, coarse_task_graph
from repro.graph.generators import (
    generate_matrix,
    cage_like,
    rgg_like,
    stencil2d,
    stencil3d,
    powerlaw_like,
    fem_like,
    circuit_like,
    road_like,
    econ_like,
)

__all__ = [
    "CSRGraph",
    "SparseMatrix",
    "TaskGraph",
    "coarse_task_graph",
    "generate_matrix",
    "cage_like",
    "rgg_like",
    "stencil2d",
    "stencil3d",
    "powerlaw_like",
    "fem_like",
    "circuit_like",
    "road_like",
    "econ_like",
]
