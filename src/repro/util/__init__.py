"""Shared low-level utilities.

This subpackage hosts the small helpers every other layer builds on (the
paper's priority queues need no module here: each is a :mod:`heapq` of
``(-priority, seq, id)`` with lazy deletion, kept by its algorithm):

* :mod:`repro.util.rng` -- deterministic seeding helpers so that every
  experiment in the harness is reproducible bit-for-bit.
* :mod:`repro.util.sfc` -- space-filling-curve orderings used by the
  Cray-like allocator and the DEF mapping baseline.
* :mod:`repro.util.validation` -- argument checking helpers shared by the
  public API surface.
* :mod:`repro.util.timing` -- tiny wall-clock timer used by the Figure 3
  experiment (mapping times).
"""

from repro.util.rng import seeded_rng, spawn_seeds
from repro.util.sfc import hilbert2d_order, snake3d_order, sfc_node_order
from repro.util.timing import Timer
from repro.util.validation import (
    check_array_1d,
    check_in_range,
    check_nonnegative,
    check_positive,
    check_probability,
)

__all__ = [
    "seeded_rng",
    "spawn_seeds",
    "hilbert2d_order",
    "snake3d_order",
    "sfc_node_order",
    "Timer",
    "check_array_1d",
    "check_in_range",
    "check_nonnegative",
    "check_positive",
    "check_probability",
]
