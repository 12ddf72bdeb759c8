"""Vectorized hot-path kernels shared by the mapping algorithms.

The mappers' inner loops — weighted-hop sums, swap-gain evaluation,
congestion probes — live here as batched NumPy kernels so the
algorithm modules stay readable while the arithmetic stays in contiguous
arrays.  Everything in this package is *behaviour-preserving*: the
kernels reproduce the scalar reference paths bit for bit (see
``tests/test_kernels.py`` and ``tests/test_kernels_golden.py``).
"""

from repro.kernels.congestion import CongestionModel
from repro.kernels.swapgain import (
    SwapCostTable,
    all_task_whops,
    refresh_whops_around,
    total_weighted_hops,
)

__all__ = [
    "CongestionModel",
    "SwapCostTable",
    "all_task_whops",
    "refresh_whops_around",
    "total_weighted_hops",
]
