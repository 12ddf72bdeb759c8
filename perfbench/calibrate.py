"""Host-speed calibration of the timed metrics.

The reference host is a shared 2-vCPU VM whose speed drifts by a third
over minutes: the identical, deterministic sweep set-up took 8.4 s in
one run and 13.7 s in another, and ten consecutive sweep runs spread
27-34% in raw throughput.  Every workload therefore times
:func:`kernel` — benchmark code only, which no change to the program
can touch — between the units of its timed region, outside their
clocks: after every sweep request, after every pool batch, and between
the segments of the serve load.  It reports ``mappings_per_s`` and
``latency_p50_ms`` scaled to a host whose kernel median is
:data:`NOMINAL_S`; the raw values go to standard error.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

#: Median kernel seconds on the reference host in a calm period.
NOMINAL_S = 0.055


def kernel() -> int:
    """Python loops over dicts and lists plus NumPy sorts and bincounts.

    The program's hot paths mix the same two kinds of work: interpreted
    loops (the partitioner's FM passes) and array kernels on thousands
    of elements (swap gains, congestion).
    """
    rng = np.random.default_rng(2015)
    values = rng.integers(0, 4096, size=150_000)
    order = np.argsort(values, kind="stable")
    counts = np.bincount(values[order] % 977, minlength=977)
    total = int(counts.max())
    table: dict = {}
    heap: List[int] = []
    for i in range(100_000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
        if i % 3 == 0:
            heap.append(key)
    heap.sort()
    return total + len(table) + heap[len(heap) // 2]


class Calibration:
    """Kernel timings taken between the units of one timed region."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def measure(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)

    @property
    def speed(self) -> float:
        """How much faster than nominal the host ran (>1 is faster)."""
        xs = sorted(self.samples)
        mid = len(xs) // 2
        seconds = xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2
        return NOMINAL_S / seconds


def scaled_timings(rate: float, latency_ms: float,
                   calibration: Calibration) -> Tuple[Dict[str, float], str]:
    """The timed metrics at nominal host speed, and a note with the raw ones."""
    speed = calibration.speed
    note = (f"host speed {speed:.3f} x nominal; raw mappings_per_s {rate:.4f}, "
            f"raw latency_p50_ms {latency_ms:.4f}")
    return {"mappings_per_s": rate / speed, "latency_p50_ms": latency_ms * speed}, note
