"""Latency histograms and rolling windows for the serving layer.

A mapping *service* is judged by its tail: the ROADMAP's
network-latency references (and the serving literature generally) show
that geo-mean throughput hides exactly the behaviour users feel, so the
server and its ``stats`` op need a cheap latency summary.
Two primitives live here:

:class:`LatencyHistogram`
    Log-bucketed counts over a fixed range.  ``observe`` is O(1)
    (a ``bisect`` into precomputed bounds), percentiles are estimated
    by linear interpolation inside the covering bucket.

:class:`RollingWindow`
    Timestamped event deque bounded by age, for "recent rate" gauges
    (requests/sec over the last N seconds) where a lifetime counter
    would flatten bursts.

Both are thread-safe: the server observes from the event loop while
``GET stats`` snapshots from driver threads.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_right
from typing import Callable, Dict, List, Optional

__all__ = ["LatencyHistogram", "RollingWindow"]


class LatencyHistogram:
    """Log-bucketed latency histogram with percentile estimates.

    Parameters
    ----------
    min_s / max_s:
        Range covered by the log-spaced buckets.  Observations below
        ``min_s`` land in the first bucket, observations above
        ``max_s`` in the overflow bucket (whose upper edge is clamped
        to the true observed maximum for interpolation).
    buckets_per_decade:
        Resolution: 20 gives ~12% relative bucket width, ample for
        p50/p95/p99 reporting.
    """

    def __init__(
        self,
        min_s: float = 1e-4,
        max_s: float = 600.0,
        buckets_per_decade: int = 20,
    ) -> None:
        if not (0 < min_s < max_s):
            raise ValueError("need 0 < min_s < max_s")
        if buckets_per_decade < 1:
            raise ValueError("buckets_per_decade must be >= 1")
        decades = math.log10(max_s / min_s)
        n = max(1, math.ceil(decades * buckets_per_decade))
        ratio = (max_s / min_s) ** (1.0 / n)
        #: Upper bounds of the finite buckets; one overflow bucket past.
        self.bounds: List[float] = [min_s * ratio ** (i + 1) for i in range(n)]
        self.bounds[-1] = max_s  # kill float drift on the last edge
        self.counts: List[int] = [0] * (n + 1)
        self.count = 0
        self.total_s = 0.0
        self.min_seen: Optional[float] = None
        self.max_seen: Optional[float] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def observe(self, seconds: float) -> None:
        """Record one latency sample (negative values clamp to 0)."""
        s = max(0.0, float(seconds))
        with self._lock:
            index = bisect_right(self.bounds, s)
            self.counts[index] += 1
            self.count += 1
            self.total_s += s
            self.min_seen = s if self.min_seen is None else min(self.min_seen, s)
            self.max_seen = s if self.max_seen is None else max(self.max_seen, s)

    # ------------------------------------------------------------------
    def percentile(self, q: float) -> float:
        """Estimated latency (seconds) at quantile ``q`` in (0, 1]."""
        if not (0.0 < q <= 1.0):
            raise ValueError("q must be in (0, 1]")
        with self._lock:
            if self.count == 0:
                return 0.0
            target = q * self.count
            cumulative = 0
            for i, c in enumerate(self.counts):
                if c == 0:
                    continue
                lo = 0.0 if i == 0 else self.bounds[i - 1]
                hi = (
                    self.bounds[i]
                    if i < len(self.bounds)
                    else max(self.max_seen or lo, lo)
                )
                if cumulative + c >= target:
                    frac = (target - cumulative) / c
                    est = lo + (hi - lo) * frac
                    # Never report past the true extremes.
                    if self.max_seen is not None:
                        est = min(est, self.max_seen)
                    if self.min_seen is not None:
                        est = max(est, self.min_seen)
                    return est
                cumulative += c
            return self.max_seen or 0.0

    def summary(self) -> Dict[str, float]:
        """JSON-ready ``{count, mean_ms, p50_ms, p95_ms, p99_ms, max_ms}``."""
        with self._lock:
            count, total = self.count, self.total_s
            max_seen = self.max_seen
        if count == 0:
            return {"count": 0}
        return {
            "count": count,
            "mean_ms": 1e3 * total / count,
            "p50_ms": 1e3 * self.percentile(0.50),
            "p95_ms": 1e3 * self.percentile(0.95),
            "p99_ms": 1e3 * self.percentile(0.99),
            "max_ms": 1e3 * (max_seen or 0.0),
        }


class RollingWindow:
    """Event timestamps bounded by age; reports recent rates.

    ``observe()`` appends now (or an explicit value), ``rate()``
    returns events/sec over the window.  The deque is pruned on every
    call, so an idle server's "recent requests/sec" decays to zero
    instead of reporting the last burst forever.
    """

    def __init__(
        self,
        window_s: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = window_s
        self._clock = clock
        self._events: List[float] = []
        self._lock = threading.Lock()

    def observe(self) -> None:
        now = self._clock()
        with self._lock:
            self._events.append(now)
            self._prune(now)

    def count(self) -> int:
        now = self._clock()
        with self._lock:
            self._prune(now)
            return len(self._events)

    def rate(self) -> float:
        """Events per second over the trailing window."""
        return self.count() / self.window_s

    def _prune(self, now: float) -> None:
        cutoff = now - self.window_s
        # Events arrive in time order; find the first survivor.
        keep = bisect_right(self._events, cutoff)
        if keep:
            del self._events[:keep]
