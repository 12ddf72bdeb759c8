"""In-memory spans around calls into the program's layers.

:class:`Tracer` keeps spans (name, start, end, parent, request id,
thread) and counters in memory; :func:`instrument` wraps the public
entry points of each layer so that every call opens a span and bumps a
counter, and restores the originals on exit.  Nothing here edits the
program: the wrappers replace module attributes, registry entries and
class attributes of the running process only.

A layer's self time is its spans' time minus the time of their direct
children.  :meth:`Tracer.write_chrome` exports the spans as Chrome
trace-event JSON (open it in Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import count
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]
    thread: int


#: Span ids are unique across tracers, so their spans can be merged.
_SPAN_IDS = count(1)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.origin = time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[int] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent[1]
        sid = next(_SPAN_IDS)
        stack.append((sid, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(
                sid, name, start, end,
                parent[0] if parent else None, request, threading.get_ident(),
            )
            with self._lock:
                self.spans.append(span)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, name: str, fn: Callable, *, calls: Optional[str] = None) -> Callable:
        """*fn* inside a span *name*; counts calls under *calls* if given."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if calls:
                self.count(calls)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def counting(self, name: str, fn: Callable) -> Callable:
        """*fn* with a call counter and no span (for very hot calls)."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return counted

    # -- views -----------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus time covered by direct children."""
        child_time: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += (s.end - s.start) - child_time[s.id]
        return dict(out)

    def total_time(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def write_chrome(self, path: str) -> None:
        threads: Dict[int, int] = {}
        events = []
        for s in sorted(self.spans, key=lambda s: s.start):
            tid = threads.setdefault(s.thread, len(threads) + 1)
            events.append(
                {
                    "name": s.name,
                    "cat": s.name.split(".")[0],
                    "ph": "X",
                    "ts": (s.start - self.origin) * 1e6,
                    "dur": (s.end - s.start) * 1e6,
                    "pid": os.getpid(),
                    "tid": tid,
                    "args": {"id": s.id, "parent": s.parent, "request": s.request},
                }
            )
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class _Patches:
    """Attribute and mapping replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def attr(self, owner, name: str, value) -> None:
        old = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, value)
        self._undo.append(lambda: setattr(owner, name, old))

    def item(self, mapping: dict, key: str, value) -> None:
        old = mapping[key]
        mapping[key] = value
        self._undo.append(lambda: mapping.__setitem__(key, old))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


@contextmanager
def instrument(tracer: Tracer):
    """Wrap each layer's public entry points with spans and counters."""
    import repro.api.service as service
    import repro.api.stages as stages
    import repro.experiments.harness as harness
    import repro.kernels.congestion as congestion
    import repro.mapping.pipeline as pipeline
    import repro.mapping.topomap as topomap
    import repro.partition.driver as driver
    import repro.topology.routing as routing

    p = _Patches()
    try:
        for kind, registry in (
            ("grouping", stages.GROUPING_STAGES),
            ("placement", stages.PLACEMENT_STAGES),
            ("refine", stages.REFINE_STAGES),
            ("fine", stages.FINE_REFINE_STAGES),
        ):
            for name, fn in list(registry.items()):
                p.item(registry, name, tracer.wrap(f"{kind}.{name}", fn))

        p.attr(harness, "build_workload", tracer.wrap(
            "build.workload", harness.build_workload, calls="build.workloads"))
        p.attr(pipeline, "prepare_groups", tracer.wrap(
            "grouping.compute", pipeline.prepare_groups, calls="grouping.computed"))
        bisect = tracer.wrap(
            "partition.bisect", driver.multilevel_bisect, calls="partition.bisect_calls")
        p.attr(driver, "multilevel_bisect", bisect)
        p.attr(topomap, "multilevel_bisect", bisect)
        p.attr(driver, "fm_bisection_refine", tracer.wrap(
            "partition.fm", driver.fm_bisection_refine))

        model = congestion.CongestionModel
        p.attr(model, "evaluate_swaps", tracer.wrap(
            "congestion.evaluate_swaps", model.evaluate_swaps,
            calls="congestion.evaluate_swaps_calls"))
        p.attr(model, "commit_swap", tracer.wrap(
            "congestion.commit_swap", model.commit_swap,
            calls="congestion.commit_swap_calls"))
        build = routing.RouteTable.__dict__["build"].__func__
        p.attr(routing.RouteTable, "build", classmethod(
            tracer.wrap("routing.route_table_build", build)))
        for module in (routing, congestion):
            p.attr(module, "routes_bulk", tracer.counting(
                "routing.routes_bulk_calls", module.routes_bulk))

        evaluate = tracer.wrap(
            "evaluate", service.evaluate_mapping, calls="evaluate.calls")
        p.attr(service, "evaluate_mapping", evaluate)
        p.attr(topomap, "evaluate_mapping", evaluate)

        build_plan = service.build_plan

        @functools.wraps(build_plan)
        def traced_build_plan(*args, **kwargs):
            with tracer.span("plan.build"):
                plan = build_plan(*args, **kwargs)
            tracer.count("plan.nodes", len(plan.nodes))
            return plan

        p.attr(service, "build_plan", traced_build_plan)
        yield tracer
    finally:
        p.undo()


#: Span name -> per-layer metric reporting its self time.
SELF_TIME_METRICS = {
    "build.workload": "build.workload_s",
    "partition.bisect": "partition.bisect_s",
    "partition.fm": "partition.fm_s",
    "grouping.compute": "grouping.compute_s",
    "placement.greedy": "placement.greedy_s",
    "placement.scotch": "placement.scotch_s",
    "placement.topomap": "placement.topomap_s",
    "placement.hier": "placement.hier_s",
    "placement.sfc": "placement.sfc_s",
    "refine.wh": "refine.wh_s",
    "refine.mc": "refine.mc_s",
    "refine.mmc": "refine.mmc_s",
    "congestion.evaluate_swaps": "congestion.evaluate_swaps_s",
    "routing.route_table_build": "routing.route_table_build_s",
    "evaluate": "evaluate_s",
    "plan.build": "plan.build_s",
}

#: Counters reported as per-layer metrics under the same name.
COUNT_METRICS = (
    "build.workloads",
    "partition.bisect_calls",
    "grouping.computed",
    "congestion.evaluate_swaps_calls",
    "congestion.commit_swap_calls",
    "routing.routes_bulk_calls",
    "evaluate.calls",
    "plan.nodes",
)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Self times and counts of the instrumented layers."""
    self_times = tracer.self_times()
    out = {metric: self_times.get(span, 0.0) for span, metric in SELF_TIME_METRICS.items()}
    out.update({name: float(tracer.counts.get(name, 0)) for name in COUNT_METRICS})
    return out
