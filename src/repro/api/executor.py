"""Plan execution — one scheduler over pluggable worker sets.

:func:`execute_plan` runs a :class:`~repro.api.plan.Plan` against a
:class:`~repro.api.service.MappingService` and collects responses in
request order.  Every mode runs the same scheduler, :func:`drive_plan`,
which owns node outcomes, dependency release, retries with backoff,
per-node deadlines, raise-vs-partial and the ``upstream`` cascade.  A
mode only supplies a :class:`WorkerSet`, which decides where a ready
node goes, when it is handed off, and what a lost worker means:

``serial``
    The in-process worker set: one node at a time in the calling
    thread, always the lowest-index ready node.  The planner emits a
    topological order, so on a healthy batch this is plan order — the
    legacy sequential loop's order — and this backend is the
    bit-identical reference: same mappings, same cache interaction
    sequence, same Figure-3 time accounting.  The set owns the batch's
    placement memo, so algorithms of one request share one placement
    run.
``process``
    An :class:`~repro.api.pool.ExecutorPool` of processes, fed every
    ready node at once, each node shipped with its request.  Each
    worker owns a private ``MappingService`` whose read path is memory
    LRU → disk over a shared artifact store, so a grouping
    computed by one worker is *read* (not recomputed) by the workers
    mapping the dependent algorithms.

Without ``pool=`` the pool lives for one batch: it uses the service
cache's store root when one is attached (else a temporary directory)
and is shut down when the batch ends.  Passing ``pool=`` runs the batch
on a long-lived pool instead.  Either way a pool respawns its executor
when a worker dies (see :mod:`repro.api.pool`).  When a mode runs out
of workers — an executor that cannot be respawned — the scheduler
finishes the batch on the in-process worker set.

Determinism does not rest on scheduling: each node's output is a pure
function of its request + the declared artifacts, which is why every
mode's responses are byte-identical to serial (pinned by
``tests/test_engine.py``).
"""

from __future__ import annotations

import heapq
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    wait,
)
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.api.config import EngineConfig
from repro.api.fault import NO_RETRY, PlanError, RetryPolicy, maybe_inject
from repro.api.plan import Plan, PlanNode
from repro.api.request import MapRequest, MapResponse

__all__ = ["BACKENDS", "WorkerSet", "drive_plan", "execute_plan", "default_workers"]

BACKENDS: Tuple[str, ...] = ("serial", "process")


def default_workers() -> int:
    """Default pool width: the container's *usable* CPU count.

    ``sched_getaffinity`` respects cgroup/affinity restrictions (a
    4-CPU-quota container on a 64-core host gets 4, not 64);
    ``os.cpu_count`` is the fallback on platforms without it.
    """
    try:
        usable = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        usable = os.cpu_count() or 1
    return max(1, usable)


def execute_plan(
    plan: Plan, service, config: EngineConfig, *, pool=None
) -> List[MapResponse]:
    """Run *plan* as *config* says; responses return in request order.

    *service* is the :class:`~repro.api.service.MappingService` owning
    the cache: the serial backend runs nodes directly against it, the
    process backend only reads its store configuration.  *config*
    supplies every execution knob (see
    :class:`~repro.api.config.EngineConfig`; a ``None`` backend means
    ``serial``).  With *pool* (an :class:`~repro.api.pool.ExecutorPool`)
    the plan runs on the pool's long-lived workers, whose width is the
    pool's concern; without one, the process backend gets a pool that
    lives for this batch.
    """
    fault_kw = {
        "retry": config.retry,
        "node_timeout": config.node_timeout,
        "partial": config.on_error == "partial",
    }
    backend = config.backend or "serial"
    if pool is None and backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    if pool is not None:
        return _collect(plan, _run_pooled(plan, service, pool, fault_kw))
    if backend == "serial":
        return _collect(plan, drive_plan(plan, service, **fault_kw))
    pool = _batch_pool(service, config)
    try:
        return _collect(plan, _run_pooled(plan, service, pool, fault_kw))
    finally:
        # The batch owns these workers alone, and any still running a
        # node runs one it abandoned: terminate them rather than join.
        pool._close(terminate=True)


def run_plan_node(
    service,
    request: MapRequest,
    kind: str,
    algorithm: Optional[str],
    placements: Optional[dict],
):
    """Execute one node against *service* (shared by every backend).

    *placements* is the batch's placement memo (see
    :meth:`~repro.api.service.MappingService._place`), or ``None`` where
    the node runs its own placement.
    """
    maybe_inject(request, kind)
    if kind == "grouping":
        return service.warm_grouping(request)
    return service._run_one(request, algorithm, placements)


class _NodeFailure:
    """Failure outcome slot — carries the structured error (and, in
    ``on_error="raise"`` mode, the original exception to re-raise)."""

    __slots__ = ("error", "exception")

    def __init__(self, error: PlanError, exception: Optional[BaseException] = None):
        self.error = error
        self.exception = exception


def _node_label(plan: Plan, index: int) -> str:
    node = plan.nodes[index]
    return f"algo:{node.algorithm}" if node.kind == "algo" else node.kind


# ---------------------------------------------------------------------------
# Worker sets.
# ---------------------------------------------------------------------------


#: ``(node index, future, worker)`` — one hand-off from :meth:`WorkerSet.take`.
HandOff = Tuple[int, Future, object]


class WorkerSet:
    """Where ready plan nodes run — the seam between a mode and the scheduler.

    :func:`drive_plan` calls :meth:`put` with every node whose
    dependencies are met (or whose retry backoff has elapsed), then
    :meth:`take` once per tick to collect hand-offs.  Each hand-off names
    the *worker* it went to — any hashable key other than ``None``, which
    marks in-process futures — so that when :meth:`lost` reports a
    worker dead, the scheduler can settle every future that worker held.
    """

    #: False once no worker is left; the scheduler then moves whatever
    #: :meth:`drain` returns onto the in-process worker set.
    alive = True

    def put(self, index: int) -> None:
        raise NotImplementedError

    def take(self, inflight: Dict[Future, Tuple[int, object]]) -> List[HandOff]:
        """Hand off what may start now; *inflight* maps each unsettled
        future to its ``(index, worker)``."""
        raise NotImplementedError

    def lost(self, exc: BaseException, worker) -> bool:
        """Whether *exc*, raised by a future of *worker*, means the worker
        died.  On ``True`` the set has already retired or replaced it."""
        return False

    def isolate(self, index: int) -> None:
        """Re-run crash suspect *index* alone (sets whose workers can die)."""
        raise NotImplementedError

    def drain(self) -> List[int]:
        """Give up the nodes still queued here once ``alive`` is False."""
        return []


class _InProcess(WorkerSet):
    """The calling thread: one node per tick, the lowest-index ready one.

    Its futures are resolved before they are handed off, so a deadline
    never fires on them — the calling thread cannot preempt itself.
    Every node it runs shares :attr:`placements`, the batch's placement
    memo, which dies with the set.
    """

    def __init__(self, plan: Plan, service) -> None:
        self.plan = plan
        self.service = service
        self.ready: List[int] = []
        self.placements: dict = {}

    def put(self, index: int) -> None:
        heapq.heappush(self.ready, index)

    def take(self, inflight) -> List[HandOff]:
        if not self.ready:
            return []
        node = self.plan.nodes[heapq.heappop(self.ready)]
        future: Future = Future()
        try:
            future.set_result(
                run_plan_node(
                    self.service,
                    self.plan.requests[node.request_index],
                    node.kind,
                    node.algorithm,
                    self.placements,
                )
            )
        except Exception as exc:
            future.set_exception(exc)
        return [(node.index, future, None)]


class _ExecutorWorkers(WorkerSet):
    """A local process executor, handed every ready node at once.

    A ``BrokenExecutor`` means the executor died.  It is replaced via
    *respawn* when one is given (a persistent pool), and every node it
    held becomes a crash suspect: suspects re-run **one at a time with
    nothing else in flight**, so a repeat kill is attributable to exactly
    one node and an innocent that merely shared the pool with a poison
    request never reaches the quarantine threshold.  The worker key is
    the executor's generation, so stragglers of a replaced executor are
    never mistaken for a fresh break.
    """

    def __init__(
        self,
        plan: Plan,
        submit: Callable[[PlanNode], Future],
        respawn: Optional[Callable[[], None]] = None,
    ) -> None:
        self.plan = plan
        self.submit = submit
        self.respawn = respawn
        self.ready: List[int] = []
        self.suspects: Deque[int] = deque()
        self.generation = 0

    def put(self, index: int) -> None:
        self.ready.append(index)

    def isolate(self, index: int) -> None:
        self.suspects.append(index)

    def take(self, inflight) -> List[HandOff]:
        if not self.alive:
            return []
        if self.suspects:
            if inflight:
                return []
            batch = [self.suspects.popleft()]
        else:
            batch, self.ready = self.ready, []
        handed: List[HandOff] = []
        for n, index in enumerate(batch):
            future = self._submit(index)
            if future is None:
                self.ready.extend(batch[n:])  # drained in-process
                break
            handed.append((index, future, self.generation))
        return handed

    def _submit(self, index: int) -> Optional[Future]:
        """Submit *index*, replacing a broken executor once; None once dead."""
        node = self.plan.nodes[index]
        try:
            return self.submit(node)
        except BrokenExecutor:
            if not self._renew():
                return None
        try:
            return self.submit(node)
        except BrokenExecutor:
            self.alive = False
            return None

    def _renew(self) -> bool:
        """Replace the broken executor; False (and dead) when impossible."""
        if self.respawn is not None:
            try:
                self.respawn()
                self.generation += 1
                return True
            except Exception:
                pass
        self.alive = False
        return False

    def lost(self, exc: BaseException, worker) -> bool:
        if not isinstance(exc, BrokenExecutor):
            return False
        if worker == self.generation and self.alive:
            self._renew()
        return True

    def drain(self) -> List[int]:
        nodes = list(self.suspects) + self.ready
        self.suspects.clear()
        self.ready = []
        return nodes


# ---------------------------------------------------------------------------
# The scheduler.
# ---------------------------------------------------------------------------


def drive_plan(
    plan: Plan,
    service,
    workers: Optional[WorkerSet] = None,
    *,
    retry: Optional[RetryPolicy] = None,
    node_timeout: Optional[float] = None,
    partial: bool = False,
) -> List:
    """Run *plan* on *workers*; returns the outcome list per node.

    *workers* defaults to the in-process worker set over *service* (the
    serial backend); any other set falls back to it for nodes it cannot
    run.  On top of dependency release the scheduler owns fault
    handling for every mode:

    - A node that raises is retried per *retry*, after an exponential
      backoff that waits in a ready-time heap while other nodes keep
      running.  A node out of attempts fails permanently with an
      ``error`` outcome.
    - A node past *node_timeout* is cancelled (abandoned when already
      running) and fails permanently with a ``timeout`` outcome.
    - A lost worker settles every future it held: finished results are
      salvaged, the rest are crash suspects, each re-run in isolation
      until ``retry.max_crashes`` crashes quarantine it —
      re-run in-process when ``retry.poison == "serial"``, failed with
      a ``crash`` outcome otherwise.
    - With ``partial=False`` a permanent failure cancels everything in
      flight and re-raises; with ``partial=True`` it becomes a
      :class:`_NodeFailure` outcome and cascades ``upstream`` failures
      to its dependents while every unrelated node keeps running.

    The healthy path runs no retries and arms no deadline unless asked,
    so results stay byte-identical to the serial reference.
    """
    policy = retry or NO_RETRY
    local = _InProcess(plan, service)
    if workers is None:
        workers = local
    outcomes: List = [None] * len(plan.nodes)
    indegree = [len(node.deps) for node in plan.nodes]
    dependents = plan.dependents()
    inflight: Dict[Future, Tuple[int, object]] = {}
    deadlines: Dict[Future, float] = {}
    retry_heap: List[Tuple[float, int]] = []  # (monotonic ready time, node)
    failures = [0] * len(plan.nodes)
    crashes = [0] * len(plan.nodes)

    def _error(index: int, kind: str, message: str, **fields) -> PlanError:
        return PlanError(
            kind=kind,
            message=message,
            node=_node_label(plan, index),
            tag=plan.requests[plan.nodes[index].request_index].tag,
            **fields,
        )

    def _final(index: int, error: PlanError, exc: Optional[BaseException] = None):
        if not partial:
            raise exc if exc is not None else RuntimeError(str(error))
        outcomes[index] = _NodeFailure(error, exc)
        message = f"dependency {_node_label(plan, index)} failed: {error.message}"
        stack = [index]
        while stack:
            for dep in dependents[stack.pop()]:
                if outcomes[dep] is None:
                    outcomes[dep] = _NodeFailure(_error(dep, "upstream", message))
                    stack.append(dep)

    def _failed(index: int, exc: BaseException) -> None:
        failures[index] += 1
        if failures[index] < policy.max_attempts:
            ready_at = time.monotonic() + policy.delay(failures[index])
            heapq.heappush(retry_heap, (ready_at, index))
            return
        error = _error(
            index,
            "error",
            str(exc) or type(exc).__name__,
            exception=type(exc).__name__,
            attempts=failures[index],
        )
        _final(index, error, exc)

    def _ready(index: int) -> None:
        (workers if workers.alive else local).put(index)

    def _complete(index: int, result) -> None:
        outcomes[index] = result
        for dep in dependents[index]:
            indegree[dep] -= 1
            if indegree[dep] == 0 and outcomes[dep] is None:
                _ready(dep)

    def _lose(index: int, exc: BaseException, worker) -> None:
        """*worker* died running *index*: settle everything it held."""
        lost, salvaged = [index], []
        for future in [f for f, (_, w) in inflight.items() if w == worker]:
            held, _ = inflight.pop(future)
            deadlines.pop(future, None)
            # A future that finished before the loss holds a real result.
            if future.done() and not future.cancelled() and future.exception() is None:
                salvaged.append((held, future.result()))
            else:
                future.cancel()
                lost.append(held)
        # The dead worker cannot say which node killed it.
        for held in lost:
            crashes[held] += 1
            if crashes[held] < policy.max_crashes:
                (workers.isolate if workers.alive else local.put)(held)
            elif policy.poison == "serial":
                local.put(held)
            else:
                error = _error(
                    held,
                    "crash",
                    f"worker pool broke {crashes[held]} times with this node "
                    "in flight; quarantined",
                    exception=type(exc).__name__,
                    attempts=crashes[held],
                )
                _final(held, error, exc)
        for held, result in salvaged:
            _complete(held, result)

    def _hand_off(source: WorkerSet) -> None:
        for index, future, worker in source.take(inflight):
            inflight[future] = (index, worker)
            if node_timeout is not None:
                deadlines[future] = time.monotonic() + node_timeout

    for node in plan.nodes:
        if not node.deps:
            _ready(node.index)
    try:
        while True:
            now = time.monotonic()
            while retry_heap and retry_heap[0][0] <= now:
                _ready(heapq.heappop(retry_heap)[1])
            _hand_off(workers)
            if not workers.alive:
                for index in workers.drain():
                    local.put(index)
            if workers is not local:
                _hand_off(local)
            if not inflight:
                if not retry_heap:
                    break
                time.sleep(max(0.0, retry_heap[0][0] - time.monotonic()))
                continue
            wake = [retry_heap[0][0]] if retry_heap else []
            if deadlines:
                wake.append(min(deadlines.values()))
            timeout = max(min(wake) - now, 0.0) if wake else None
            done, _ = wait(list(inflight), timeout=timeout, return_when=FIRST_COMPLETED)
            for future in done:
                if future not in inflight:
                    continue  # settled by a worker loss earlier in this tick
                index, worker = inflight.pop(future)
                deadlines.pop(future, None)
                try:
                    result = future.result()
                except CancelledError:
                    message = "node was cancelled before it ran"
                    _final(index, _error(index, "cancelled", message))
                except Exception as exc:
                    if worker is not None and workers.lost(exc, worker):
                        _lose(index, exc, worker)
                    else:
                        _failed(index, exc)
                else:
                    _complete(index, result)
            now = time.monotonic()
            for future in [f for f, d in deadlines.items() if d <= now]:
                index, _ = inflight.pop(future)
                del deadlines[future]
                future.cancel()
                expired = f"exceeded its {node_timeout:g}s deadline"
                _final(
                    index,
                    _error(
                        index, "timeout", f"node {expired}", attempts=failures[index] + 1
                    ),
                    TimeoutError(f"{_node_label(plan, index)} {expired}"),
                )
    except BaseException:
        for future in inflight:
            future.cancel()
        raise
    for index, outcome in enumerate(outcomes):
        if outcome is None:  # defensive: a scheduler hole, not a node fault
            _final(index, _error(index, "cancelled", "node was never scheduled"))
    return outcomes


# ---------------------------------------------------------------------------
# Local executors.
# ---------------------------------------------------------------------------


def _batch_pool(service, config: EngineConfig):
    """An :class:`~repro.api.pool.ExecutorPool` that lives for one batch.

    Process workers share the service cache's attached store unless
    ``config.store_dir`` names another root; with neither the pool's own
    temporary root lives for the batch.  Worker caches are unbounded, as
    nothing outlives the batch.
    """
    from repro.api.pool import ExecutorPool

    store_dir = config.store_dir
    attached = getattr(service.cache, "store", None) if store_dir is None else None
    if attached is not None:
        store_dir = attached.root
    return ExecutorPool(
        "process",
        workers=config.workers,
        store_dir=store_dir,
        worker_cache_bytes=None,
    )


def _run_pooled(plan: Plan, service, pool, fault_kw: dict) -> List:
    """Run the DAG on an :class:`~repro.api.pool.ExecutorPool`'s workers.

    Each worker receives the node's request with the node.  Submission
    always goes through :meth:`ExecutorPool.submit` with
    ``respawn=pool.respawn``, so a pool replaced after a worker crash is
    picked up mid-batch.
    """
    from repro.api.pool import _worker_run_node

    def submit(node: PlanNode):
        request = plan.requests[node.request_index]
        return pool.submit(_worker_run_node, request, node.kind, node.algorithm)

    with pool.session():
        workers = _ExecutorWorkers(plan, submit, pool.respawn)
        return drive_plan(plan, service, workers, **fault_kw)


# ---------------------------------------------------------------------------
# Collection.
# ---------------------------------------------------------------------------


def _collect(plan: Plan, outcomes: List) -> List[MapResponse]:
    """Order responses by slot and apply the prep-time charge-back.

    Figure 3's accounting bills a freshly computed shared grouping to
    the first algorithm that consumes it (``prep_time``), exactly like
    the sequential loop did; grouping nodes that were cache/store hits
    charge nothing and their consumers keep ``grouping_cached=True``.
    """
    responses: List[Optional[MapResponse]] = [None] * plan.num_slots
    for node in plan.nodes:
        if node.kind != "algo":
            continue
        outcome = outcomes[node.index]
        if isinstance(outcome, _NodeFailure):
            responses[node.slot] = MapResponse(
                algorithm=node.algorithm or "",
                result=None,
                tag=plan.requests[node.request_index].tag,
                error=outcome.error,
            )
        else:
            responses[node.slot] = outcome
    for node in plan.nodes:
        if node.kind != "grouping" or node.charges is None:
            continue
        outcome = outcomes[node.index]
        if isinstance(outcome, _NodeFailure):
            continue  # failed groupings have no elapsed time to bill
        elapsed, computed = outcome
        if not computed:
            continue
        charged = outcomes[node.charges]
        if isinstance(charged, _NodeFailure):
            continue  # the consumer failed; nothing to charge the prep to
        if not charged.grouping_cached:
            # The consumer did not ride the node's artifact after all —
            # e.g. a bounded cache evicted it in between and the
            # consumer recomputed, billing itself.  Its own accounting
            # is already correct; adding the node's elapsed on top
            # would double-count the grouping.
            continue
        charged.result.prep_time = elapsed
        charged.grouping_cached = False
        charged.stage_times["grouping"] = elapsed + charged.stage_times.get(
            "grouping", 0.0
        )
    return responses
