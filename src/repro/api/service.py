"""MappingService — registry-driven execution of mapping requests.

The service replaces ``TwoPhaseMapper``'s if/elif ladder: it looks the
algorithm up in the :mod:`~repro.api.registry`, runs the declared stage
chain (grouping → placement → refine* → expand → fine-refine*) with
per-stage timing, and shares every reusable artifact — groupings, DEF
baselines, unit-cost and message-count coarse views — through an
:class:`~repro.api.cache.ArtifactCache` across algorithms *and*
requests.  ``map_batch`` is the high-throughput entry point: one
workload mapped by N algorithms computes its grouping exactly once.
Hops between allocated nodes are not an artifact: each
:class:`~repro.topology.machine.Machine` caches its own
(:meth:`~repro.topology.machine.Machine.ring_hops`).

Since the planner/executor split, ``map_batch`` is a **plan → execute →
collect engine**: :func:`repro.api.plan.build_plan` turns the batch into
an explicit artifact-dependency DAG (shared groupings and DEF baselines
deduped, congestion route-table consumers chained) and
:func:`repro.api.executor.execute_plan` runs it on one of two
backends — ``serial`` (the bit-identical reference ordering) or
``process`` (workers of an :class:`~repro.api.pool.ExecutorPool`
sharing artifacts through a cross-process
:class:`~repro.api.store.DiskArtifactStore`).

Timing follows Figure 3's accounting exactly as the legacy pipeline
did: ``prep_time`` covers the shared grouping (0 when it was injected
or cache-hit; billed to the first consuming algorithm on every
backend), ``map_time`` the algorithm itself — UWH/UMC/UMMC include
UG's time "as they run on top of it", TMAP/DEF charge their private
grouping to ``map_time``.

Within one ``map_batch``, algorithms of one request that run the same
placement stage on the same coarse view run it once (UG, UWH, UMC, UMMC
and UWHF share ``greedy``; HIER/HIERWH ``hier``; SFC/SFCWH ``sfc``).
The memo is a plain dict owned by the batch's in-process worker set
(:class:`~repro.api.executor._InProcess`) and handed to each node it
runs, so no placement outlives its batch and two concurrent batches
never share one; process-pool nodes get none and place for themselves.
Each consumer gets its own copy of Γ and bills the seconds the one run
measured, so UWH's ``map_time`` still covers UG's placement.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.api.cache import ArtifactCache, machine_key, task_graph_key
from repro.api.config import EngineConfig
from repro.api.plan import build_plan, grouping_artifact_key
from repro.api.registry import MapperSpec, get_spec
from repro.api.request import MapRequest, MapResponse
from repro.api.stages import (
    FINE_REFINE_STAGES,
    GROUPING_STAGES,
    PLACEMENT_STAGES,
    REFINE_STAGES,
    StageContext,
)
from repro.graph.task_graph import TaskGraph
from repro.mapping.base import Mapping, expand_mapping
from repro.mapping.pipeline import MapperResult
from repro.metrics.mapping import evaluate_mapping
from repro.partition.driver import PartitionConfig
from repro.topology.machine import Machine

__all__ = ["MappingService"]


class MappingService:
    """Executes :class:`MapRequest` objects against the mapper registry.

    Parameters
    ----------
    cache:
        Shared :class:`ArtifactCache`.  Pass one explicitly to share
        groupings/baselines across services (the experiment harness
        does); by default each service owns a private cache.  Attach a
        :class:`~repro.api.store.DiskArtifactStore`
        (``ArtifactCache(store=...)``) to persist artifacts across
        processes and batches.
    backend / workers:
        Shorthand for the same fields of *config*, which they override:
        the execution backend of :meth:`map_batch` (``"serial"``
        reference or ``"process"``) and the pool width (``None`` = CPU
        count).
    pool:
        Optional long-lived :class:`~repro.api.pool.ExecutorPool`.
        When attached, :meth:`map_batch` reuses the pool's workers and
        store for every process batch instead of spawning per call —
        the serving-layer configuration.  The pool's backend becomes
        the service default unless *backend* is given explicitly
        (``MappingService(backend="serial", pool=pool)`` keeps the
        serial reference path as the default while the pool stays
        available to per-batch configs).  The pool's width is fixed:
        a batch naming another one raises, and ``backend="serial"``
        bypasses the pool.  The pool is shared,
        not owned: shut it down where it was created.
    config:
        Optional :class:`~repro.api.config.EngineConfig`: the service's
        defaults for :meth:`map_batch`, kept (with the resolved
        backend) as :attr:`config`.  A config naming ``store_dir`` (and
        no explicit *cache*) builds the service cache over that store,
        with ``cache_entries``/``cache_bytes`` as its LRU bounds.
    """

    def __init__(
        self,
        cache: Optional[ArtifactCache] = None,
        *,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        pool=None,
        config: Optional[EngineConfig] = None,
    ) -> None:
        from repro.api.executor import BACKENDS

        config = config or EngineConfig()
        if workers is not None:
            config = replace(config, workers=workers)
        backend = backend or config.backend
        if backend is None:
            backend = pool.backend if pool is not None else "serial"
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from {BACKENDS}"
            )
        if cache is None:
            store = None
            if config.store_dir is not None:
                from repro.api.store import DiskArtifactStore

                store = DiskArtifactStore(config.store_dir)
            cache = ArtifactCache(
                max_entries=config.cache_entries,
                max_bytes=config.cache_bytes,
                store=store,
            )
        self.cache = cache
        self.pool = pool
        self.config = replace(config, backend=backend)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def map(self, request: MapRequest) -> MapResponse:
        """Run a single-algorithm request; returns one response."""
        if len(request.algorithms) != 1:
            raise ValueError(
                f"map() takes exactly one algorithm, got {request.algorithms}; "
                "use map_batch() for several"
            )
        return self._run_one(request, request.algorithms[0], None)

    def map_batch(
        self,
        requests: Union[MapRequest, Iterable[MapRequest]],
        *,
        config: Optional[EngineConfig] = None,
    ) -> List[MapResponse]:
        """Run one or many requests, all algorithms, sharing the cache.

        Accepts a single (possibly multi-algorithm) request or an
        iterable of requests; responses come back in request order,
        algorithms in each request's declared order.  The batch is
        planned into an artifact-dependency DAG
        (:func:`repro.api.plan.build_plan`) — each workload's grouping
        is computed exactly once across its algorithms and across
        requests hitting the same workload/machine/seed — and executed
        by :func:`repro.api.executor.execute_plan`: ``"serial"``
        preserves the legacy loop bit for bit, ``"process"`` fans ready
        nodes out over pool workers while producing byte-identical
        mappings.

        *config* (an :class:`~repro.api.config.EngineConfig`) shapes
        this one batch in place of :attr:`config`; derive it with
        ``dataclasses.replace(service.config, ...)`` to change a few
        fields.  Every field is taken from it except the execution
        shape: a ``None`` ``backend`` or ``workers`` means the service's.

        * With an attached pool, a process batch runs on the pool's
          long-lived workers; a batch naming a backend or width other
          than the pool's raises :class:`ValueError` before planning
          (the shape and ``store_dir`` are the pool's concern).  Without one,
          ``store_dir`` points the process backend at a persistent
          cross-process artifact directory (default: the cache's
          attached store, else a temporary one).
        * Fault tolerance: ``retry`` (a :class:`~repro.api.fault.
          RetryPolicy`) retries nodes that raise with exponential
          backoff, ``node_timeout`` bounds each node's wall time on the
          process backend, and ``on_error="partial"`` turns permanent
          failures into structured :attr:`MapResponse.error` outcomes
          instead of aborting the batch.  The defaults reproduce the
          pre-fault-tolerance behaviour (and byte-identical results).
        """
        from repro.api.executor import execute_plan

        cfg = config if config is not None else self.config
        cfg = replace(
            cfg,
            backend=cfg.backend or self.config.backend,
            workers=cfg.workers if cfg.workers is not None else self.config.workers,
        )
        pool = None
        if self.pool is not None and cfg.backend != "serial":
            pool = self.pool
            if cfg.backend != pool.backend or cfg.workers not in (None, pool.workers):
                raise ValueError(
                    f"batch asks for backend={cfg.backend!r} workers={cfg.workers}, "
                    f"but the attached pool is backend={pool.backend!r} "
                    f"workers={pool.workers}; a pool's shape is fixed when it is built"
                )
        return execute_plan(build_plan(requests), self, cfg, pool=pool)

    def grouping(
        self,
        task_graph: TaskGraph,
        machine: Machine,
        *,
        seed: int = 0,
        config: Optional[PartitionConfig] = None,
    ) -> Tuple[np.ndarray, TaskGraph]:
        """Shared grouping (phase-1 partition of ranks into nodes), cached.

        The same entry serves every subsequent request whose
        ``grouping_seed`` (and workload/machine content) matches, so the
        harness can pre-warm groupings and ``map_batch`` will reuse them.
        """
        key = grouping_artifact_key(
            task_graph_key(task_graph), machine_key(machine), seed, config
        )
        return self.cache.get_or_compute(
            "grouping",
            key,
            lambda: self._compute_grouping(task_graph, machine, seed, config),
        )

    def warm_grouping(self, request: MapRequest) -> Tuple[float, bool]:
        """Materialize *request*'s shared grouping; ``(elapsed, computed)``.

        The executors run this for the plan's grouping nodes.
        ``computed`` is True only when the artifact was actually built
        here — False on a memory or disk-store hit — which is what
        decides whether the first consumer gets billed ``prep_time``.
        """
        t0 = time.perf_counter()
        _, computed = self._request_grouping(request)
        return time.perf_counter() - t0, computed

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _compute_grouping(task_graph, machine, seed, config):
        from repro.mapping.pipeline import prepare_groups

        return prepare_groups(task_graph, machine, seed=seed, config=config)

    def _request_grouping(self, request: MapRequest):
        """*request*'s shared grouping from the cache: ``(grouping, computed)``.

        ``computed`` is True only when the grouping was built here, not
        read from memory or the disk store.  Plan grouping nodes
        (:meth:`warm_grouping`) and stage execution (:meth:`_execute`)
        both look groupings up here; every grouping key, pre-warmed
        entries (:meth:`grouping`) included, comes from
        :func:`repro.api.plan.grouping_artifact_key`.
        """
        tg_key, m_key = request.content_keys()
        key = grouping_artifact_key(
            tg_key, m_key, request.effective_grouping_seed, request.group_config
        )
        ran: List[bool] = []

        def compute():
            ran.append(True)
            return self._compute_grouping(
                request.task_graph,
                request.machine,
                request.effective_grouping_seed,
                request.group_config,
            )

        return self.cache.get_or_compute("grouping", key, compute), bool(ran)

    def _baseline_def(self, request: MapRequest, *, need_metrics: bool) -> dict:
        """DEF's cached baseline: ``{"result", "stage_times", "metrics"}``.

        DEF is deterministic in (task graph, machine) — it ignores seeds
        and Δ — so one entry serves both direct DEF requests and TMAP's
        fallback comparison.  The rank-level metrics cost O(edges) to
        evaluate and are filled in lazily, only when a caller
        (``evaluate=True`` or the fallback rule) actually needs them.
        """
        key = request.content_keys()

        def compute():
            stage_times: dict = {}
            result, _ = self._execute(request, get_spec("DEF"), stage_times, None)
            return {"result": result, "stage_times": stage_times, "metrics": None}

        entry = self.cache.get_or_compute("def_baseline", key, compute)
        if need_metrics and entry["metrics"] is None:
            entry["metrics"] = evaluate_mapping(
                request.task_graph,
                request.machine,
                entry["result"].fine_gamma,
                cache=self.cache,
            )
            # Re-put so a bounded cache re-estimates the entry's bytes
            # (the in-place mutation above is invisible to it).
            self.cache.put("def_baseline", key, entry)
        return entry

    def _run_one(
        self, request: MapRequest, algo: str, placements: Optional[dict]
    ) -> MapResponse:
        """Run one algorithm of *request*; *placements* is the batch's
        placement memo, or ``None`` (see :meth:`_place`)."""
        spec = get_spec(algo)
        if spec.name == "DEF":
            # Run (and time) DEF freshly on every request, like the
            # legacy pipeline — replaying a cached map_time would skew
            # DEF-normalized time ratios on a warm cache.  The run still
            # seeds the baseline entry so TMAP's fallback reuses it.
            stage_times: dict = {}
            result, _ = self._execute(request, spec, stage_times, None)
            metrics = None
            if request.evaluate:
                metrics = evaluate_mapping(
                    request.task_graph,
                    request.machine,
                    result.fine_gamma,
                    cache=self.cache,
                )
            self.cache.put(
                "def_baseline",
                request.content_keys(),
                {"result": result, "stage_times": stage_times, "metrics": metrics},
            )
            return MapResponse(
                algorithm=spec.name,
                result=result,
                stage_times=dict(stage_times),
                metrics=metrics,
                grouping_cached=False,
                tag=request.tag,
            )
        stage_times = {}
        result, grouping_cached = self._execute(request, spec, stage_times, placements)
        metrics = None
        if request.evaluate:
            metrics = evaluate_mapping(
                request.task_graph,
                request.machine,
                result.fine_gamma,
                cache=self.cache,
            )
        return MapResponse(
            algorithm=spec.name,
            result=result,
            stage_times=stage_times,
            metrics=metrics,
            grouping_cached=grouping_cached,
            tag=request.tag,
        )

    def _execute(
        self,
        request: MapRequest,
        spec: MapperSpec,
        stage_times: dict,
        placements: Optional[dict],
    ) -> Tuple[MapperResult, bool]:
        ctx = StageContext(
            task_graph=request.task_graph,
            machine=request.machine,
            seed=request.seed,
            delta=request.delta,
            cache=self.cache,
            group_config=request.group_config,
        )

        # -- shared grouping (prep-timed, cacheable) -------------------
        prep_time = 0.0
        grouping_cached = False
        if not spec.group_in_map_time:
            t0 = time.perf_counter()
            if request.groups is not None:
                ctx.group_of_task, ctx.coarse = request.groups
                grouping_cached = True
            else:
                (ctx.group_of_task, ctx.coarse), computed = self._request_grouping(
                    request
                )
                # A disk-store read counts as cached: nothing was
                # recomputed, so Figure 3's prep accounting bills 0.
                grouping_cached = not computed
                if computed:
                    prep_time = time.perf_counter() - t0
            stage_times["grouping"] = time.perf_counter() - t0

        # -- the algorithm itself (map-timed) --------------------------
        t_map = time.perf_counter()
        if spec.group_in_map_time:
            # TMAP re-partitions the task graph itself; DEF's blocking is
            # part of its (trivial) mapping cost.  Never shared or cached.
            t0 = time.perf_counter()
            GROUPING_STAGES[spec.grouping](ctx)
            stage_times[f"grouping:{spec.grouping}"] = time.perf_counter() - t0

        ctx.view = ctx.coarse if spec.coarse_view == "volume" else self._unit_view(ctx)

        t0 = time.perf_counter()
        gamma, placement_s = self._place(ctx, spec, request, placements)
        mapping = Mapping(gamma, ctx.machine)
        stage_times[f"placement:{spec.placement}"] = placement_s
        # A shared placement bills the seconds its one run measured, not
        # the lookup.
        borrowed = placement_s - (time.perf_counter() - t0)

        for name in spec.refine:
            t0 = time.perf_counter()
            mapping = REFINE_STAGES[name](ctx, mapping)
            stage_times[f"refine:{name}"] = time.perf_counter() - t0

        # TMAP's reported time covers its own partitioning + placement
        # but not the DEF comparison, matching the paper's accounting.
        map_time_pre_fallback = time.perf_counter() - t_map + borrowed

        fine = expand_mapping(ctx.group_of_task, mapping.gamma)
        for name in spec.fine_refine:
            t0 = time.perf_counter()
            fine = FINE_REFINE_STAGES[name](ctx, fine)
            stage_times[f"fine:{name}"] = time.perf_counter() - t0
        map_time = time.perf_counter() - t_map + borrowed

        if spec.fallback == "def_mc":
            entry = self._baseline_def(request, need_metrics=True)
            def_result, def_metrics = entry["result"], entry["metrics"]
            ours = evaluate_mapping(
                request.task_graph, request.machine, fine, cache=self.cache
            )
            if ours.mc >= def_metrics.mc:
                # "If TMAP's MC value is not smaller than the DEF mapping,
                # it returns the DEF mapping" — compared at rank level.
                return (
                    MapperResult(
                        name=spec.name,
                        fine_gamma=def_result.fine_gamma,
                        group_of_task=def_result.group_of_task,
                        coarse=def_result.coarse,
                        coarse_gamma=def_result.coarse_gamma,
                        map_time=map_time_pre_fallback,
                        prep_time=prep_time,
                    ),
                    grouping_cached,
                )
            map_time = map_time_pre_fallback

        return (
            MapperResult(
                name=spec.name,
                fine_gamma=fine,
                group_of_task=ctx.group_of_task,
                coarse=ctx.coarse,
                coarse_gamma=mapping.gamma,
                map_time=map_time,
                prep_time=prep_time,
            ),
            grouping_cached,
        )

    @staticmethod
    def _place(
        ctx: StageContext,
        spec: MapperSpec,
        request: MapRequest,
        placements: Optional[dict],
    ) -> Tuple[np.ndarray, float]:
        """Run *spec*'s placement stage: ``(coarse Γ, seconds it took)``.

        With a memo (*placements*, one per batch's in-process worker
        set), the first algorithm of *request* to need this (grouping,
        placement, coarse view) computes it and later ones reuse it;
        each gets a private copy of Γ, never the read-only original.
        Algorithms that group inside their own map time (TMAP, DEF) never
        share.
        """

        def run() -> Tuple[np.ndarray, float]:
            t0 = time.perf_counter()
            placed = PLACEMENT_STAGES[spec.placement](ctx)
            if isinstance(placed, Mapping):
                placed = placed.gamma
            return np.asarray(placed, dtype=np.int64), time.perf_counter() - t0

        if placements is None or spec.group_in_map_time:
            return run()
        key = (id(request), spec.grouping, spec.placement, spec.coarse_view)
        shared = placements.get(key)
        if shared is None:
            gamma, seconds = run()
            gamma = gamma.copy()
            gamma.flags.writeable = False
            shared = placements[key] = (gamma, seconds)
        return shared[0].copy(), shared[1]

    def _unit_view(self, ctx: StageContext) -> TaskGraph:
        """Unit-cost view of the coarse graph (UTH), cached per coarse."""
        key = task_graph_key(ctx.coarse)
        return self.cache.get_or_compute(
            "unit_coarse", key, lambda: ctx.coarse.unit_cost()
        )
