"""Public mapping API: registry-driven service, batch execution, caching.

This package is the composition seam over the paper's algorithms
(:mod:`repro.mapping`): every algorithm is a declarative
:class:`~repro.api.registry.MapperSpec` naming its stages (grouping →
placement → refine*), the :class:`~repro.api.service.MappingService`
executes :class:`~repro.api.request.MapRequest` objects against that
registry, and an :class:`~repro.api.cache.ArtifactCache` shares
groupings, DEF baselines and derived coarse graphs across algorithms
and requests (hops between allocated nodes are cached on each
``Machine``, see ``Machine.ring_hops``).

Quickstart::

    from repro.api import MapRequest, MappingService

    service = MappingService()
    responses = service.map_batch(
        MapRequest(task_graph=tg, machine=machine,
                   algorithms=("UG", "UWH", "UMC"), seed=0, evaluate=True)
    )
    for r in responses:
        print(r.algorithm, r.metrics.wh, r.map_time)

Third-party algorithms register through the public decorator::

    from repro.api import register_mapper

    @register_mapper("SNAKE", refine=("wh",))
    def snake_placement(ctx):
        ...
        return gamma

Batches run on one of two backends, ``serial`` (the reference) or
``process``.  For many process batches, keep the worker processes and
artifact store alive across calls (a pool's width is fixed when it is
built)::

    from repro.api import ExecutorPool

    with ExecutorPool("process", workers=4, idle_timeout=30) as pool:
        service = MappingService(pool=pool)
        for batch in batches:
            service.map_batch(batch)            # one spawn, many batches

The network server of :mod:`repro.serve` (``repro-map serve``) is the
long-running front end: it drives one such service from an event loop.

Serving is fault tolerant: a batch config
``EngineConfig(retry=RetryPolicy(...), node_timeout=...,
on_error="partial")``, passed as ``map_batch(requests, config=...)``,
retries transient node failures with backoff, bounds per-node wall
time, and returns partial batch results (failed requests carry a structured
:class:`~repro.api.fault.PlanError` on ``response.error``); a crashed
process pool self-heals (:meth:`ExecutorPool.respawn`), re-running
only the lost nodes and quarantining poison requests.  Degraded
machines (dead links/nodes) are first-class via
``Machine.degrade(...)`` with fault-avoiding rerouting in the
topology layer.

Also runnable as a CLI: ``python -m repro.api map --matrix cage15_like
--algos UWH,UMC --json`` (installed as the ``repro-map`` console
script); ``map-batch`` runs a JSON manifest of requests as one batch.
"""

from repro.api.config import EngineConfig
from repro.api.cache import (
    ArtifactCache,
    CacheStats,
    fingerprint_arrays,
    machine_key,
    task_graph_key,
)
from repro.api.executor import BACKENDS, execute_plan
from repro.api.fault import FaultInjector, InjectedFault, PlanError, RetryPolicy
from repro.api.plan import Plan, PlanNode, build_plan
from repro.api.pool import ExecutorPool
from repro.api.store import DiskArtifactStore
from repro.api.registry import (
    MapperRegistrationError,
    MapperSpec,
    UnknownMapperError,
    get_spec,
    register_mapper,
    registered_mappers,
    unregister_mapper,
)
from repro.api.request import MapRequest, MapResponse
from repro.api.service import MappingService
from repro.api.stages import (
    FINE_REFINE_STAGES,
    GROUPING_STAGES,
    PLACEMENT_STAGES,
    REFINE_STAGES,
    StageContext,
    register_fine_refine_stage,
    register_grouping_stage,
    register_placement_stage,
    register_refine_stage,
)

__all__ = [
    "ArtifactCache",
    "BACKENDS",
    "CacheStats",
    "DiskArtifactStore",
    "EngineConfig",
    "ExecutorPool",
    "FaultInjector",
    "InjectedFault",
    "PlanError",
    "RetryPolicy",
    "Plan",
    "PlanNode",
    "build_plan",
    "execute_plan",
    "fingerprint_arrays",
    "machine_key",
    "task_graph_key",
    "MapperSpec",
    "MapperRegistrationError",
    "UnknownMapperError",
    "register_mapper",
    "unregister_mapper",
    "get_spec",
    "registered_mappers",
    "MapRequest",
    "MapResponse",
    "MappingService",
    "StageContext",
    "GROUPING_STAGES",
    "PLACEMENT_STAGES",
    "REFINE_STAGES",
    "FINE_REFINE_STAGES",
    "register_grouping_stage",
    "register_placement_stage",
    "register_refine_stage",
    "register_fine_refine_stage",
]
