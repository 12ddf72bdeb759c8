"""Batch planner — the explicit artifact-dependency DAG behind ``map_batch``.

``MappingService.map_batch`` used to be a sequential loop whose sharing
was implicit: the first algorithm to ask for a grouping computed it, the
others hit the cache, and UMC/UMMC happened to route one placement once
because they ran back to back.  :func:`build_plan` makes that data-flow
explicit: it walks the batch once and emits a DAG of :class:`PlanNode`\\ s

* one **grouping node** per distinct grouping artifact key (workload ×
  machine × grouping seed × partitioner config) — every algorithm that
  declares ``"grouping"`` in its :attr:`~repro.api.registry.MapperSpec.
  consumes` depends on it, so the phase-1 partition is computed exactly
  once per batch on every backend;
* one **algo node** per (request, algorithm) pair, holding the response
  slot so results collect back in request order;
* **producer edges** for the remaining declared artifacts:
  ``def_baseline`` consumers (TMAP) depend on the batch's first
  producer (a DEF run, or the first TMAP for that workload), and
  ``route_table`` consumers (the congestion refiners) are *chained* per
  placement identity, generalizing the old "route one placement once"
  adjacency into an ordering guarantee that holds even when the batch
  executes in parallel.

Dependencies always point to earlier nodes, so node-index order is a
valid topological order — and it reproduces the legacy loop's execution
order exactly, which is what keeps ``backend="serial"`` bit-identical
to the sequential implementation.  The executors
(:mod:`repro.api.executor`) consume the plan; they never re-derive
scheduling information from specs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Tuple, Union

from repro.api.registry import get_spec
from repro.api.request import MapRequest

__all__ = ["PlanNode", "Plan", "build_plan", "grouping_artifact_key"]


def grouping_artifact_key(
    tg_key: int, m_key: int, seed: int, config
) -> Tuple:
    """The single authority on grouping cache-key shape.

    Pre-warmed entries (``MappingService.grouping``), batch plans
    (:func:`build_plan`) and stage execution (``MappingService._execute``)
    must agree on this shape or the compute-once guarantee silently
    degrades.
    """
    cfg = "default" if config is None else repr(config)
    return (tg_key, m_key, int(seed), cfg)


@dataclass
class PlanNode:
    """One schedulable unit: a shared-artifact build or an algorithm run.

    Attributes
    ----------
    index:
        Position in :attr:`Plan.nodes`; dependencies always point to
        smaller indices.
    kind:
        ``"grouping"`` (build one shared grouping artifact) or
        ``"algo"`` (run one algorithm of one request).
    request_index:
        The owning request's position in the batch.
    deps:
        Node indices that must complete first.
    algorithm:
        Registry name (algo nodes).
    slot:
        Position of this algo node's response in the collected output.
    artifact:
        ``(namespace, key)`` the node produces (grouping nodes).
    charges:
        Index of the algo node billed for this grouping node's compute
        time (grouping nodes; Figure 3's ``prep_time`` accounting says
        the first consumer pays, exactly like the sequential loop).
    """

    index: int
    kind: str
    request_index: int
    deps: Tuple[int, ...] = ()
    algorithm: Optional[str] = None
    slot: Optional[int] = None
    artifact: Optional[Tuple[str, Hashable]] = None
    charges: Optional[int] = None

    @property
    def label(self) -> str:
        if self.kind == "grouping":
            return f"grouping[req{self.request_index}]"
        return f"{self.algorithm}[req{self.request_index}]"


@dataclass
class Plan:
    """An executable batch: requests + DAG nodes in topological order.

    ``baseline_producers`` records, per workload fingerprint
    ``(tg_key, m_key)``, the algo node that produces the shared DEF
    baseline, which its consumers depend on.
    """

    requests: Tuple[MapRequest, ...]
    nodes: List[PlanNode] = field(default_factory=list)
    baseline_producers: Dict[Tuple[int, int], int] = field(default_factory=dict)

    @property
    def num_slots(self) -> int:
        return sum(1 for n in self.nodes if n.kind == "algo")

    def dependents(self) -> List[List[int]]:
        """Adjacency list: node index -> indices depending on it."""
        out: List[List[int]] = [[] for _ in self.nodes]
        for node in self.nodes:
            for dep in node.deps:
                out[dep].append(node.index)
        return out

    def validate(self) -> None:
        """Sanity-check the topological invariant (used by tests)."""
        for i, node in enumerate(self.nodes):
            if node.index != i:
                raise AssertionError("node indices out of sync")
            for dep in node.deps:
                if dep >= node.index:
                    raise AssertionError(
                        f"node {node.label} depends on later node {dep}"
                    )


def build_plan(
    requests: Union[MapRequest, Iterable[MapRequest]]
) -> Plan:
    """Plan a batch: dedupe shared artifacts into an explicit DAG.

    Accepts what ``map_batch`` accepts — a single (possibly
    multi-algorithm) request or an iterable of requests — and resolves
    every algorithm's declared artifact dependencies
    (:attr:`MapperSpec.consumes` / :attr:`MapperSpec.produces`) against
    the batch built so far.  Unknown algorithm names fail here, before
    any work runs.
    """
    if isinstance(requests, MapRequest):
        requests = (requests,)
    requests = tuple(requests)

    plan = Plan(requests=requests)
    nodes = plan.nodes
    #: grouping artifact key -> producing grouping node index
    grouping_producers: Dict[Tuple, int] = {}
    #: (tg_key, m_key) -> first def_baseline-producing algo node index
    baseline_producers = plan.baseline_producers
    #: placement-identity key -> last route_table-consuming algo node
    route_chain_tails: Dict[Tuple, int] = {}

    slot = 0
    for ri, request in enumerate(requests):
        tg_key, m_key = request.content_keys()
        for algo in request.algorithms:
            spec = get_spec(algo)
            deps: List[int] = []
            new_grouping: Optional[int] = None

            if "grouping" in spec.consumes and request.groups is None:
                gkey = grouping_artifact_key(
                    tg_key,
                    m_key,
                    request.effective_grouping_seed,
                    request.group_config,
                )
                gi = grouping_producers.get(gkey)
                if gi is None:
                    gi = len(nodes)
                    nodes.append(
                        PlanNode(
                            index=gi,
                            kind="grouping",
                            request_index=ri,
                            artifact=("grouping", gkey),
                        )
                    )
                    grouping_producers[gkey] = gi
                    new_grouping = gi
                deps.append(gi)

            if "def_baseline" in spec.consumes:
                bi = baseline_producers.get((tg_key, m_key))
                if bi is not None:
                    deps.append(bi)

            route_key: Optional[Tuple] = None
            if "route_table" in spec.consumes:
                # The initial route table depends on the placement the
                # first congestion stage sees: grouping, placement
                # stage, optimized view and any refines applied before
                # it (plus the request's seed/Δ, which those stages may
                # read).  Conservative keys only cost parallelism, never
                # correctness — chained nodes still run, just in order.
                prefix = []
                for name in spec.refine:
                    if name in spec.CONGESTION_REFINES:
                        break
                    prefix.append(name)
                route_key = (
                    tg_key,
                    m_key,
                    request.effective_grouping_seed,
                    request.seed,
                    request.delta,
                    spec.placement,
                    spec.coarse_view,
                    tuple(prefix),
                )
                tail = route_chain_tails.get(route_key)
                if tail is not None:
                    deps.append(tail)

            ni = len(nodes)
            nodes.append(
                PlanNode(
                    index=ni,
                    kind="algo",
                    request_index=ri,
                    deps=tuple(sorted(set(deps))),
                    algorithm=spec.name,
                    slot=slot,
                )
            )
            slot += 1
            if new_grouping is not None:
                nodes[new_grouping].charges = ni
            if (
                "def_baseline" in spec.produces
                and (tg_key, m_key) not in baseline_producers
            ):
                baseline_producers[(tg_key, m_key)] = ni
            if route_key is not None:
                route_chain_tails[route_key] = ni

    return plan
