"""MapperSpec registry: algorithms declared as stage compositions.

Each mapping algorithm is a :class:`MapperSpec` — pure data naming a
grouping stage, a placement stage, and zero or more refine stages, plus
the few behavioural flags the paper's figures need (unit-cost view for
UTH, DEF fallback for TMAP, grouping charged to map time).  The seven
paper algorithms and the UTH/UWHF extensions are registered here at
import; third-party mappers join through :func:`register_mapper`, either
with an explicit spec or as a decorator on a placement function::

    @register_mapper("SNAKE", refine=("wh",))
    def snake_placement(ctx):
        \"\"\"Place groups along a space-filling curve.\"\"\"
        ...
        return gamma            # Mapping or int array, one node per group

After registration the new name works everywhere a paper name does:
``get_mapper("SNAKE")``, ``MappingService.map_batch``, and the
``python -m repro.api`` CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

from repro.api.stages import (
    FINE_REFINE_STAGES,
    GROUPING_STAGES,
    PLACEMENT_STAGES,
    REFINE_STAGES,
    register_placement_stage,
)

__all__ = [
    "MapperSpec",
    "MapperRegistrationError",
    "UnknownMapperError",
    "register_mapper",
    "unregister_mapper",
    "get_spec",
    "registered_mappers",
]


class MapperRegistrationError(ValueError):
    """Raised on duplicate or malformed mapper registrations."""


class UnknownMapperError(ValueError):
    """Raised when a mapper name is not in the registry."""

    def __init__(self, name: str) -> None:
        super().__init__(
            f"unknown mapper {name!r}; registered: {registered_mappers()}"
        )
        self.name = name


@dataclass(frozen=True)
class MapperSpec:
    """Declarative description of one mapping algorithm.

    Attributes
    ----------
    name:
        Registry key (upper-cased paper-style name).
    grouping:
        Name in :data:`~repro.api.stages.GROUPING_STAGES`.
    placement:
        Name in :data:`~repro.api.stages.PLACEMENT_STAGES`.
    refine:
        Coarse-level refine stage names, applied in order.
    fine_refine:
        Rank-level refine stage names, applied after expansion.
    coarse_view:
        ``"volume"`` (default) or ``"unit"`` — UTH optimizes the
        unit-cost view of the coarse graph (the TH objective).
    fallback:
        ``"def_mc"`` makes the service return the DEF mapping when the
        algorithm's rank-level MC is not strictly better (TMAP's rule).
    group_in_map_time:
        Charge the grouping stage to ``map_time`` and never share it
        (TMAP re-partitions the task graph itself; DEF's blocking is
        part of its placement cost).
    consumes:
        Artifact namespaces the algorithm reads from the shared cache,
        used by the batch planner (:func:`repro.api.plan.build_plan`) to
        schedule it after the artifacts' producers: ``"grouping"`` (the
        shared phase-1 partition), ``"route_table"`` (the initial-route
        enumeration of its placement, shared by the congestion
        refiners), ``"def_baseline"`` (TMAP's fallback comparison).
        Derived from the stage composition when not given explicitly.
    produces:
        Artifact namespaces the algorithm's run seeds into the cache for
        later consumers (DEF and TMAP seed ``"def_baseline"``; the
        congestion refiners seed ``"route_table"``).  Derived when not
        given.
    description:
        One-liner for ``python -m repro.api list``.
    """

    name: str
    grouping: str = "partition"
    placement: str = "greedy"
    refine: Tuple[str, ...] = ()
    fine_refine: Tuple[str, ...] = ()
    coarse_view: str = "volume"
    fallback: Optional[str] = None
    group_in_map_time: bool = False
    consumes: Optional[Tuple[str, ...]] = None
    produces: Optional[Tuple[str, ...]] = None
    description: str = ""

    #: refine stages that enumerate (and share) an initial route table.
    CONGESTION_REFINES = ("mc", "mmc")

    def __post_init__(self) -> None:
        if self.grouping not in GROUPING_STAGES:
            raise MapperRegistrationError(
                f"{self.name}: unknown grouping stage {self.grouping!r}"
            )
        if self.placement not in PLACEMENT_STAGES:
            raise MapperRegistrationError(
                f"{self.name}: unknown placement stage {self.placement!r}"
            )
        for r in self.refine:
            if r not in REFINE_STAGES:
                raise MapperRegistrationError(
                    f"{self.name}: unknown refine stage {r!r}"
                )
        for r in self.fine_refine:
            if r not in FINE_REFINE_STAGES:
                raise MapperRegistrationError(
                    f"{self.name}: unknown fine refine stage {r!r}"
                )
        if self.coarse_view not in ("volume", "unit"):
            raise MapperRegistrationError(
                f"{self.name}: coarse_view must be 'volume' or 'unit'"
            )
        if self.fallback not in (None, "def_mc"):
            raise MapperRegistrationError(
                f"{self.name}: unsupported fallback {self.fallback!r}"
            )
        if self.consumes is None:
            object.__setattr__(self, "consumes", self._derive_consumes())
        else:
            object.__setattr__(self, "consumes", tuple(self.consumes))
        if self.produces is None:
            object.__setattr__(self, "produces", self._derive_produces())
        else:
            object.__setattr__(self, "produces", tuple(self.produces))

    def _derive_consumes(self) -> Tuple[str, ...]:
        out = []
        if not self.group_in_map_time:
            out.append("grouping")
        if any(r in self.CONGESTION_REFINES for r in self.refine):
            out.append("route_table")
        if self.fallback == "def_mc":
            out.append("def_baseline")
        return tuple(out)

    def _derive_produces(self) -> Tuple[str, ...]:
        out = []
        if any(r in self.CONGESTION_REFINES for r in self.refine):
            out.append("route_table")
        if self.fallback == "def_mc":
            # A fallback spec seeds the baseline it compares against
            # (service._baseline_def).  DEF itself declares
            # produces=("def_baseline",) explicitly in its builtin spec
            # — the service's seeding is keyed to that algorithm, so
            # deriving it from a structural proxy here could promise a
            # production that execution never performs.
            out.append("def_baseline")
        return tuple(out)

    def stage_names(self) -> Tuple[str, ...]:
        """Human-readable stage chain, e.g. ``('partition', 'greedy', 'wh')``."""
        return (self.grouping, self.placement) + self.refine + self.fine_refine


_REGISTRY: Dict[str, MapperSpec] = {}


def register_mapper(
    spec_or_name=None,
    *,
    name: Optional[str] = None,
    grouping: str = "partition",
    refine: Tuple[str, ...] = (),
    fine_refine: Tuple[str, ...] = (),
    coarse_view: str = "volume",
    description: str = "",
    overwrite: bool = False,
):
    """Register a mapping algorithm; returns the spec (or the decorated fn).

    Three forms are supported:

    * ``register_mapper(MapperSpec(...))`` — register an explicit spec.
    * ``@register_mapper("NAME", refine=("wh",))`` — decorate a placement
      function ``(ctx: StageContext) -> Mapping | gamma``; the function is
      installed as a placement stage and a spec composing it with the
      shared ``partition`` grouping (plus any requested refiners) is
      registered under ``NAME``.
    * ``@register_mapper(name="NAME")`` — same, keyword form.
    """
    if isinstance(spec_or_name, MapperSpec):
        return _install(spec_or_name, overwrite)

    if callable(spec_or_name) and name is None:
        raise MapperRegistrationError(
            "register_mapper needs a name: use @register_mapper('NAME')"
        )

    algo_name = name if name is not None else spec_or_name
    if not isinstance(algo_name, str) or not algo_name:
        raise MapperRegistrationError(
            f"mapper name must be a non-empty string, got {algo_name!r}"
        )
    algo_name = algo_name.upper()

    def decorator(fn: Callable):
        if not overwrite and algo_name in _REGISTRY:
            raise MapperRegistrationError(
                f"mapper {algo_name!r} is already registered "
                "(pass overwrite=True to replace it)"
            )
        stage_name = f"custom:{algo_name.lower()}"
        register_placement_stage(stage_name, fn, overwrite=overwrite)
        doc = description
        if not doc:
            lines = (fn.__doc__ or "").strip().splitlines()
            doc = lines[0] if lines else ""
        try:
            spec = MapperSpec(
                name=algo_name,
                grouping=grouping,
                placement=stage_name,
                refine=tuple(refine),
                fine_refine=tuple(fine_refine),
                coarse_view=coarse_view,
                description=doc,
            )
            _install(spec, overwrite)
        except Exception:
            # Don't leave a half-registered stage behind: a corrected
            # retry of the same decorator must start clean.
            PLACEMENT_STAGES.pop(stage_name, None)
            raise
        return fn

    return decorator


def _install(spec: MapperSpec, overwrite: bool) -> MapperSpec:
    key = spec.name.upper()
    if not overwrite and key in _REGISTRY:
        raise MapperRegistrationError(
            f"mapper {key!r} is already registered "
            "(pass overwrite=True to replace it)"
        )
    if spec.name != key:
        # Normalize so spec.name, registered_mappers() and the
        # MapResponse.algorithm labels always agree on the casing.
        spec = replace(spec, name=key)
    _REGISTRY[key] = spec
    return spec


def unregister_mapper(name: str) -> None:
    """Remove a mapper (and its decorator-created stage, if any)."""
    spec = _REGISTRY.pop(name.upper(), None)
    if spec is not None and spec.placement.startswith("custom:"):
        PLACEMENT_STAGES.pop(spec.placement, None)


def get_spec(name: str) -> MapperSpec:
    """Case-insensitive registry lookup; raises :class:`UnknownMapperError`."""
    try:
        return _REGISTRY[name.upper()]
    except KeyError:
        raise UnknownMapperError(name) from None


def registered_mappers() -> Tuple[str, ...]:
    """All registered mapper names, paper algorithms first."""
    return tuple(_REGISTRY)


# ---------------------------------------------------------------------------
# The paper's seven algorithms + the UTH / UWHF extensions, as data.
# ---------------------------------------------------------------------------

_BUILTIN_SPECS = (
    MapperSpec(
        name="DEF",
        grouping="blocked",
        placement="consecutive",
        group_in_map_time=True,
        # Every DEF run (re)seeds the def_baseline entry TMAP's
        # fallback reads — declared explicitly because the service's
        # seeding is keyed to this algorithm, not to its stage shape.
        produces=("def_baseline",),
        description="Hopper-style consecutive ranks along the allocation",
    ),
    MapperSpec(
        name="TMAP",
        grouping="partition",
        placement="topomap",
        fallback="def_mc",
        group_in_map_time=True,  # LibTopoMap partitions the task graph itself
        description="LibTopoMap-like dual recursive bipartitioning + DEF fallback",
    ),
    MapperSpec(
        name="SMAP",
        placement="scotch",
        description="Scotch-like simultaneous dual recursive bipartitioning",
    ),
    MapperSpec(name="UG", description="Algorithm 1: greedy WH placement"),
    MapperSpec(
        name="UWH",
        refine=("wh",),
        description="UG + Algorithm 2 WH swap refinement",
    ),
    MapperSpec(
        name="UMC",
        refine=("mc",),
        description="UG + Algorithm 3 congestion refinement (volume)",
    ),
    MapperSpec(
        name="UMMC",
        refine=("mmc",),
        description="UG + Algorithm 3 on fine message multiplicities",
    ),
    MapperSpec(
        name="UTH",
        refine=("wh",),
        coarse_view="unit",
        description="UG+UWH on the unit-cost view (TH objective)",
    ),
    MapperSpec(
        name="UWHF",
        refine=("wh",),
        fine_refine=("fine_wh",),
        description="UWH + rank-level WH swap refinement",
    ),
    # -- algorithm families beyond the paper (ROADMAP directions) --------
    MapperSpec(
        name="HIER",
        placement="hier",
        description="Hierarchical per-dimension partitioning (Schulz & Woydt)",
    ),
    MapperSpec(
        name="HIERWH",
        placement="hier",
        refine=("wh",),
        description="HIER + Algorithm 2 WH swap refinement",
    ),
    MapperSpec(
        name="SFC",
        placement="sfc",
        description="Geometric SFC curve-zip placement (Deveci et al.)",
    ),
    MapperSpec(
        name="SFCWH",
        placement="sfc",
        refine=("wh",),
        description="SFC + Algorithm 2 WH swap refinement",
    ),
)

for _spec in _BUILTIN_SPECS:
    _install(_spec, overwrite=False)
del _spec
