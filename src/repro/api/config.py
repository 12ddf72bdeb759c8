"""EngineConfig — one object for the engine's execution knobs.

The per-call kwargs the engine grew PR over PR (``backend``,
``workers``, ``store_dir``, ``store_remote``, ``kernel_backend``, cache
bounds, retry/timeout knobs, and now the sharding fields) live in one
frozen dataclass threaded through :class:`~repro.api.service.
MappingService`, :class:`~repro.api.pool.ExecutorPool`, the CLI and the
network server.  Every legacy kwarg keeps working — call sites pass
explicit kwargs, those override the config, and omitted ones fall back
to it — so the config is a consolidation, not a migration.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = ["EngineConfig", "DEFAULT_WORKER_CACHE_BYTES"]

#: Per-worker artifact-cache byte budget (mirrors ExecutorPool's).
DEFAULT_WORKER_CACHE_BYTES = 256 << 20


@dataclass(frozen=True)
class EngineConfig:
    """Execution knobs for one service / pool / serve deployment.

    Every field has the engine's historical default, so
    ``EngineConfig()`` reproduces the pre-config behavior exactly.

    Parameters
    ----------
    backend:
        Plan execution backend (``serial`` / ``thread`` / ``process``);
        ``None`` keeps each component's own default.
    workers:
        Worker count for parallel backends (``None`` = auto).
    store_dir:
        Root directory of the artifact store (``None`` = in-memory
        cache only, or a pool-managed temp root).
    store_remote:
        ``host:port`` of a ``repro-map store-serve`` process to layer
        under the disk store (replicated writes, promoted reads).
    kernel_backend:
        Kernel tier (``numpy`` / ``numba``; ``None`` = auto-detect).
    cache_entries / cache_bytes:
        LRU bounds of the service-level :class:`~repro.api.cache.
        ArtifactCache` (``None`` = unbounded).
    worker_cache_bytes:
        Per-process-pool-worker cache byte budget.
    retry:
        :class:`~repro.api.fault.RetryPolicy` for plan nodes (``None``
        = no retries).
    node_timeout:
        Per-node deadline in seconds (``None`` = none; the serial
        backend ignores it).  On local executors every ready node is
        handed off at once, so the deadline also counts time a node
        spends queued behind busy workers.
    on_error:
        ``"raise"`` or ``"partial"`` (structured per-request errors).
    idle_timeout:
        Pool worker idle reap timeout (``None`` = keep forever).
    hosts:
        Shard-host addresses (``host:port`` of ``repro-map
        shard-serve`` processes); non-empty routes ``map_batch``
        through the distributed coordinator.
    steal_threshold:
        Ready-queue backlog above which an idle host may steal
        unpinned nodes from a hot shard.
    """

    backend: Optional[str] = None
    workers: Optional[int] = None
    store_dir: Optional[str] = None
    store_remote: Optional[str] = None
    kernel_backend: Optional[str] = None
    cache_entries: Optional[int] = None
    cache_bytes: Optional[int] = None
    worker_cache_bytes: int = DEFAULT_WORKER_CACHE_BYTES
    retry: Optional[object] = None
    node_timeout: Optional[float] = None
    on_error: str = "raise"
    idle_timeout: Optional[float] = None
    hosts: Tuple[str, ...] = field(default_factory=tuple)
    steal_threshold: int = 2

    def __post_init__(self) -> None:
        if self.on_error not in ("raise", "partial"):
            raise ValueError(
                f"on_error must be 'raise' or 'partial', got {self.on_error!r}"
            )
        object.__setattr__(self, "hosts", tuple(self.hosts))

    def merged(self, **overrides) -> "EngineConfig":
        """A copy with the non-``None`` *overrides* applied.

        This is the deprecation shim's core: legacy per-call kwargs
        arrive here and win over the config's fields, so existing call
        sites behave identically with or without a config present.
        """
        changes = {k: v for k, v in overrides.items() if v is not None}
        return dataclasses.replace(self, **changes) if changes else self

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)
