"""EngineConfig — one object for the engine's execution knobs.

A :class:`~repro.api.service.MappingService` holds one config; its
``map_batch(requests, config=...)`` takes another for one batch, which
stands in for the service's (a ``None`` ``backend`` or ``workers`` there
means the service's).  Derive a per-batch config with
:func:`dataclasses.replace`::

    service.map_batch(requests, config=replace(service.config, on_error="partial"))

The CLI builds one from its flags, and the network server derives each
dispatched batch's config from its service's the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["EngineConfig"]


@dataclass(frozen=True)
class EngineConfig:
    """Execution knobs for one service, batch or serve deployment.

    Every field has the engine's historical default, so
    ``EngineConfig()`` reproduces the pre-config behavior exactly.

    Parameters
    ----------
    backend:
        Plan execution backend, ``serial`` or ``process``; ``None`` =
        the service's default (``process`` with an attached pool, else
        ``serial``).
    workers:
        Worker count of the process backend (``None`` = the service's,
        else auto; on an attached pool, the pool's width).  At least 1.
    store_dir:
        Root directory of the artifact store (``None`` = in-memory
        cache only, or a pool-managed temp root).
    cache_entries / cache_bytes:
        LRU bounds of the service-level :class:`~repro.api.cache.
        ArtifactCache` (``None`` = unbounded).
    retry:
        :class:`~repro.api.fault.RetryPolicy` for plan nodes (``None``
        = no retries).
    node_timeout:
        Per-node deadline in seconds, positive (``None`` = none; the
        serial backend ignores it).  The process backend hands every
        ready node off at once, so the deadline also counts time a node
        spends queued behind busy workers.
    on_error:
        ``"raise"`` or ``"partial"`` (structured per-request errors).
    """

    backend: Optional[str] = None
    workers: Optional[int] = None
    store_dir: Optional[str] = None
    cache_entries: Optional[int] = None
    cache_bytes: Optional[int] = None
    retry: Optional[object] = None
    node_timeout: Optional[float] = None
    on_error: str = "raise"

    def __post_init__(self) -> None:
        if self.on_error not in ("raise", "partial"):
            raise ValueError(
                f"on_error must be 'raise' or 'partial', got {self.on_error!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")
        if self.node_timeout is not None and not self.node_timeout > 0:
            raise ValueError(
                f"node_timeout must be positive, got {self.node_timeout!r}"
            )
