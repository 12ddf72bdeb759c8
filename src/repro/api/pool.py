"""ExecutorPool — the worker processes and artifact store of every local batch.

Every ``process`` batch runs on an :class:`ExecutorPool`.  Without
``pool=`` the engine builds one that lives for that one batch; a
serving deployment keeps one alive instead, because pool spawn and
store warm-up dominate small batches.  A long-lived pool amortizes both
across calls:

* **Lazy spawn** — constructing a pool is free; workers start on the
  first batch that needs them.
* **Reuse** — every subsequent batch (from any thread, including the
  network server's driver threads in :mod:`repro.serve.server`) runs on
  the same executor, and the workers keep their warm in-memory
  artifact caches.
* **Fixed shape** — the width is set when the pool is built; a batch
  asking for another backend or width is refused by
  :meth:`MappingService.map_batch` rather than respawning the pool.
* **One store** — the pool owns an artifact store (caller-supplied
  directory or a pool-scoped temporary one) that outlives individual
  batches, so groupings / route tables / DEF baselines computed for
  batch *n* are disk hits for batch *n + 1* even across worker
  processes.  Each worker's read path is memory LRU → disk.
* **Idle reap** — with ``idle_timeout`` set, workers are shut down after
  a quiet period and respawned lazily on the next batch; the store (and
  therefore all warm artifacts) survives the reap.
* **Clean shutdown** — context-manager exit or :meth:`shutdown` joins
  the workers and removes a pool-owned temporary store; an ``atexit``
  hook covers pools the caller forgot.  The engine's batch-scoped pool
  terminates its workers instead, so a node abandoned at its
  ``node_timeout`` does not hold the batch.

Process workers receive each node's :class:`~repro.api.request.
MapRequest` with the node itself: a pickled request is small and
cheap next to the node's mapping work, and nothing is written to the
store per batch.
"""

from __future__ import annotations

import atexit
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import List, Optional

from repro.api.store import DiskArtifactStore

__all__ = ["ExecutorPool"]


class ExecutorPool:
    """Reusable process executor + artifact store shared across ``map_batch`` calls.

    Parameters
    ----------
    backend:
        ``"process"``, the one backend a pool hosts (``serial`` has
        nothing to pool); any other value raises :class:`ValueError`.
    workers:
        Pool width (``None`` = the affinity-aware
        :func:`repro.api.executor.default_workers`).
    store_dir:
        Directory of the pool's artifact store.  ``None`` creates a
        temporary directory owned (and removed at shutdown) by the pool.
    idle_timeout:
        Seconds of inactivity after which the workers are reaped
        (``None`` = never).  The store survives; the next batch
        respawns the executor.
    worker_cache_bytes:
        Byte budget of each process worker's in-memory artifact cache
        (LRU-evicted; ``None`` = unbounded).  Long-lived workers need a
        bound or their caches grow with every distinct workload served.

    Use as a context manager, or call :meth:`shutdown` explicitly::

        with ExecutorPool("process", workers=4) as pool:
            service = MappingService(pool=pool)
            for batch in batches:
                service.map_batch(batch)   # one spawn, many batches
    """

    def __init__(
        self,
        backend: str = "process",
        *,
        workers: Optional[int] = None,
        store_dir: Optional[str] = None,
        idle_timeout: Optional[float] = None,
        worker_cache_bytes: Optional[int] = 256 << 20,
    ) -> None:
        if backend != "process":
            raise ValueError(f"unknown pool backend {backend!r}; a pool hosts 'process'")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive (or None)")
        self.backend = backend
        self.workers = workers
        self.store_dir = store_dir
        self.idle_timeout = idle_timeout
        self.worker_cache_bytes = worker_cache_bytes
        #: Executor spawns over the pool's lifetime (lazy spawn and reap
        #: make this observable; tests pin it).
        self.spawn_count = 0
        #: Crash-driven executor replacements (:meth:`respawn` calls).
        #: Each one is also a spawn, so ``spawn_count`` includes them.
        self.restarts = 0

        self._lock = threading.RLock()
        self._executor = None
        self._store: Optional[DiskArtifactStore] = None
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        self._active = 0
        self._last_used = time.monotonic()
        self._reap_timer: Optional[threading.Timer] = None
        self._closed = False
        atexit.register(self.shutdown)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def executor_alive(self) -> bool:
        """Whether workers are currently spawned (False after a reap).

        Spawned is not the same as serviceable: a crashed process pool
        still counts as alive here until it is respawned or reaped.
        Check :attr:`healthy` for "can this pool execute work".
        """
        with self._lock:
            return self._executor is not None

    @property
    def healthy(self) -> bool:
        """Whether the pool can execute work right now.

        True when no executor is spawned yet (the next batch spawns one
        lazily) or the spawned executor is unbroken.  A pool whose
        workers died reports ``healthy == False`` until
        :meth:`respawn` replaces the executor — which the fault-aware
        scheduler does automatically mid-batch.
        """
        with self._lock:
            if self._closed:
                return False
            executor = self._executor
            return executor is None or not getattr(executor, "_broken", False)

    def worker_pids(self) -> List[int]:
        """PIDs of live workers (empty before the first spawn or after a reap)."""
        with self._lock:
            ex = self._executor
            if ex is None:
                return []
            # ProcessPoolExecutor keeps no public worker registry;
            # degrade to empty rather than break if the private map
            # ever moves.
            return sorted(getattr(ex, "_processes", None) or {})

    @property
    def store(self) -> DiskArtifactStore:
        """The pool's artifact store (created lazily, survives reaps)."""
        with self._lock:
            return self._ensure_store()

    def shutdown(self) -> None:
        """Join the workers and remove a pool-owned temporary store.

        Idempotent; also runs via ``atexit`` for pools never explicitly
        closed, so a serving process exits without stray workers.
        """
        self._close(terminate=False)

    def _close(self, *, terminate: bool) -> None:
        """:meth:`shutdown`; with *terminate*, end the workers, not join them.

        A batch-scoped pool closes this way: once its batch has returned,
        a worker still running a node runs one the batch abandoned
        (``node_timeout``), and joining it would hold the batch until
        that node ends.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._stop_executor(wait=True, terminate=terminate)
            self._drop_store()
        atexit.unregister(self.shutdown)

    def __enter__(self) -> "ExecutorPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # batch execution support (used by repro.api.executor)
    # ------------------------------------------------------------------
    @contextmanager
    def session(self):
        """Borrow the live executor for one batch (spawning if needed)."""
        with self._lock:
            executor = self._ensure_executor()
            self._active += 1
            self._cancel_reap()
        try:
            yield executor
        finally:
            with self._lock:
                self._active -= 1
                self._last_used = time.monotonic()
                self._schedule_reap()

    def submit(self, fn, *args, **kwargs):
        """Submit work through the pool's *current* executor.

        The indirection matters mid-batch: after :meth:`respawn`
        replaces a crashed executor, a scheduler that submits through
        the pool (rather than a captured executor reference) picks up
        the replacement automatically and only re-runs the nodes it
        lost.
        """
        with self._lock:
            executor = self._ensure_executor()
        return executor.submit(fn, *args, **kwargs)

    def respawn(self) -> None:
        """Replace a crashed (or merely suspect) executor with a fresh one.

        The artifact store — and with it every warm artifact — survives,
        and each re-submitted node carries its own request.  Bumps
        :attr:`restarts` (and, via the spawn, :attr:`spawn_count`).
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("ExecutorPool is shut down")
            # wait=False: a broken pool's workers are already dead, and a
            # wedged one must not block the recovery path.
            self._stop_executor(wait=False)
            self.restarts += 1
            self._ensure_executor()

    def stats(self) -> dict:
        """Lifecycle counters for monitoring/serving endpoints."""
        with self._lock:
            return {
                "backend": self.backend,
                "workers": self.workers,
                "spawn_count": self.spawn_count,
                "restarts": self.restarts,
                "executor_alive": self._executor is not None,
                "live_workers": len(self.worker_pids()),
                "healthy": self.healthy,
                "active_batches": self._active,
                "closed": self._closed,
                "store": self._store.stats() if self._store is not None else None,
            }

    # ------------------------------------------------------------------
    # internals (all called under self._lock)
    # ------------------------------------------------------------------
    def _ensure_store(self) -> DiskArtifactStore:
        if self._closed:
            # A post-shutdown access must not resurrect a temporary
            # store directory nobody would ever clean up.
            raise RuntimeError("ExecutorPool is shut down")
        if self._store is None:
            root = self.store_dir
            if root is None:
                self._tmp = tempfile.TemporaryDirectory(prefix="repro-pool-")
                root = self._tmp.name
            self._store = DiskArtifactStore(root)
        return self._store

    def _ensure_executor(self):
        if self._closed:
            raise RuntimeError("ExecutorPool is shut down")
        if self._executor is None:
            from repro.api.executor import default_workers

            width = self.workers if self.workers is not None else default_workers()
            store = self._ensure_store()
            self._executor = ProcessPoolExecutor(
                max_workers=width,
                initializer=_worker_init,
                initargs=(store.root, self.worker_cache_bytes),
            )
            self.spawn_count += 1
        return self._executor

    def _stop_executor(self, *, wait: bool, terminate: bool = False) -> None:
        self._cancel_reap()
        if self._executor is not None:
            if terminate:
                # The same private worker map as worker_pids() reads.
                workers = getattr(self._executor, "_processes", None) or {}
                for proc in list(workers.values()):
                    proc.terminate()
            self._executor.shutdown(wait=wait)
            self._executor = None

    def _drop_store(self) -> None:
        self._store = None
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def _cancel_reap(self) -> None:
        if self._reap_timer is not None:
            self._reap_timer.cancel()
            self._reap_timer = None

    def _schedule_reap(self) -> None:
        self._cancel_reap()
        if (
            self.idle_timeout is None
            or self._executor is None
            or self._active
            or self._closed
        ):
            return
        timer = threading.Timer(self.idle_timeout, self._maybe_reap)
        timer.daemon = True
        self._reap_timer = timer
        timer.start()

    def _maybe_reap(self) -> None:
        with self._lock:
            if self._closed or self._executor is None or self._active:
                return
            if time.monotonic() - self._last_used + 1e-3 < (self.idle_timeout or 0):
                self._schedule_reap()  # touched since the timer was set
                return
            # Workers are idle by construction, so the join is immediate;
            # the store (and its warm artifacts) survives the reap.
            self._stop_executor(wait=True)


# ---------------------------------------------------------------------------
# Persistent process-pool worker side.
# ---------------------------------------------------------------------------

_WORKER_SERVICE = None


def _worker_init(store_root: str, cache_bytes: Optional[int]) -> None:
    """Build this worker's long-lived service over the pool's store."""
    global _WORKER_SERVICE
    from repro.api.cache import ArtifactCache
    from repro.api.service import MappingService

    store = DiskArtifactStore(store_root)
    _WORKER_SERVICE = MappingService(
        cache=ArtifactCache(store=store, max_bytes=cache_bytes)
    )


def _worker_run_node(request, kind: str, algorithm: Optional[str]):
    """Execute one plan node, shipped with its request, in this worker.

    No placement memo: a worker sees single nodes, not the batch, so each
    of its nodes runs its own placement.
    """
    from repro.api.executor import run_plan_node

    return run_plan_node(_WORKER_SERVICE, request, kind, algorithm, None)
