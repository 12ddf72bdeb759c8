"""AsyncMappingService — the awaitable front end of the serving layer.

A mapping server wants an event loop at the edge (accepting requests,
streaming responses) and the blocking plan→execute engine in the back.
:class:`AsyncMappingService` bridges the two: ``await service.map(req)``
/ ``await service.map_batch(reqs)`` drive the synchronous
:meth:`repro.api.service.MappingService.map_batch` on a small pool of
*driver threads*, so the loop keeps serving while plans execute — on an
attached :class:`~repro.api.pool.ExecutorPool`'s long-lived workers
when one is configured.

Three properties shape the implementation:

* **Bounded in-flight plans.**  ``max_in_flight`` caps how many plans
  execute concurrently (driver-pool width == semaphore permits); excess
  awaiters queue in FIFO order instead of oversubscribing the engine.
* **Per-request futures.**  :meth:`submit` returns an
  :class:`asyncio.Task` per request immediately, so a server can fan
  out requests as they arrive and gather completions in any order.
* **Shared sync semantics.**  Results are produced by the same
  ``MappingService`` the sync path uses — byte-identical responses,
  same artifact cache (switched to its concurrent mode, since several
  driver threads may hit it at once).

Quickstart::

    async def serve(requests):
        async with AsyncMappingService(pool=ExecutorPool("process")) as svc:
            tasks = [svc.submit(r) for r in requests]      # per-request futures
            return [await t for t in tasks]
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Iterable, List, Optional, Union

from repro.api.config import EngineConfig
from repro.api.request import MapRequest, MapResponse
from repro.api.service import MappingService

__all__ = ["AsyncMappingService"]


class AsyncMappingService:
    """Awaitable wrapper around a (possibly pool-backed) MappingService.

    Parameters
    ----------
    service:
        The synchronous service to drive.  Built on demand (forwarding
        *pool* and *service_kwargs* to :class:`MappingService`) when not
        given.
    pool:
        Optional :class:`~repro.api.pool.ExecutorPool` for the
        underlying batches; only legal when *service* is built here.
    max_in_flight:
        Maximum plans executing concurrently; further ``map``/
        ``map_batch`` awaiters wait on the semaphore.
    service_kwargs:
        Extra :class:`MappingService` constructor arguments (``cache=``,
        ``backend=``, ``workers=``) when *service* is built here.

    Use as an async context manager or call :meth:`close` when done —
    this stops the driver threads (an attached pool is shared, not
    owned: shut it down where it was created).
    """

    def __init__(
        self,
        service: Optional[MappingService] = None,
        *,
        pool=None,
        max_in_flight: int = 2,
        **service_kwargs,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if service is not None and (pool is not None or service_kwargs):
            raise ValueError(
                "pass either a prebuilt service or constructor arguments, not both"
            )
        self.service = (
            service
            if service is not None
            else MappingService(pool=pool, **service_kwargs)
        )
        # Several driver threads may execute plans against the one
        # service concurrently; its cache must dedupe same-key computes.
        self.service.cache.enable_concurrency()
        self.max_in_flight = max_in_flight
        self._drivers = ThreadPoolExecutor(
            max_workers=max_in_flight, thread_name_prefix="repro-aio"
        )
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._active = 0
        self._closed = False

    # ------------------------------------------------------------------
    # awaitable API
    # ------------------------------------------------------------------
    async def map(self, request: MapRequest, **kwargs) -> MapResponse:
        """Awaitable :meth:`MappingService.map` (exactly one algorithm).

        Accepts the same ``timeout=`` / ``config=`` keywords as
        :meth:`map_batch`.
        """
        if len(request.algorithms) != 1:
            raise ValueError(
                f"map() takes exactly one algorithm, got {request.algorithms}; "
                "use map_batch() for several"
            )
        responses = await self.map_batch(request, **kwargs)
        return responses[0]

    async def map_batch(
        self,
        requests: Union[MapRequest, Iterable[MapRequest]],
        *,
        timeout: Optional[float] = None,
        config: Optional[EngineConfig] = None,
    ) -> List[MapResponse]:
        """Awaitable :meth:`MappingService.map_batch`.

        The plan builds and executes on a driver thread, so the event
        loop never blocks; at most ``max_in_flight`` plans run at once.

        *timeout* bounds this batch's wall time: past it the await
        fails with :class:`asyncio.TimeoutError`.  *config* (an
        :class:`~repro.api.config.EngineConfig`, e.g. with engine-level
        fault handling) passes straight through to
        :meth:`MappingService.map_batch`.

        Cancellation is safe at any point: a cancelled (or timed-out)
        awaiter releases its ``max_in_flight`` slot immediately and the
        service stays serviceable.  A plan already executing on a
        driver thread runs to completion in the background — executors
        cannot interrupt a running plan — but its results are
        discarded and its slot is not held.
        """
        if not isinstance(requests, MapRequest):
            requests = tuple(requests)  # materialize off the loop's clock
        async with self._plan_slot():
            if self._closed:
                # close() ran while this plan was queued on the
                # semaphore; reject it cleanly instead of hitting the
                # shut-down driver executor.
                raise RuntimeError("AsyncMappingService is closed")
            loop = asyncio.get_running_loop()
            self._active += 1
            try:
                future = loop.run_in_executor(
                    self._drivers,
                    partial(self.service.map_batch, requests, config=config),
                )
                if timeout is not None:
                    return await asyncio.wait_for(future, timeout)
                return await future
            finally:
                self._active -= 1

    def submit(self, request: MapRequest, **kwargs) -> "asyncio.Task":
        """Per-request future: schedule *request* and return its Task.

        The Task resolves to the request's response list (one
        :class:`MapResponse` per algorithm).  Must be called from a
        running event loop.
        """
        return asyncio.get_running_loop().create_task(
            self.map_batch(request, **kwargs)
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Plans currently executing (or queued on driver threads)."""
        return self._active

    def stats(self) -> dict:
        """Serving-observability counters (the ``stats`` op's aio block)."""
        return {
            "in_flight": self._active,
            "max_in_flight": self.max_in_flight,
            "closed": self._closed,
        }

    async def close(self) -> None:
        """Stop the driver threads after in-flight plans finish.

        Plans still *queued* on the in-flight semaphore when close()
        runs are rejected with :class:`RuntimeError` when their turn
        comes — executing plans always complete.
        """
        if self._closed:
            return
        self._closed = True
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, partial(self._drivers.shutdown, wait=True)
        )

    async def __aenter__(self) -> "AsyncMappingService":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    def _plan_slot(self) -> asyncio.Semaphore:
        """The in-flight semaphore, created lazily on the running loop."""
        if self._closed:
            raise RuntimeError("AsyncMappingService is closed")
        loop = asyncio.get_running_loop()
        if self._semaphore is None or self._loop is not loop:
            # A fresh loop (common in tests: one asyncio.run per case)
            # gets a fresh semaphore; permits cannot leak across loops
            # because close() drains before the loop is torn down.
            self._semaphore = asyncio.Semaphore(self.max_in_flight)
            self._loop = loop
        return self._semaphore
