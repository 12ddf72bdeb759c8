"""MappingServer — the network front end of the mapping service.

A TCP server speaking the length-prefixed-JSON protocol of
:mod:`repro.serve.protocol` over one :class:`~repro.api.service.
MappingService` (optionally backed by a long-lived
:class:`~repro.api.pool.ExecutorPool`).  It is the one long-running
launch path, designed around the observation that a mapping *service*
is judged by its tail latency, not its geo-mean throughput.  Five
mechanisms shape it:

**Admission control.**  ``max_pending`` bounds requests admitted but
not yet answered.  Past the bound, new ``map`` requests are *shed*
immediately with a structured ``overloaded`` error (same shape as the
engine's :class:`~repro.api.fault.PlanError`) — a loaded server answers
"no" in microseconds instead of building an unbounded queue whose tail
latency grows without limit.

**Tenant fairness.**  Admitted requests enter per-tenant FIFO queues
drained by stride scheduling (weighted fair queuing): each tenant
carries a virtual time advanced by ``cost / weight`` per dispatched
request, and the dispatcher always serves the lowest virtual time.  A
tenant flooding requests only burns its own virtual time — a
one-request tenant arriving behind a 50-request flood is dispatched
second, not fifty-first.

**Request coalescing.**  The dispatcher collects admitted requests for
a short ``coalesce_window`` and folds up to ``max_batch`` of them into
*one* ``map_batch`` call.  Identical concurrent workloads then dedupe
through the planner for free — N clients asking for the same mapping
cost one grouping computation — and distinct workloads still share the
batch's pool session.  Per-request deadlines propagate into the
engine's ``node_timeout`` machinery; a deadline that expires while
queued is answered with a ``timeout`` error without touching the pool.

**Bounded in-flight plans.**  Each dispatched batch runs the blocking
``MappingService.map_batch`` on one of ``max_in_flight`` driver
threads, so the event loop keeps admitting and answering while plans
execute.  Execute tasks are never cancelled, so the driver executor's
width alone bounds concurrent plans.  The driver threads share the
service's cache, whose striped locks run one compute per key, and each
plan keeps its own placement memo.

**Observability.**  Every op records into
:class:`~repro.serve.metrics.LatencyHistogram`\\ s (end-to-end, queue
wait, execute) and a counter set; the ``stats`` op (also served to the
``repro-map stats`` CLI) exports p50/p95/p99 per endpoint, queue
depths per tenant, in-flight plans, shed/coalesce counters, cache
statistics and :meth:`ExecutorPool.stats` pool health in one JSON
object — the payload the tail-latency CI gate and the load generator
read.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.api.service import MappingService
from repro.serve.metrics import LatencyHistogram, RollingWindow
from repro.serve.protocol import (
    ProtocolError,
    encode_frame,
    error_payload,
    read_frame,
    requests_from_entries,
    response_payload,
)

__all__ = ["MappingServer", "FairQueue", "ThreadedServer", "DEFAULT_TENANT"]

#: Tenant bucket of requests that name none.
DEFAULT_TENANT = "default"

#: Built (task graph, machine) workloads the server keeps warm (LRU).
WORKLOAD_LIMIT = 32

_COUNTER_NAMES = (
    "accepted",
    "completed",
    "shed",
    "deadline_expired",
    "bad_request",
    "protocol_errors",
    "dispatches",
    "dispatched_requests",
    "coalesced_requests",
    "result_errors",
)


class _Ticket:
    """One admitted ``map`` request travelling queue → dispatch → response."""

    __slots__ = (
        "id",
        "tenant",
        "entries",
        "defaults",
        "deadline_s",
        "arrival",
        "writer",
        "write_lock",
        "requests",
        "cost",
        "dispatch_seq",
    )

    def __init__(self, id, tenant, entries, defaults, deadline_s, writer, write_lock):
        self.id = id
        self.tenant = tenant
        self.entries = entries
        self.defaults = defaults
        self.deadline_s = deadline_s
        self.arrival = time.monotonic()
        self.writer = writer
        self.write_lock = write_lock
        self.requests = None
        self.cost = max(1, len(entries))
        self.dispatch_seq = None

    def remaining(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds left on this ticket's deadline (None = unbounded)."""
        if self.deadline_s is None:
            return None
        return self.deadline_s - ((now or time.monotonic()) - self.arrival)


class FairQueue:
    """Weighted fair queue over per-tenant FIFOs (stride scheduling).

    ``push`` appends to the tenant's FIFO; ``pop`` serves the non-empty
    tenant with the smallest virtual time and advances it by
    ``cost / weight``.  A tenant going idle and returning resumes at
    the queue's current virtual time (``max(own, global)``), so sitting
    out earns no retroactive credit.  Ties break by tenant name, which
    keeps dispatch order deterministic for the fairness tests.
    """

    def __init__(
        self,
        weights: Optional[Dict[str, float]] = None,
        default_weight: float = 1.0,
    ) -> None:
        if default_weight <= 0:
            raise ValueError("default_weight must be positive")
        for tenant, w in (weights or {}).items():
            if w <= 0:
                raise ValueError(f"tenant {tenant!r} weight must be positive")
        self.weights = dict(weights or {})
        self.default_weight = default_weight
        self._queues: Dict[str, deque] = {}
        self._vtimes: Dict[str, float] = {}
        self._vnow = 0.0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def depths(self) -> Dict[str, int]:
        return {t: len(q) for t, q in self._queues.items() if q}

    def push(self, ticket: _Ticket) -> None:
        tenant = ticket.tenant
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
        if not queue:
            # Re-entering tenants start from the current virtual time.
            self._vtimes[tenant] = max(self._vtimes.get(tenant, 0.0), self._vnow)
        queue.append(ticket)
        self._size += 1

    def pop(self) -> _Ticket:
        if not self._size:
            raise IndexError("pop from an empty FairQueue")
        tenant = min(
            (t for t, q in self._queues.items() if q),
            key=lambda t: (self._vtimes[t], t),
        )
        ticket = self._queues[tenant].popleft()
        self._size -= 1
        weight = self.weights.get(tenant, self.default_weight)
        self._vtimes[tenant] += ticket.cost / weight
        self._vnow = (
            min(self._vtimes[t] for t, q in self._queues.items() if q)
            if self._size
            else self._vtimes[tenant]
        )
        return ticket


class MappingServer:
    """TCP front end over one :class:`~repro.api.service.MappingService`.

    Parameters
    ----------
    pool:
        Optional :class:`~repro.api.pool.ExecutorPool` backing the
        service — the production configuration.  Shared, not owned:
        shut it down where it was created.
    host / port:
        Listen address; port 0 picks an ephemeral port (read
        :attr:`address` after :meth:`start`).
    max_pending:
        Admission bound: ``map`` requests admitted but unanswered.
    coalesce_window:
        Seconds the dispatcher collects requests before folding them
        into one engine batch.  0 dispatches eagerly.
    max_batch:
        Most tickets folded into one ``map_batch`` call.
    tenant_weights / default_tenant_weight:
        Weighted-fair-queuing weights (higher = more service).
    max_in_flight:
        Driver threads, and so the most plans executing at once.
    **service_kwargs:
        Forwarded to the built :class:`~repro.api.service.
        MappingService` — including ``config=`` (an
        :class:`~repro.api.config.EngineConfig`), so one config object
        can shape a whole serve deployment's cache, store and engine
        defaults.  Every dispatched batch runs with
        ``replace(service.config, node_timeout=..., on_error="partial")``:
        the config's ``retry`` applies as is, and a ticket's own deadline
        tightens its ``node_timeout``.
    """

    def __init__(
        self,
        *,
        pool=None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending: int = 64,
        coalesce_window: float = 0.005,
        max_batch: int = 16,
        tenant_weights: Optional[Dict[str, float]] = None,
        default_tenant_weight: float = 1.0,
        max_in_flight: int = 2,
        **service_kwargs,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if coalesce_window < 0:
            raise ValueError("coalesce_window must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.service = MappingService(pool=pool, **service_kwargs)
        self.host = host
        self.port = port
        self.max_pending = max_pending
        self.coalesce_window = coalesce_window
        self.max_batch = max_batch
        self.max_in_flight = max_in_flight

        self._fair = FairQueue(tenant_weights, default_tenant_weight)
        self._pending = 0
        self._in_flight = 0
        self._drivers = ThreadPoolExecutor(
            max_workers=max_in_flight, thread_name_prefix="repro-serve"
        )
        self._workloads: "OrderedDict" = OrderedDict()
        self._server: Optional[asyncio.base_events.Server] = None
        self._dispatcher_task: Optional[asyncio.Task] = None
        self._execute_tasks: set = set()
        self._work_available: Optional[asyncio.Event] = None
        self._drained: Optional[asyncio.Event] = None
        self._stopped: Optional[asyncio.Event] = None
        self._stopping = False
        self._started_at = time.monotonic()
        self.address: Optional[Tuple[str, int]] = None

        self.counters: Dict[str, int] = {name: 0 for name in _COUNTER_NAMES}
        self.latency: Dict[str, LatencyHistogram] = {
            "map": LatencyHistogram(),
            "queue_wait": LatencyHistogram(),
            "execute": LatencyHistogram(),
            "stats": LatencyHistogram(),
        }
        self.recent = RollingWindow(window_s=60.0)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind, start the dispatcher, return the (host, port) bound."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._work_available = asyncio.Event()
        self._drained = asyncio.Event()
        self._drained.set()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        self._started_at = time.monotonic()
        self._dispatcher_task = asyncio.create_task(self._dispatcher())
        return self.address

    async def stop(self, *, drain: bool = True, drain_timeout: float = 30.0) -> None:
        """Stop accepting, optionally drain in-flight work, stop the drivers.

        With ``drain`` (the default) every already-admitted ticket is
        answered before the service closes; without it, queued tickets
        are abandoned after the timeout.  Idempotent — the ``shutdown``
        op and an outer supervisor may both call it.
        """
        if self._server is None or self._stopping:
            if self._stopped is not None:
                await self._stopped.wait()
            return
        self._stopping = True
        # close() stops accepting immediately.  wait_closed() is NOT
        # awaited: since 3.12 it waits for every open client connection
        # to finish, so one lingering client would wedge the shutdown.
        self._server.close()
        if drain:
            try:
                await asyncio.wait_for(self._drained.wait(), drain_timeout)
            except asyncio.TimeoutError:
                pass
        self._work_available.set()  # unblock the dispatcher for exit
        if self._dispatcher_task is not None:
            # The dispatcher flushes (or rejects) whatever is left.
            await self._dispatcher_task
            self._dispatcher_task = None
        if self._execute_tasks:
            await asyncio.gather(*self._execute_tasks, return_exceptions=True)
        # Every execute task has finished, so the drivers are idle.
        self._drivers.shutdown(wait=True)
        self._server = None
        self._stopped.set()

    async def serve_until(self, stop_event: asyncio.Event) -> None:
        """Run until *stop_event* is set (or a ``shutdown`` op lands)."""
        if self._server is None:
            await self.start()
        stop_request = asyncio.create_task(stop_event.wait())
        stopped = asyncio.create_task(self._stopped.wait())
        done, pending = await asyncio.wait(
            {stop_request, stopped}, return_when=asyncio.FIRST_COMPLETED
        )
        for task in pending:
            task.cancel()
        await self.stop(drain=True)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        write_lock = asyncio.Lock()
        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except ProtocolError as exc:
                    self.counters["protocol_errors"] += 1
                    await self._safe_reply(
                        writer, write_lock, {"id": None, "ok": False, "error": exc.as_dict()}
                    )
                    break  # framing is gone; the connection is unusable
                if frame is None:
                    break
                await self._handle_frame(frame, writer, write_lock)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_frame(self, frame, writer, write_lock) -> None:
        t0 = time.monotonic()
        if not isinstance(frame, dict):
            self.counters["bad_request"] += 1
            await self._safe_reply(
                writer,
                write_lock,
                {
                    "id": None,
                    "ok": False,
                    "error": error_payload("bad_request", "frame must be an object"),
                },
            )
            return
        op = frame.get("op")
        request_id = frame.get("id")
        if op == "ping":
            await self._safe_reply(
                writer, write_lock, {"id": request_id, "ok": True, "pong": True}
            )
        elif op == "stats":
            payload = {"id": request_id, "ok": True, "stats": self.stats_payload()}
            await self._safe_reply(writer, write_lock, payload)
            self.latency["stats"].observe(time.monotonic() - t0)
        elif op == "shutdown":
            await self._safe_reply(
                writer, write_lock, {"id": request_id, "ok": True, "stopping": True}
            )
            # Stop from a fresh task: stop() awaits this connection's
            # handler siblings, so it must not run inside one.
            asyncio.get_running_loop().create_task(self.stop(drain=True))
        elif op == "map":
            await self._admit(frame, writer, write_lock)
        else:
            self.counters["bad_request"] += 1
            await self._safe_reply(
                writer,
                write_lock,
                {
                    "id": request_id,
                    "ok": False,
                    "error": error_payload(
                        "bad_request", f"unknown op {op!r}; expected map/stats/ping/shutdown"
                    ),
                },
            )

    async def _admit(self, frame, writer, write_lock) -> None:
        request_id = frame.get("id")
        entries = frame.get("entries")
        if entries is None and isinstance(frame.get("entry"), dict):
            entries = [frame["entry"]]
        if not isinstance(entries, list) or not entries:
            self.counters["bad_request"] += 1
            await self._safe_reply(
                writer,
                write_lock,
                {
                    "id": request_id,
                    "ok": False,
                    "error": error_payload(
                        "bad_request", "'entries' must be a non-empty list"
                    ),
                },
            )
            return
        deadline = frame.get("deadline_s")
        if deadline is not None:
            try:
                deadline = float(deadline)
                if not math.isfinite(deadline):
                    raise ValueError(deadline)
            except (TypeError, ValueError):
                self.counters["bad_request"] += 1
                await self._safe_reply(
                    writer,
                    write_lock,
                    {
                        "id": request_id,
                        "ok": False,
                        "error": error_payload(
                            "bad_request", "'deadline_s' must be a finite number"
                        ),
                    },
                )
                return
        if self._stopping:
            await self._safe_reply(
                writer,
                write_lock,
                {
                    "id": request_id,
                    "ok": False,
                    "error": error_payload("shutdown", "server is draining"),
                },
            )
            return
        if self._pending >= self.max_pending:
            # Load shed: answer "no" now instead of growing the tail.
            self.counters["shed"] += 1
            await self._safe_reply(
                writer,
                write_lock,
                {
                    "id": request_id,
                    "ok": False,
                    "error": error_payload(
                        "overloaded",
                        f"request queue is full ({self._pending} pending, "
                        f"bound {self.max_pending}); retry with backoff",
                    ),
                    "queue_depth": len(self._fair),
                },
            )
            return
        tenant = frame.get("tenant") or DEFAULT_TENANT
        ticket = _Ticket(
            id=request_id,
            tenant=str(tenant),
            entries=entries,
            defaults=frame.get("defaults") or {},
            deadline_s=deadline,
            writer=writer,
            write_lock=write_lock,
        )
        self._pending += 1
        self._drained.clear()
        self.counters["accepted"] += 1
        self.recent.observe()
        self._fair.push(ticket)
        self._work_available.set()

    # ------------------------------------------------------------------
    # dispatcher: coalescing + fairness + deadline propagation
    # ------------------------------------------------------------------
    async def _dispatcher(self) -> None:
        while True:
            if not len(self._fair):
                if self._stopping:
                    return
                await self._work_available.wait()
                self._work_available.clear()
                continue
            if self.coalesce_window > 0 and not self._stopping:
                # The batching window: let concurrent compatible
                # requests pile up so the planner can dedupe them.
                await asyncio.sleep(self.coalesce_window)
            group: List[_Ticket] = []
            while len(self._fair) and len(group) < self.max_batch:
                group.append(self._fair.pop())
            if group:
                await self._dispatch(group)

    async def _dispatch(self, group: List[_Ticket]) -> None:
        loop = asyncio.get_running_loop()
        now = time.monotonic()
        seq = self.counters["dispatches"] + 1
        ready: List[_Ticket] = []
        for ticket in group:
            ticket.dispatch_seq = seq
            self.latency["queue_wait"].observe(now - ticket.arrival)
            remaining = ticket.remaining(now)
            if remaining is not None and remaining <= 0:
                self.counters["deadline_expired"] += 1
                await self._finish(
                    ticket,
                    {
                        "id": ticket.id,
                        "ok": False,
                        "error": error_payload(
                            "timeout",
                            f"deadline of {ticket.deadline_s:g}s expired "
                            "while queued",
                        ),
                    },
                )
                continue
            # Build MapRequests off the event loop: workload
            # construction (partitioning) can take tens of ms.
            try:
                ticket.requests = await loop.run_in_executor(
                    None,
                    requests_from_entries,
                    ticket.entries,
                    ticket.defaults,
                    self._workloads,
                )
            except Exception as exc:
                # Whatever one ticket's entries raise, only that ticket
                # fails: the dispatcher keeps serving the others.
                error = (
                    exc.as_dict()
                    if isinstance(exc, ProtocolError)
                    else error_payload(
                        "bad_request", str(exc), exception=type(exc).__name__
                    )
                )
                self.counters["bad_request"] += 1
                await self._finish(ticket, {"id": ticket.id, "ok": False, "error": error})
                continue
            ready.append(ticket)
        while len(self._workloads) > WORKLOAD_LIMIT:
            self._workloads.popitem(last=False)
        if not ready:
            return
        self.counters["dispatches"] += 1
        self.counters["dispatched_requests"] += len(ready)
        if len(ready) > 1:
            self.counters["coalesced_requests"] += len(ready)
        # The merged batch runs under the tightest member deadline; the
        # window is short, so co-batched slack rarely differs by much —
        # PERFORMANCE.md documents the trade-off.
        timeouts = [self.service.config.node_timeout]
        timeouts += [t.remaining(now) for t in ready]
        effective = min((t for t in timeouts if t is not None), default=None)
        # Execute as a task so the dispatcher keeps draining the queue;
        # the driver executor's width bounds concurrent plans.
        task = asyncio.get_running_loop().create_task(
            self._execute(ready, effective, len(ready))
        )
        self._execute_tasks.add(task)
        task.add_done_callback(self._execute_tasks.discard)

    async def _execute(
        self, group: List[_Ticket], node_timeout: Optional[float], coalesced: int
    ) -> None:
        merged = [req for ticket in group for req in ticket.requests]
        t0 = time.monotonic()
        try:
            config = replace(
                self.service.config, node_timeout=node_timeout, on_error="partial"
            )
            responses = await self._run_plan(merged, config)
        except Exception as exc:
            # Every ticket of the group is answered whatever went wrong:
            # an unanswered ticket would hold its admission slot forever.
            err = error_payload("error", str(exc), exception=type(exc).__name__)
            for ticket in group:
                await self._finish(ticket, {"id": ticket.id, "ok": False, "error": err})
            return
        elapsed = time.monotonic() - t0
        self.latency["execute"].observe(elapsed)
        # Responses return in request order, algorithms in declared
        # order — split them back per ticket positionally.
        cursor = 0
        for ticket in group:
            count = sum(len(req.algorithms) for req in ticket.requests)
            slice_ = responses[cursor : cursor + count]
            cursor += count
            results = [response_payload(r) for r in slice_]
            self.counters["result_errors"] += sum(1 for r in slice_ if not r.ok)
            await self._finish(
                ticket,
                {
                    "id": ticket.id,
                    "ok": True,
                    "results": results,
                    "elapsed_s": elapsed,
                    "coalesced": coalesced,
                    "dispatch": ticket.dispatch_seq,
                },
            )

    async def _run_plan(self, requests, config):
        """``service.map_batch`` on a driver thread, counted in flight."""
        self._in_flight += 1
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self._drivers, partial(self.service.map_batch, requests, config=config)
            )
        finally:
            self._in_flight -= 1

    async def _finish(self, ticket: _Ticket, payload: dict) -> None:
        await self._safe_reply(ticket.writer, ticket.write_lock, payload)
        self.latency["map"].observe(time.monotonic() - ticket.arrival)
        self.counters["completed"] += 1
        self._pending -= 1
        if self._pending == 0:
            self._drained.set()

    @staticmethod
    async def _safe_reply(writer, write_lock, payload) -> None:
        """Write one frame; a vanished client must not kill the server.

        A reply too large for one frame (a result or error echoing a huge
        client field) is answered with that encoding error instead.
        """
        try:
            frame = encode_frame(payload)
        except ProtocolError as exc:
            frame = encode_frame(
                {"id": payload.get("id"), "ok": False, "error": exc.as_dict()}
            )
        try:
            async with write_lock:
                writer.write(frame)
                await writer.drain()
        except (ConnectionError, OSError, RuntimeError):
            pass

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats_payload(self) -> dict:
        """The ``stats`` op's JSON object (also the CLI's payload).

        One self-describing snapshot: server config, queue state,
        lifetime counters, per-endpoint latency percentiles, pool
        health and artifact-cache statistics.
        """
        dispatches = self.counters["dispatches"]
        return {
            "server": {
                "listening": list(self.address) if self.address else None,
                "uptime_s": time.monotonic() - self._started_at,
                "max_pending": self.max_pending,
                "coalesce_window_s": self.coalesce_window,
                "max_batch": self.max_batch,
                "in_flight": self._in_flight,
                "max_in_flight": self.max_in_flight,
                "stopping": self._stopping,
            },
            "queue": {
                "pending": self._pending,
                "depth": len(self._fair),
                "tenants": self._fair.depths(),
                "recent_rps": self.recent.rate(),
            },
            "counters": dict(self.counters),
            "coalesce": {
                "dispatches": dispatches,
                "dispatched_requests": self.counters["dispatched_requests"],
                "coalesced_requests": self.counters["coalesced_requests"],
                "mean_batch": (
                    self.counters["dispatched_requests"] / dispatches
                    if dispatches
                    else 0.0
                ),
            },
            "latency": {name: h.summary() for name, h in self.latency.items()},
            "pool": self.service.pool.stats() if self.service.pool is not None else None,
            "cache": {ns: s.as_dict() for ns, s in self.service.cache.stats().items()},
        }


class ThreadedServer:
    """A :class:`MappingServer` on a private loop thread (tests, tools).

    The asyncio server needs a running loop; blocking callers (pytest,
    the load generator's client threads) get one here::

        with ThreadedServer(max_pending=8) as ts:
            client = ServeClient(*ts.address)

    ``__exit__`` drains and stops the server and joins the thread.
    """

    def __init__(self, **server_kwargs) -> None:
        self._kwargs = server_kwargs
        self.server: Optional[MappingServer] = None
        self.address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surface startup failures to main
            self._failure = exc
            self._ready.set()

    async def _amain(self) -> None:
        self.server = MappingServer(**self._kwargs)
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.address = await self.server.start()
        self._ready.set()
        await self.server.serve_until(self._stop)

    def start(self) -> "ThreadedServer":
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._failure is not None:
            raise RuntimeError("server failed to start") from self._failure
        if self.address is None:
            raise RuntimeError("server did not report an address in time")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed (e.g. shutdown op)
        self._thread.join(timeout=60)

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
