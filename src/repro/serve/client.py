"""Blocking client for the mapping server's length-prefixed protocol.

The server side is asyncio; most callers (tests, the benchmark's
``serve`` workload, shell tooling) are plain threads, so the client is
deliberately synchronous — one socket, one outstanding request per
call, responses matched by id.  The server relies on that: once every
open connection awaits a reply, it closes its coalescing window.
Concurrency is achieved the obvious way: one :class:`ServeClient` per
thread.

Quickstart::

    with ServeClient("127.0.0.1", 8765, tenant="ci") as client:
        reply = client.map([{"matrix": "cage12_like", "algos": "UG,UWH"}])
        if reply["ok"]:
            for result in reply["results"]:
                print(result["algorithm"], result["metrics"]["wh"])
        stats = client.stats()
        print(stats["latency"]["map"])
"""

from __future__ import annotations

import socket
from itertools import count
from typing import Any, Dict, List, Optional

from repro.serve.protocol import ProtocolError, recv_frame, send_frame

__all__ = ["ServeClient", "ServerClosedError"]


class ServerClosedError(ConnectionError):
    """The server closed the connection before answering."""


class ServeClient:
    """One blocking connection to a :class:`~repro.serve.server.MappingServer`.

    Parameters
    ----------
    host / port:
        Server address (``address`` of a started server).
    tenant:
        Default tenant label stamped on ``map`` requests (individual
        calls may override).  ``None`` lets the server bucket the
        connection under its default tenant.
    timeout:
        Socket timeout in seconds for connect and replies (``None`` =
        block forever).  Mapping runs can be slow; size it generously
        or per call via :meth:`map`'s ``reply_timeout``.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        tenant: Optional[str] = None,
        timeout: Optional[float] = 60.0,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.tenant = tenant
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._ids = count(1)

    # ------------------------------------------------------------------
    def connect(self) -> "ServeClient":
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServeClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def request(
        self, frame: Dict[str, Any], *, reply_timeout: Optional[float] = -1
    ) -> dict:
        """Send one op frame and block for its matching reply.

        ``reply_timeout`` overrides the connection timeout for this
        wait (``-1`` keeps the default, ``None`` blocks forever).
        """
        self.connect()
        request_id = frame.get("id")
        if request_id is None:
            request_id = frame["id"] = next(self._ids)
        send_frame(self._sock, frame)
        if reply_timeout != -1:
            self._sock.settimeout(reply_timeout)
        try:
            while True:
                reply = recv_frame(self._sock)
                if reply is None:
                    raise ServerClosedError(
                        "server closed the connection before replying"
                    )
                # Protocol-level rejections for unparseable frames come
                # back with id None; everything else echoes our id.
                if reply.get("id") in (request_id, None):
                    return reply
        finally:
            if reply_timeout != -1:
                self._sock.settimeout(self.timeout)

    # ------------------------------------------------------------------
    def map(
        self,
        entries: List[dict],
        *,
        tenant: Optional[str] = None,
        deadline_s: Optional[float] = None,
        defaults: Optional[dict] = None,
        reply_timeout: Optional[float] = -1,
    ) -> dict:
        """Submit manifest-style *entries*; returns the reply payload.

        The reply is ``{"id", "ok": True, "results": [...], "elapsed_s",
        "coalesced", "dispatch"}`` on success, or ``{"ok": False,
        "error": {kind, message, ...}}`` when the request was shed
        (``overloaded``), expired (``timeout``), malformed
        (``bad_request``) or refused during drain (``shutdown``).
        Per-result errors (a failed algorithm run) appear inside
        ``results`` with their own ``ok``/``error`` fields.
        """
        frame: Dict[str, Any] = {"op": "map", "entries": list(entries)}
        effective_tenant = tenant if tenant is not None else self.tenant
        if effective_tenant is not None:
            frame["tenant"] = effective_tenant
        if deadline_s is not None:
            frame["deadline_s"] = float(deadline_s)
        if defaults:
            frame["defaults"] = dict(defaults)
        return self.request(frame, reply_timeout=reply_timeout)

    def stats(self) -> dict:
        """The server's observability snapshot (``stats`` op)."""
        reply = self.request({"op": "stats"})
        if not reply.get("ok"):
            raise ProtocolError(
                f"stats op rejected: {reply.get('error')}", kind="bad_request"
            )
        return reply["stats"]

    def ping(self) -> bool:
        try:
            return bool(self.request({"op": "ping"}).get("pong"))
        except (ConnectionError, OSError):
            return False

    def shutdown(self) -> dict:
        """Ask the server to drain and exit (``shutdown`` op)."""
        return self.request({"op": "shutdown"})
