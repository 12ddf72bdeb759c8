"""Shard host — executes individual plan nodes for a remote coordinator.

``HostServer`` (the process behind ``repro-map shard-serve``) owns a
:class:`~repro.api.service.MappingService` whose cache layers over a
:class:`~repro.api.shm.TieredArtifactStore` with the cluster's remote
store underneath, so

* batch request payloads published by the coordinator are read through
  the remote tier and promoted into host-local shm/memory,
* shared artifacts this host computes (groupings, DEF baselines, route
  tables) replicate to the remote store, where sibling hosts' reads
  find them, and
* everything this host computes twice is a cache hit the second time,
  exactly as on a single host.

The wire protocol reuses the serve layer's JSON framing plus binary
blobs.  Ops: ``hello`` (identity + capacity), ``run_node`` (execute one
plan node; grouping nodes answer with JSON timings, algo nodes with an
encoded :class:`~repro.api.request.MapResponse` blob, failures with the
engine's :class:`~repro.api.fault.PlanError` shape), ``stats`` and
``shutdown``.  One node runs per connection-handler thread; the
client opens one connection per in-flight slot, so a host's concurrency
equals the coordinator's view of its capacity.

With ``backend="process"`` the host drives a local
:class:`~repro.api.pool.ExecutorPool` instead of running nodes inline —
the coordinator is then literally driving remote ``ExecutorPool``\\ s —
and the pool's workers rebuild the same remote-tiered store from
initargs.

``HostClient`` is the coordinator-side counterpart: ``submit`` returns
a ``concurrent.futures.Future`` executed on a per-host thread pool
(one thread ↔ one connection ↔ one in-flight node).  A broken socket
surfaces as :class:`HostLostError`, the signal the coordinator's
retry-on-host-loss rerouting keys off.

For deterministic chaos tests, :meth:`HostServer.arm_kill` makes the
host *die* — close its listener and every live connection without
replying — the moment it is asked to run a node whose request carries
an armed tag, emulating a mid-batch host crash without needing a real
subprocess.
"""

from __future__ import annotations

import os
import socket
import socketserver
import tempfile
import threading
import uuid
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Dict, Optional, Set, Tuple

from repro.api.store import decode_artifact_bytes, encode_artifact_bytes, make_store
from repro.serve.protocol import (
    parse_address,
    recv_blob,
    recv_frame,
    send_blob,
    send_frame,
)

__all__ = ["HostServer", "HostClient", "HostLostError", "RemoteNodeError"]

#: Decoded batch payloads kept per host (mirrors the pool workers').
_BATCH_LIMIT = 4

_OP_TIMEOUT = 300.0


class HostLostError(ConnectionError):
    """The shard host's connection died (crash, kill, network loss)."""

    #: The :class:`~repro.api.fault.PlanError` kind a node gets when it
    #: runs out of attempts this way.
    plan_error_kind = "host_lost"

    def __init__(self, host: str, message: str = "") -> None:
        super().__init__(message or f"shard host {host} lost")
        self.host = host


class RemoteNodeError(RuntimeError):
    """A node raised *on the host*; carries the PlanError-shaped dict."""

    def __init__(self, error: dict) -> None:
        super().__init__(error.get("message", "remote node failed"))
        self.error = dict(error)
        # The host-side failure, reported as if the node had raised here.
        self.plan_error_kind = self.error.get("kind", "error")
        self.plan_error_exception = self.error.get("exception") or type(self).__name__


class _HostHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        server: "HostServer" = self.server.owner  # type: ignore[attr-defined]
        sock = self.request
        sock.settimeout(_OP_TIMEOUT)
        server._track(sock, add=True)
        try:
            while True:
                try:
                    frame = recv_frame(sock)
                except Exception:
                    return
                if frame is None:
                    return
                try:
                    stop = server.handle_op(sock, frame)
                except Exception:
                    return
                if stop:
                    return
        finally:
            server._track(sock, add=False)


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class HostServer:
    """One shard host: a mapping service fronted by the node protocol.

    Parameters
    ----------
    address:
        ``(host, port)`` or ``"host:port"`` to bind (port 0 = ephemeral).
    store_remote:
        Address of the cluster's ``store-serve`` process; layered under
        this host's local store tiers.  ``None`` runs store-less
        cross-host sharing (each host still correct, nothing shared).
    store_dir:
        Local store root (default: a private temp directory).
    store_tier:
        Local tier policy (``auto``/``shm``/``disk``).
    capacity:
        Concurrent nodes this host advertises (default: CPU count).
    backend:
        ``"inline"`` executes nodes in the handler thread against the
        host's own service; ``"process"`` drives a local
        :class:`~repro.api.pool.ExecutorPool` of that capacity.
    host_id:
        Stable identity reported by ``hello`` (default: pid-derived).
    """

    def __init__(
        self,
        address=("127.0.0.1", 0),
        *,
        store_remote: Optional[str] = None,
        store_dir: Optional[str] = None,
        store_tier: str = "auto",
        capacity: Optional[int] = None,
        backend: str = "inline",
        host_id: Optional[str] = None,
        cache_entries: Optional[int] = None,
        cache_bytes: Optional[int] = None,
        kernel_backend: Optional[str] = None,
    ) -> None:
        from repro.api.cache import ArtifactCache
        from repro.api.executor import default_workers
        from repro.api.service import MappingService

        if backend not in ("inline", "process"):
            raise ValueError("HostServer backend must be 'inline' or 'process'")
        self.host_id = host_id or f"host-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self.capacity = int(capacity) if capacity else default_workers()
        self.backend = backend
        self.store_remote = store_remote
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if store_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-host-")
            store_dir = self._tmp.name
        self.pool = None
        if backend == "process":
            from repro.api.pool import ExecutorPool

            self.pool = ExecutorPool(
                "process",
                workers=self.capacity,
                store_dir=store_dir,
                store_tier=store_tier,
                store_remote=store_remote,
                kernel_backend=kernel_backend,
            )
            self.store = self.pool.store
            self.service = None
        else:
            self.store = make_store(
                store_dir, tier=store_tier, owner=True, remote=store_remote
            )
            cache = ArtifactCache(
                max_entries=cache_entries,
                max_bytes=cache_bytes,
                store=self.store,
            )
            cache.enable_concurrency()  # handler threads share the cache
            self.service = MappingService(cache=cache)

        self._lock = threading.Lock()
        self._connections: Set[socket.socket] = set()
        self._batches: "OrderedDict[str, tuple]" = OrderedDict()
        self._kill_tags: Set[str] = set()
        self._dead = False
        self._stopped = False
        self._counters = {
            "nodes_run": 0,
            "groupings_computed": 0,
            "node_errors": 0,
        }
        self._server = _Server(parse_address(address), _HostHandler)
        self._server.owner = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def start(self) -> "HostServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name=f"repro-shard-{self.host_id}",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._server.serve_forever(poll_interval=0.1)

    def stop(self) -> None:
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            self._dead = True
        self._server.shutdown()
        try:
            self._server.server_close()
        except OSError:
            pass  # already closed by a simulated death
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self.pool is not None:
            self.pool.close()
        elif self.store is not None and hasattr(self.store, "close"):
            self.store.close()
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    # -- chaos ----------------------------------------------------------
    def arm_kill(self, tag: str) -> None:
        """Die abruptly when asked to run a node whose request has *tag*."""
        self._kill_tags.add(tag)

    def _die(self) -> None:
        """Emulate a host crash: every socket closes without a reply."""
        with self._lock:
            self._dead = True
            conns = list(self._connections)
        try:
            self._server.server_close()  # listener gone: no new connections
        except OSError:
            pass
        for sock in conns:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        threading.Thread(target=self._server.shutdown, daemon=True).start()

    def _track(self, sock, *, add: bool) -> None:
        with self._lock:
            if add:
                self._connections.add(sock)
            else:
                self._connections.discard(sock)

    # -- ops ------------------------------------------------------------
    def handle_op(self, sock, frame: dict) -> bool:
        op = frame.get("op")
        if op == "run_node":
            return self._op_run_node(sock, frame)
        if op == "hello":
            send_frame(
                sock,
                {
                    "ok": True,
                    "host_id": self.host_id,
                    "capacity": self.capacity,
                    "backend": self.backend,
                },
            )
        elif op == "stats":
            send_frame(sock, {"ok": True, "stats": self.stats()})
        elif op == "shutdown":
            send_frame(sock, {"ok": True})
            threading.Thread(target=self.stop, daemon=True).start()
            return True
        else:
            send_frame(sock, {"ok": False, "error": f"unknown op {op!r}"})
        return False

    def _op_run_node(self, sock, frame: dict) -> bool:
        batch_key = frame["batch_key"]
        request_index = int(frame["request_index"])
        kind = frame["kind"]
        algorithm = frame.get("algorithm")
        try:
            request = self._request(batch_key, request_index)
            if request.tag is not None and str(request.tag) in self._kill_tags:
                self._die()
                return True  # no reply: the client sees a dead socket
            if self.pool is not None:
                from repro.api.pool import _persistent_run_node

                result = self.pool.submit(
                    _persistent_run_node, batch_key, request_index, kind, algorithm
                ).result()
            else:
                from repro.api.executor import run_plan_node

                result = run_plan_node(self.service, request, kind, algorithm)
        except Exception as exc:
            with self._lock:
                self._counters["node_errors"] += 1
            send_frame(
                sock,
                {
                    "ok": False,
                    "error": {
                        "kind": "error",
                        "message": str(exc) or type(exc).__name__,
                        "exception": type(exc).__name__,
                        "attempts": 1,
                        "node": f"{kind}:{algorithm or ''}",
                    },
                },
            )
            return False
        with self._lock:
            self._counters["nodes_run"] += 1
        if kind == "grouping":
            elapsed, computed = result
            if computed:
                with self._lock:
                    self._counters["groupings_computed"] += 1
            send_frame(
                sock,
                {
                    "ok": True,
                    "kind": "grouping",
                    "elapsed": float(elapsed),
                    "computed": bool(computed),
                },
            )
        else:
            blob = encode_artifact_bytes(("response", batch_key, frame["node"]), result)
            send_frame(sock, {"ok": True, "kind": "algo"})
            send_blob(sock, blob)
        return False

    def _request(self, batch_key: str, request_index: int):
        with self._lock:
            requests = self._batches.get(batch_key)
            if requests is not None:
                self._batches.move_to_end(batch_key)
        if requests is None:
            requests = self.store.load("batch", batch_key)
            if requests is None:
                raise RuntimeError(
                    f"batch payload {batch_key!r} not found in any store tier"
                )
            with self._lock:
                self._batches[batch_key] = requests
                while len(self._batches) > _BATCH_LIMIT:
                    self._batches.popitem(last=False)
        return requests[request_index]

    def stats(self) -> dict:
        with self._lock:
            counters = dict(self._counters)
        payload: Dict[str, Any] = {
            "host_id": self.host_id,
            "capacity": self.capacity,
            "backend": self.backend,
            **counters,
        }
        if self.service is not None:
            payload["cache"] = {
                ns: {
                    "hits": s.hits,
                    "misses": s.misses,
                    "store_hits": s.store_hits,
                }
                for ns, s in self.service.cache.stats().items()
            }
        if self.store is not None and hasattr(self.store, "stats"):
            try:
                payload["store"] = self.store.stats()
            except Exception:
                payload["store"] = None  # post-shutdown snapshot
        return payload


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


class HostClient:
    """Future-returning client for one shard host.

    ``submit`` schedules the node on a thread pool sized to the host's
    advertised capacity; each pool thread keeps its own connection, so
    in-flight nodes stream concurrently and a host never sees more
    parallel work than it asked for.
    """

    def __init__(self, address, *, timeout: float = _OP_TIMEOUT) -> None:
        self.address = parse_address(address)
        self.name = f"{self.address[0]}:{self.address[1]}"
        self.timeout = timeout
        self.host_id: Optional[str] = None
        self.capacity = 1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._sockets: Set[socket.socket] = set()
        self._executor: Optional[ThreadPoolExecutor] = None
        self.dead = False

    # -- connection per thread ------------------------------------------
    def _connect(self) -> socket.socket:
        sock = socket.create_connection(self.address, timeout=5.0)
        sock.settimeout(self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._lock:
            self._sockets.add(sock)
        return sock

    def _sock(self) -> socket.socket:
        sock = getattr(self._local, "sock", None)
        if sock is None:
            sock = self._connect()
            self._local.sock = sock
        return sock

    def _drop_sock(self) -> None:
        sock = getattr(self._local, "sock", None)
        if sock is not None:
            with self._lock:
                self._sockets.discard(sock)
            try:
                sock.close()
            except OSError:
                pass
            self._local.sock = None

    def _call(self, frame: dict) -> Tuple[dict, Optional[bytes]]:
        if self.dead:
            raise HostLostError(self.name)
        try:
            sock = self._sock()
            send_frame(sock, frame)
            reply = recv_frame(sock)
            if reply is None:
                raise ConnectionError("host closed the connection")
            blob = None
            if reply.get("ok") and reply.get("kind") == "algo":
                blob = recv_blob(sock)
            return reply, blob
        except RemoteNodeError:
            raise
        except Exception as exc:
            self._drop_sock()
            self.dead = True
            raise HostLostError(self.name, f"{self.name}: {exc}") from exc

    # -- public ops -----------------------------------------------------
    def hello(self) -> dict:
        """Handshake; raises :class:`HostLostError` when unreachable.

        Also sizes the submit pool to the host's advertised capacity.
        """
        reply, _ = self._call({"op": "hello"})
        if not reply.get("ok"):
            raise HostLostError(self.name, str(reply.get("error")))
        self.host_id = reply.get("host_id")
        self.capacity = max(1, int(reply.get("capacity", 1)))
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.capacity,
                thread_name_prefix=f"repro-dist-{self.name}",
            )
        return reply

    def submit(
        self,
        batch_key: str,
        node_index: int,
        request_index: int,
        kind: str,
        algorithm: Optional[str],
    ) -> Future:
        """Run one plan node on the host; resolves to the node outcome.

        Grouping nodes resolve to ``(elapsed, computed)``; algo nodes to
        a :class:`~repro.api.request.MapResponse`.  The future raises
        :class:`RemoteNodeError` when the node failed on the host and
        :class:`HostLostError` when the host itself is gone.
        """
        if self._executor is None:
            self.hello()

        def run():
            reply, blob = self._call(
                {
                    "op": "run_node",
                    "batch_key": batch_key,
                    "node": node_index,
                    "request_index": request_index,
                    "kind": kind,
                    "algorithm": algorithm,
                }
            )
            if not reply.get("ok"):
                raise RemoteNodeError(reply.get("error") or {})
            if reply.get("kind") == "grouping":
                return (float(reply["elapsed"]), bool(reply["computed"]))
            value = decode_artifact_bytes(
                ("response", batch_key, node_index), blob, default=None
            )
            if value is None:
                raise HostLostError(
                    self.name, f"{self.name}: undecodable node response"
                )
            return value

        return self._executor.submit(run)

    def request_stats(self) -> dict:
        reply, _ = self._call({"op": "stats"})
        return reply.get("stats", {})

    def shutdown_host(self) -> None:
        try:
            self._call({"op": "shutdown"})
        except HostLostError:
            pass

    def close(self) -> None:
        self.dead = True
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        with self._lock:
            socks = list(self._sockets)
            self._sockets.clear()
        for sock in socks:
            try:
                sock.close()
            except OSError:
                pass
