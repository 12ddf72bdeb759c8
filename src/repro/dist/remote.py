"""Remote artifact store — the content-addressed surface over TCP.

``ArtifactStoreServer`` fronts one directory with a thin
length-prefixed object protocol (the serve layer's JSON framing plus
binary blobs for artifact bytes), and :class:`RemoteArtifactStore` is
the client-side :class:`~repro.api.store.ArtifactStore` implementation.

The wire format *is* the disk format: clients serialize artifacts with
:func:`~repro.api.store.encode_artifact_bytes` (exactly the bytes a
:class:`~repro.api.store.DiskArtifactStore` would write) and address
them with :func:`~repro.api.store.artifact_digest` (exactly the
filename stem the disk store uses), so the server stores opaque blobs
at ``<root>/<namespace>/<digest>.npz`` via the same temp-file +
``os.replace`` dance — a disk store opened over the server's root sees
the same artifacts, and vice versa.  The server never deserializes
anything: corruption tolerance, key verification and codec versioning
all stay client-side, where they already live.

Failure model
-------------
Construction pings the server and **raises** on failure (a
misconfigured ``--store-remote`` should fail fast).  After that the
client degrades instead of raising: a dead server turns ``load`` into
a miss, ``save`` into a dropped replication and ``contains`` into
False, each counted under ``stats()["errors"]`` — the remote tier is
an optimization layer under :class:`~repro.api.shm.TieredArtifactStore`
and must never take a healthy host down with it.

One connection per client thread (kept in ``threading.local``), so a
host's worker threads stream artifacts concurrently without a shared
socket lock.
"""

from __future__ import annotations

import contextlib
import os
import socket
import socketserver
import tempfile
import threading
from typing import Any, Hashable, Optional, Tuple

from repro.api.store import (
    DEFAULT_PERSIST_NAMESPACES,
    ArtifactStore,
    artifact_digest,
    decode_artifact_bytes,
    encode_artifact_bytes,
)
from repro.serve.protocol import (
    parse_address,
    recv_blob,
    recv_frame,
    send_blob,
    send_frame,
)

__all__ = [
    "ArtifactStoreServer",
    "RemoteArtifactStore",
    "RemoteStoreError",
]

#: Socket timeout (seconds) for one client op; generous — an op is one
#: round trip plus at most one artifact-sized blob each way.
_OP_TIMEOUT = 120.0

_MISSING = object()


class RemoteStoreError(ConnectionError):
    """The store server is unreachable or the conversation broke."""


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------


class _StoreHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:  # one connection: a loop of ops until EOF
        server: "ArtifactStoreServer" = self.server.owner  # type: ignore[attr-defined]
        sock = self.request
        sock.settimeout(_OP_TIMEOUT)
        with server._track(sock):
            while True:
                try:
                    frame = recv_frame(sock)
                except Exception:
                    return  # torn conversation: drop the connection
                if frame is None:
                    return  # clean EOF
                try:
                    stop = server.handle_op(sock, frame)
                except Exception:
                    return
                if stop:
                    return


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class ArtifactStoreServer:
    """Serves one directory of content-addressed artifacts over TCP.

    Ops (JSON control frame, blob where noted):

    ========  =============================================  =============
    op        request fields                                 reply
    ========  =============================================  =============
    ping      —                                              ``{ok, root}``
    save      ``ns, digest, force`` + blob                   ``{ok, skipped}``
    load      ``ns, digest``                                 ``{ok, found}`` + blob if found
    contains  ``ns, digest``                                 ``{ok, found}``
    delete    ``ns, digest``                                 ``{ok, removed}``
    stats     —                                              ``{ok, stats}``
    sweep     ``min_age_s``                                  ``{ok, removed}``
    clear     ``ns?``                                        ``{ok, removed}``
    count     ``ns?``                                        ``{ok, count}``
    ========  =============================================  =============

    Digest strings are sanitized against path escapes; everything else
    is opaque bytes.  Thread-per-connection; writes are atomic
    (temp + rename) so concurrent savers of one digest are safe.
    """

    def __init__(self, root: str, address=("127.0.0.1", 0)) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.Lock()
        self._counters = {
            "saves": 0,
            "save_skips": 0,
            "loads": 0,
            "load_hits": 0,
            "bytes_in": 0,
            "bytes_out": 0,
        }
        self._server = _Server(parse_address(address), _StoreHandler)
        self._server.owner = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._conns: set = set()

    @contextlib.contextmanager
    def _track(self, sock):
        """Register a live connection so :meth:`stop` can sever it."""
        with self._lock:
            self._conns.add(sock)
        try:
            yield
        finally:
            with self._lock:
                self._conns.discard(sock)

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def start(self) -> "ArtifactStoreServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-store-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._server.serve_forever(poll_interval=0.1)

    def stats(self) -> dict:
        """Server-side op counters (saves/loads/hits/skips and bytes)."""
        with self._lock:
            return dict(self._counters)

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        with self._lock:
            conns = list(self._conns)
        for sock in conns:  # sever live conversations, not just the listener
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # -- op dispatch ----------------------------------------------------
    def _path(self, namespace: str, digest: str) -> str:
        ns = os.path.basename(str(namespace))
        stem = os.path.basename(str(digest))
        if not ns or not stem:
            raise ValueError("empty namespace or digest")
        return os.path.join(self.root, ns, f"{stem}.npz")

    def _bump(self, counter: str, by: int = 1) -> None:
        with self._lock:
            self._counters[counter] += by

    def handle_op(self, sock, frame: dict) -> bool:
        """Execute one op; returns True when the connection should end."""
        op = frame.get("op")
        if op == "save":
            # The blob always follows the control frame — receive it
            # even if the target exists, to keep the stream in sync.
            data = recv_blob(sock)
            path = self._path(frame["ns"], frame["digest"])
            if not frame.get("force") and os.path.exists(path):
                self._bump("save_skips")
                send_frame(sock, {"ok": True, "skipped": True})
                return False
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                suffix=".npz.tmp", dir=os.path.dirname(path)
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
            self._bump("saves")
            self._bump("bytes_in", len(data))
            send_frame(sock, {"ok": True, "skipped": False})
        elif op == "load":
            self._bump("loads")
            path = self._path(frame["ns"], frame["digest"])
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError:
                send_frame(sock, {"ok": True, "found": False})
                return False
            self._bump("load_hits")
            self._bump("bytes_out", len(data))
            send_frame(sock, {"ok": True, "found": True})
            send_blob(sock, data)
        elif op == "contains":
            path = self._path(frame["ns"], frame["digest"])
            send_frame(sock, {"ok": True, "found": os.path.exists(path)})
        elif op == "delete":
            path = self._path(frame["ns"], frame["digest"])
            try:
                os.unlink(path)
                removed = True
            except OSError:
                removed = False
            send_frame(sock, {"ok": True, "removed": removed})
        elif op == "ping":
            send_frame(sock, {"ok": True, "root": self.root})
        elif op == "stats":
            with self._lock:
                counters = dict(self._counters)
            send_frame(sock, {"ok": True, "stats": counters})
        elif op == "sweep":
            removed = self._sweep(float(frame.get("min_age_s", 300.0)))
            send_frame(sock, {"ok": True, "removed": removed})
        elif op == "clear":
            removed = self._clear(frame.get("ns"))
            send_frame(sock, {"ok": True, "removed": removed})
        elif op == "count":
            send_frame(sock, {"ok": True, "count": self._count(frame.get("ns"))})
        else:
            send_frame(sock, {"ok": False, "error": f"unknown op {op!r}"})
        return False

    # -- maintenance (server-side mirrors of the disk store's) ----------
    def _namespace_dirs(self, namespace: Optional[str]):
        if namespace is not None:
            return [os.path.basename(str(namespace))]
        try:
            return [
                n
                for n in os.listdir(self.root)
                if os.path.isdir(os.path.join(self.root, n))
            ]
        except OSError:
            return []

    def _sweep(self, min_age_s: float) -> int:
        import time

        removed = 0
        cutoff = time.time() - min_age_s
        for ns in self._namespace_dirs(None):
            directory = os.path.join(self.root, ns)
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                if not name.endswith(".tmp"):
                    continue
                path = os.path.join(directory, name)
                try:
                    if os.path.getmtime(path) <= cutoff:
                        os.unlink(path)
                        removed += 1
                except OSError:
                    pass
        return removed

    def _clear(self, namespace: Optional[str]) -> int:
        removed = 0
        for ns in self._namespace_dirs(namespace):
            directory = os.path.join(self.root, ns)
            if not os.path.isdir(directory):
                continue
            for name in os.listdir(directory):
                if name.endswith(".npz") or name.endswith(".tmp"):
                    try:
                        os.unlink(os.path.join(directory, name))
                    except OSError:
                        continue
                    if name.endswith(".npz"):
                        removed += 1
        return removed

    def _count(self, namespace: Optional[str]) -> int:
        total = 0
        for ns in self._namespace_dirs(namespace):
            directory = os.path.join(self.root, ns)
            if os.path.isdir(directory):
                total += sum(
                    1 for n in os.listdir(directory) if n.endswith(".npz")
                )
        return total


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


class RemoteArtifactStore(ArtifactStore):
    """Client half: the :class:`ArtifactStore` surface over one server.

    See the module docstring for the failure model — constructor pings
    and raises, runtime ops degrade to misses and count ``errors``.
    """

    tier = "remote"

    def __init__(
        self,
        address,
        *,
        namespaces: frozenset = DEFAULT_PERSIST_NAMESPACES,
        timeout: float = _OP_TIMEOUT,
        connect_timeout: float = 5.0,
    ) -> None:
        self.address = parse_address(address)
        self.namespaces = frozenset(namespaces)
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.root = f"remote://{self.address[0]}:{self.address[1]}"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counters = {
            "saves": 0,
            "save_skips": 0,
            "loads": 0,
            "load_hits": 0,
            "errors": 0,
        }
        self._closed = False
        self.ping()  # fail fast on a misconfigured address

    # -- connection management ------------------------------------------
    def _connect(self) -> socket.socket:
        sock = socket.create_connection(self.address, timeout=self.connect_timeout)
        sock.settimeout(self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
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
            try:
                sock.close()
            except OSError:
                pass
            self._local.sock = None

    def _call(self, frame: dict, blob: Optional[bytes] = None) -> dict:
        """One request/response op; retries a broken *idle* connection
        once (the server may have dropped it between ops)."""
        if self._closed:
            raise RemoteStoreError("remote store client is closed")
        for attempt in (0, 1):
            fresh = getattr(self._local, "sock", None) is None
            try:
                sock = self._sock()
                send_frame(sock, frame)
                if blob is not None:
                    send_blob(sock, blob)
                reply = recv_frame(sock)
                if reply is None:
                    raise RemoteStoreError("server closed the connection")
                if not reply.get("ok"):
                    raise RemoteStoreError(str(reply.get("error", "rejected")))
                if reply.get("found") and frame.get("op") == "load":
                    reply["blob"] = recv_blob(sock)
                return reply
            except RemoteStoreError:
                self._drop_sock()
                raise
            except Exception as exc:
                self._drop_sock()
                if fresh or attempt:
                    raise RemoteStoreError(
                        f"store server {self.address[0]}:{self.address[1]} "
                        f"unreachable: {exc}"
                    ) from exc
        raise AssertionError("unreachable")  # pragma: no cover

    def _bump(self, counter: str, by: int = 1) -> None:
        with self._lock:
            self._counters[counter] += by

    # -- ArtifactStore surface ------------------------------------------
    def ping(self) -> dict:
        """Round-trip probe; raises :class:`RemoteStoreError` when down."""
        return self._call({"op": "ping"})

    def save(
        self, namespace: str, key: Hashable, value: Any, *, force: bool = False
    ) -> bool:
        """Ship the encoded artifact; False when skipped *or* dropped."""
        try:
            data = encode_artifact_bytes(key, value)
            reply = self._call(
                {
                    "op": "save",
                    "ns": namespace,
                    "digest": artifact_digest(namespace, key),
                    "force": bool(force),
                },
                blob=data,
            )
        except Exception:
            self._bump("errors")
            return False
        if reply.get("skipped"):
            self._bump("save_skips")
            return False
        self._bump("saves")
        return True

    def load(self, namespace: str, key: Hashable, default: Any = None) -> Any:
        self._bump("loads")
        try:
            reply = self._call(
                {
                    "op": "load",
                    "ns": namespace,
                    "digest": artifact_digest(namespace, key),
                }
            )
        except Exception:
            self._bump("errors")
            return default
        if not reply.get("found"):
            return default
        value = decode_artifact_bytes(key, reply["blob"], default=_MISSING)
        if value is _MISSING:
            return default  # corrupt/foreign bytes read as a miss
        self._bump("load_hits")
        return value

    def contains(self, namespace: str, key: Hashable) -> bool:
        try:
            reply = self._call(
                {
                    "op": "contains",
                    "ns": namespace,
                    "digest": artifact_digest(namespace, key),
                }
            )
        except Exception:
            self._bump("errors")
            return False
        return bool(reply.get("found"))

    def delete(self, namespace: str, key: Hashable) -> bool:
        try:
            reply = self._call(
                {
                    "op": "delete",
                    "ns": namespace,
                    "digest": artifact_digest(namespace, key),
                }
            )
        except Exception:
            self._bump("errors")
            return False
        return bool(reply.get("removed"))

    def sweep_orphans(self, *, min_age_s: float = 300.0) -> int:
        try:
            return int(
                self._call({"op": "sweep", "min_age_s": min_age_s})["removed"]
            )
        except Exception:
            self._bump("errors")
            return 0

    def clear(self, namespace: Optional[str] = None) -> int:
        try:
            return int(self._call({"op": "clear", "ns": namespace})["removed"])
        except Exception:
            self._bump("errors")
            return 0

    def file_count(self, namespace: Optional[str] = None) -> int:
        try:
            return int(self._call({"op": "count", "ns": namespace})["count"])
        except Exception:
            self._bump("errors")
            return 0

    def stats(self) -> dict:
        with self._lock:
            counters = dict(self._counters)
        counters["tier"] = self.tier
        counters["address"] = f"{self.address[0]}:{self.address[1]}"
        try:
            counters["server"] = self._call({"op": "stats"})["stats"]
        except Exception:
            counters["server"] = None
        return counters

    def close(self) -> None:
        self._closed = True
        self._drop_sock()
