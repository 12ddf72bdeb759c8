"""Wire protocol + the single request parse/validate layer.

Three front ends accept mapping requests — the network server in
:mod:`repro.serve.server`, the one-shot ``map-batch`` manifest and
``repro-map map`` — and everything they share lives here:

* **Framing** — length-prefixed JSON: a 4-byte big-endian payload
  length followed by UTF-8 JSON.  One encoder (``encode_frame``, which
  the asyncio server writes as is and ``send_frame`` sends over a plain
  socket) and async (``read_frame``) and sync (``recv_frame``) readers,
  so the asyncio server and the blocking client library speak
  bit-identical bytes.
* **Manifest decoding** — ``requests_from_entries`` turns manifest-style
  request entries (``{"matrix": ..., "algos": ..., "procs": ...}``,
  with layered defaults) into :class:`~repro.api.request.MapRequest`
  objects, building and LRU-caching the (task graph, machine)
  workloads.  Every front end calls it (``map`` calls its
  :func:`build_workload`), so "what is a valid request" has exactly
  one answer — including the size cap: no request may ask for more
  ranks or rows per unit than the paper's largest experiment.
* **Error shape** — :class:`ProtocolError` carries the same
  ``{kind, message, exception, attempts, node}`` dict a
  :class:`~repro.api.fault.PlanError` serializes to, with
  protocol-level kinds (``bad_request``, ``overloaded``, ``timeout``,
  ``shutdown``) extending the engine's.  A client cannot tell from the
  shape whether a rejection happened at the socket, in the queue, or
  deep inside a plan — which is the point.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "MANIFEST_DEFAULTS",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "error_payload",
    "encode_frame",
    "read_frame",
    "send_frame",
    "recv_frame",
    "build_workload",
    "requests_from_entries",
    "response_payload",
    "parse_address",
]

#: Hard bound on one frame's JSON payload; a peer announcing more is
#: malformed (or hostile) and the connection is dropped.
MAX_FRAME_BYTES = 32 << 20

_LENGTH = struct.Struct(">I")

#: Per-request fallbacks of the manifest entry schema (overridden by a
#: manifest's or ``map`` frame's ``defaults`` object, then by each entry).
MANIFEST_DEFAULTS: Dict[str, Any] = {
    "algos": "UG,UWH",
    "procs": 64,
    "ppn": 4,
    "rows_per_unit": 120,
    "partitioner": "PATOH",
    "seed": 0,
    "delta": 8,
    "fragmentation": 0.3,
}


class ProtocolError(ValueError):
    """A malformed or rejected request, in :class:`PlanError` shape.

    ``kind`` extends the engine's error kinds with protocol-level ones:
    ``bad_request`` (unparseable/invalid input), ``overloaded`` (load
    shed at admission), ``timeout`` (deadline expired before execution)
    and ``shutdown`` (server draining).  :meth:`as_dict` matches
    ``PlanError.as_dict()`` key for key so every front end emits one
    error JSON shape.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str = "bad_request",
        exception: str = "",
        node: str = "",
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.exception = exception
        self.node = node

    def as_dict(self) -> dict:
        return error_payload(
            self.kind, str(self), exception=self.exception, node=self.node
        )


def error_payload(
    kind: str,
    message: str,
    *,
    exception: str = "",
    node: str = "",
    attempts: int = 1,
) -> dict:
    """The one error-object shape (mirrors ``PlanError.as_dict()``)."""
    return {
        "kind": kind,
        "message": message,
        "exception": exception,
        "attempts": attempts,
        "node": node,
    }


# ---------------------------------------------------------------------------
# Addresses
# ---------------------------------------------------------------------------


def parse_address(address) -> Tuple[str, int]:
    """``"host:port"`` (or a ``(host, port)`` pair) → ``(host, port)``.

    The one address syntax of every ``--listen``/``--connect`` flag and
    socket endpoint; a missing host, a non-integer port or a
    port outside 0–65535 raises :class:`ValueError`.
    """
    if isinstance(address, (tuple, list)) and len(address) == 2:
        host, port = str(address[0]), address[1]
    else:
        host, sep, port = str(address).rpartition(":")
        if not sep or not host:
            raise ValueError(f"address {address!r} is not host:port")
    try:
        port = int(port)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"address {address!r} has a non-integer port") from exc
    if not 0 <= port <= 65535:
        raise ValueError(f"address {address!r} has a port outside 0-65535")
    return host, port


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def encode_frame(payload: Any) -> bytes:
    """Length-prefixed UTF-8 JSON bytes of *payload*."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(body)) + body


def _decode_body(body: bytes) -> Any:
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(
            f"frame payload is not valid JSON: {exc}",
            exception=type(exc).__name__,
        ) from exc


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte frame "
            f"(limit {MAX_FRAME_BYTES}); dropping connection"
        )


async def read_frame(reader) -> Optional[Any]:
    """Read one frame from an asyncio stream; ``None`` on clean EOF."""
    import asyncio

    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise ProtocolError("connection closed mid-frame") from exc
    (length,) = _LENGTH.unpack(header)
    _check_length(length)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return _decode_body(body)


def send_frame(sock: socket.socket, payload: Any) -> None:
    """Send one frame over a blocking socket."""
    sock.sendall(encode_frame(payload))


def recv_frame(sock: socket.socket) -> Optional[Any]:
    """Blocking counterpart of :func:`read_frame`; ``None`` on clean EOF."""
    header = _recv_exact(sock, _LENGTH.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    _check_length(length)
    body = _recv_exact(sock, length, allow_eof=False)
    return _decode_body(body)


def _recv_exact(
    sock: socket.socket, n: int, *, allow_eof: bool
) -> Optional[bytes]:
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if allow_eof and remaining == n:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# Manifest entries -> MapRequests (the shared validate layer)
# ---------------------------------------------------------------------------


def build_workload(
    matrix_name: str,
    procs: int,
    ppn: int,
    rows_per_unit: int,
    partitioner: str,
    seed: int,
    fragmentation: float,
):
    """Corpus matrix → partitioned task graph + allocated machine.

    *procs* and *rows_per_unit* must be at least 1 and are capped at
    the ``paper`` profile's (the paper's largest experiment), and so is
    the node count ``procs // ppn``, which sizes the machine's
    ``|Va|²`` hop matrices.  All are checked before the matrix is
    generated, so one request cannot make the build allocate without
    bound or silently build another size than it asked.
    """
    from repro.data.corpus import CORPUS, load_matrix
    from repro.experiments.profiles import PROFILES
    from repro.graph.task_graph import TaskGraph
    from repro.hypergraph.model import Hypergraph
    from repro.partition.toolbox import get_partitioner
    from repro.topology.allocation import (
        AllocationSpec,
        SparseAllocator,
        torus_for_job,
    )

    entry = next((e for e in CORPUS if e.name == matrix_name), None)
    if entry is None:
        raise ProtocolError(
            f"unknown matrix {matrix_name!r}; corpus: {[e.name for e in CORPUS]}"
        )
    if procs < 1 or ppn < 1:
        raise ProtocolError(f"procs {procs} and ppn {ppn} must both be >= 1")
    if procs % ppn:
        raise ProtocolError(f"procs {procs} not divisible by ppn {ppn}")
    paper = PROFILES["paper"]
    if procs > paper.largest_procs:
        raise ProtocolError(
            f"procs {procs} exceeds the limit of {paper.largest_procs}"
        )
    max_nodes = paper.largest_procs // paper.procs_per_node
    if procs // ppn > max_nodes:
        raise ProtocolError(
            f"procs {procs} at ppn {ppn} need {procs // ppn} nodes, "
            f"above the limit of {max_nodes}"
        )
    if rows_per_unit < 1:
        raise ProtocolError(f"rows_per_unit {rows_per_unit} must be >= 1")
    if rows_per_unit > paper.rows_per_unit:
        raise ProtocolError(
            f"rows_per_unit {rows_per_unit} exceeds the limit of {paper.rows_per_unit}"
        )
    matrix = load_matrix(entry, rows_per_unit, seed)
    h = Hypergraph.from_matrix(matrix)
    tool = get_partitioner(partitioner)
    part = tool.partition(matrix, procs, seed=seed, hypergraph=h).part
    loads = np.bincount(part, weights=h.loads, minlength=procs)
    tg = TaskGraph.from_comm_triplets(procs, h.comm_triplets(part, procs), loads=loads)
    nodes = procs // ppn
    machine = SparseAllocator(torus_for_job(nodes)).allocate(
        AllocationSpec(
            num_nodes=nodes,
            procs_per_node=ppn,
            fragmentation=fragmentation,
            seed=seed,
        )
    )
    return tg, machine


def _str_field(spec: dict, name: str, i: int) -> str:
    value = spec[name]
    if not isinstance(value, str):
        raise ProtocolError(
            f"request #{i} '{name}' must be a string, got {type(value).__name__}"
        )
    return value


def _number_field(spec: dict, name: str, i: int, kind=int):
    """``kind(spec[name])``; any value it cannot convert (including an
    infinite float as an integer, or an integer too large for a float)
    is a :class:`ProtocolError`."""
    try:
        return kind(spec[name])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(
            f"request #{i} has a malformed {name!r}: {exc}",
            exception=type(exc).__name__,
        ) from exc


def requests_from_entries(
    entries: List[dict], defaults: dict, workloads
) -> List:
    """Manifest entries → MapRequests; *workloads* caches built inputs.

    Shared by the one-shot manifest path and the network server — the
    server passes one *workloads* mapping (an ``OrderedDict``; recency
    order is maintained for its LRU bound) across all served batches,
    so clients hammering the same matrices build each workload once.

    Every validation failure raises :class:`ProtocolError`, so all
    front ends reject malformed input with the same error object.
    Each field is type-checked before the workload build: ``matrix``,
    ``partitioner`` and every algorithm name are strings, the integer
    fields convert to finite integers.
    """
    from repro.api.registry import UnknownMapperError, get_spec
    from repro.api.request import MapRequest

    if not isinstance(entries, list) or not entries:
        raise ProtocolError("request batch must be a non-empty list of objects")
    if not isinstance(defaults, dict):
        raise ProtocolError(
            f"'defaults' must be an object, got {type(defaults).__name__}"
        )
    requests: List = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ProtocolError(f"request #{i} must be an object, got {entry!r}")
        spec = {**MANIFEST_DEFAULTS, **defaults, **entry}
        if "matrix" not in spec:
            raise ProtocolError(f"request #{i} names no 'matrix'")
        matrix = _str_field(spec, "matrix", i)
        algos = spec["algos"]
        if isinstance(algos, str):
            algos = tuple(a.strip() for a in algos.split(",") if a.strip())
        elif isinstance(algos, (list, tuple)):
            algos = tuple(algos)
        else:
            raise ProtocolError(
                f"request #{i} 'algos' must be a string or list, got {algos!r}"
            )
        if not algos:
            raise ProtocolError(f"request #{i} names no algorithms")
        for a in algos:  # fail fast, before any workload build
            if not isinstance(a, str):
                raise ProtocolError(
                    f"request #{i} algorithm names must be strings, "
                    f"got {type(a).__name__}"
                )
            try:
                get_spec(a)
            except UnknownMapperError as exc:
                raise ProtocolError(
                    f"request #{i}: {exc}", exception=type(exc).__name__
                ) from exc
        seed = _number_field(spec, "seed", i)
        key = (
            matrix,
            _number_field(spec, "procs", i),
            _number_field(spec, "ppn", i),
            _number_field(spec, "rows_per_unit", i),
            _str_field(spec, "partitioner", i),
            seed,
            _number_field(spec, "fragmentation", i, float),
        )
        delta = _number_field(spec, "delta", i)
        if delta < 1:
            raise ProtocolError(f"request #{i} has 'delta' {delta}; it must be >= 1")
        if key not in workloads:
            try:
                workloads[key] = build_workload(*key)
            except ProtocolError:
                raise
            except Exception as exc:
                raise ProtocolError(
                    f"request #{i}: workload build failed: {exc}",
                    exception=type(exc).__name__,
                ) from exc
        elif hasattr(workloads, "move_to_end"):
            workloads.move_to_end(key)  # the server bounds by recency
        tg, machine = workloads[key]
        requests.append(
            MapRequest(
                task_graph=tg,
                machine=machine,
                algorithms=algos,
                seed=seed,
                delta=delta,
                evaluate=True,
                tag=spec.get("tag", i),
            )
        )
    return requests


# ---------------------------------------------------------------------------
# Responses -> JSON
# ---------------------------------------------------------------------------


def response_payload(r) -> dict:
    """One :class:`MapResponse` as the JSON object every front end emits.

    A failed response (``on_error="partial"``) keeps the ``tag`` /
    ``algorithm`` identity fields and carries the structured error in
    place of the mapping payload.  ``mapping_fp`` is the content
    fingerprint of the fine mapping — what "byte-identical responses"
    means over a wire that does not ship the gamma arrays themselves.
    """
    if not r.ok:
        return {
            "tag": r.tag,
            "algorithm": r.algorithm,
            "ok": False,
            "error": r.error.as_dict(),
        }
    return {
        "tag": r.tag,
        "algorithm": r.algorithm,
        "ok": True,
        "metrics": (
            {k: float(v) for k, v in r.metrics.as_dict().items()}
            if r.metrics is not None
            else None
        ),
        "map_time_s": r.map_time,
        "prep_time_s": r.prep_time,
        "grouping_cached": r.grouping_cached,
        "mapping_fp": r.fingerprint(),
    }


def canonical_result(payload: dict) -> dict:
    """A response payload minus its timing fields.

    Two runs of the same deterministic request differ only in wall
    times; this is the equality the byte-identity tests (and clients
    deduping retried responses) compare on.
    """
    drop = {"map_time_s", "prep_time_s", "grouping_cached"}
    return {k: v for k, v in payload.items() if k not in drop}
