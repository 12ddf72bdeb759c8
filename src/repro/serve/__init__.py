"""Network serving front end over the mapping service.

The layers underneath (:mod:`repro.api`) already provide long-lived
worker pools, an awaitable service and fault-tolerant plan execution;
this package turns them into something remote clients can actually
talk to:

:mod:`repro.serve.protocol`
    Length-prefixed-JSON framing + the single request parse/validate
    layer shared by the network server and the ``map-batch --follow``
    JSONL front end.
:mod:`repro.serve.server`
    The asyncio :class:`MappingServer`: admission control with load
    shedding, weighted-fair-queuing tenant isolation, request
    coalescing into planner-deduped batches, deadline propagation, and
    a ``stats`` op exporting p50/p95/p99 per endpoint.
:mod:`repro.serve.client`
    Blocking :class:`ServeClient` library (one socket per thread).
:mod:`repro.serve.metrics`
    Reusable :class:`LatencyHistogram` / :class:`RollingWindow`
    primitives behind the observability surface.

CLI: ``repro-map serve --listen 127.0.0.1:8765 --backend process`` runs
a server; ``repro-map stats --connect 127.0.0.1:8765`` queries one.
"""

from repro.serve.client import ServeClient, ServerClosedError
from repro.serve.metrics import LatencyHistogram, RollingWindow, summarize_latencies
from repro.serve.protocol import (
    MANIFEST_DEFAULTS,
    ProtocolError,
    canonical_result,
    error_payload,
    parse_address,
    requests_from_entries,
    response_payload,
)
from repro.serve.server import (
    DEFAULT_TENANT,
    FairQueue,
    MappingServer,
    ThreadedServer,
)

__all__ = [
    "DEFAULT_TENANT",
    "FairQueue",
    "LatencyHistogram",
    "MANIFEST_DEFAULTS",
    "MappingServer",
    "ProtocolError",
    "RollingWindow",
    "ServeClient",
    "ServerClosedError",
    "ThreadedServer",
    "canonical_result",
    "error_payload",
    "parse_address",
    "requests_from_entries",
    "response_payload",
    "summarize_latencies",
]
