"""Network serving front end over the mapping service.

The layers underneath (:mod:`repro.api`) provide long-lived worker
pools and fault-tolerant plan execution; this package turns them into
the one long-running front end remote clients talk to:

:mod:`repro.serve.protocol`
    Length-prefixed-JSON framing + the single request parse/validate
    layer shared by the network server and the CLI's one-shot
    ``map`` / ``map-batch`` commands.
:mod:`repro.serve.server`
    The asyncio :class:`MappingServer`, which drives one
    :class:`~repro.api.service.MappingService` on ``max_in_flight``
    driver threads: admission control with load shedding,
    weighted-fair-queuing tenant isolation, request coalescing into
    planner-deduped batches, deadline propagation, and a ``stats`` op
    exporting p50/p95/p99 per endpoint.
:mod:`repro.serve.client`
    Blocking :class:`ServeClient` library (one socket per thread).
:mod:`repro.serve.metrics`
    Reusable :class:`LatencyHistogram` / :class:`RollingWindow`
    primitives behind the observability surface.

CLI: ``repro-map serve --listen 127.0.0.1:8765 --backend process`` runs
a server; ``repro-map stats --connect 127.0.0.1:8765`` queries one.
"""

from repro.serve.client import ServeClient, ServerClosedError
from repro.serve.metrics import LatencyHistogram, RollingWindow
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
]
