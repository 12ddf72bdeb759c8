"""Multi-host plan sharding over a remote content-addressed store.

The distributed layer stacks three pieces on machinery the engine
already has:

* :mod:`repro.dist.remote` — a TCP object protocol over the store's
  content-addressed ``.npz`` byte format: ``ArtifactStoreServer``
  (``repro-map store-serve``) fronts one directory, and
  :class:`~repro.dist.remote.RemoteArtifactStore` is the
  :class:`~repro.api.store.ArtifactStore` client that
  :class:`~repro.api.store.TieredArtifactStore` layers under the disk,
  so every host's read path is memory LRU → disk → remote and remote
  reads promote onto the host's disk.
* :mod:`repro.dist.host` — ``HostServer`` (``repro-map shard-serve``)
  executes individual plan nodes against its own
  :class:`~repro.api.service.MappingService` (or a local
  :class:`~repro.api.pool.ExecutorPool`), reading batch payloads and
  shared artifacts through the remote store; ``HostClient`` is its
  future-returning counterpart.
* :mod:`repro.dist.router` / :mod:`repro.dist.coordinator` —
  :class:`~repro.dist.router.ShardRouter` assigns plan subgraphs to
  hosts by workload fingerprint (groupings and DEF-baseline producers
  pinned host-local with their consumers, work-stealing when a shard
  runs hot), and the coordinator drives the whole plan to outcomes the
  single-host executor's collector already understands.
"""

from repro.dist.coordinator import run_sharded
from repro.dist.host import HostClient, HostLostError, HostServer
from repro.dist.remote import ArtifactStoreServer, RemoteArtifactStore
from repro.dist.router import ShardRouter

__all__ = [
    "ArtifactStoreServer",
    "RemoteArtifactStore",
    "HostServer",
    "HostClient",
    "HostLostError",
    "ShardRouter",
    "run_sharded",
]
