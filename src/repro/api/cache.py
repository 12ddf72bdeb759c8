"""ArtifactCache — bounded, namespaced memoization shared across requests.

Every expensive artifact the mapping service (and the experiment
harness) produces is stored here under a *namespace* ("grouping",
"route_table", "workload", "def_baseline", …) and a content-derived
key, so that

* ``map_batch`` computes each workload's grouping exactly once across
  algorithms and routes each set of endpoints once across the
  congestion refiners, metrics and simulators,
* TMAP's DEF-fallback comparison reuses the DEF baseline instead of
  re-running it,
* figure runners sharing inputs (Fig. 2/3, Fig. 4/5, Table I) share
  matrices, hypergraphs, workloads, machines and groupings through one
  store instead of five ad-hoc dicts.

Keys for task graphs and machines are *content fingerprints* (chained
CRC-32/Adler-32 over the underlying arrays, see
:mod:`repro.util.fingerprint`) rather than object ids, so two
structurally identical inputs hit the same entry regardless of how
they were constructed, and nothing keeps stale references alive by
identity.

The store is optionally **bounded**: pass ``max_entries`` and/or
``max_bytes`` and the least-recently-used artifacts are evicted once
either budget is exceeded (every ``get_or_compute`` hit refreshes
recency).  Unbounded remains the default — the figure runners want
every artifact resident for the duration of a sweep — but long-lived
services should set a byte budget: route tables and DEF baselines are
the big entries.  Per-namespace hit/miss/eviction/byte statistics are
exported by :meth:`ArtifactCache.stats` and surfaced by the
``python -m repro.api`` CLI (``--stats``).

Two properties serve the execution engine (:mod:`repro.api.executor`)
and the network server, whose driver threads share one cache:

* **Thread safety**: all bookkeeping — stats counters, the LRU order,
  byte accounting — happens under one short-lived mutex, so
  hits/misses/evictions stay exact under concurrent callers, and a
  bank of *striped* locks serializes top-level computes of the same
  key (two threads asking for one grouping run one compute).  Nested
  ``get_or_compute`` calls issued from inside a compute (the DEF
  baseline computes groupings and route tables) deliberately bypass
  the stripes — a thread never holds two stripes, so the striping can
  never deadlock; a nested duplicate compute is benign because every
  artifact is deterministic in its key.
* **Disk layering** (``store=``): a
  :class:`~repro.api.store.DiskArtifactStore` underneath the LRU turns
  a memory miss into a disk read and a computed value into an atomic
  write-through (for the store's declared namespaces), which is how
  the ``process`` backend's pool workers share groupings, route tables
  and DEF baselines across address spaces.  Disk reads count as hits
  (``CacheStats.store_hits`` tracks them separately).
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

import numpy as np

from repro.util.fingerprint import fingerprint_arrays

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "fingerprint_arrays",
    "task_graph_key",
    "machine_key",
]

_MISSING = object()

#: Stripe count of the per-key compute locks.
_NUM_STRIPES = 64


def task_graph_key(task_graph) -> int:
    """Content key of a :class:`~repro.graph.task_graph.TaskGraph`."""
    g = task_graph.graph
    return fingerprint_arrays(g.indptr, g.indices, g.weights, g.vertex_weights)


def machine_key(machine) -> int:
    """Content key of a :class:`~repro.topology.machine.Machine`.

    A degraded machine (failure mask on its torus) fingerprints its
    dead links/nodes too — a healthy and a degraded machine over the
    same allocation must never share cached groupings, route tables or
    baselines.  Healthy keys are unchanged.
    """
    dims = np.asarray(machine.torus.dims, dtype=np.int64)
    arrays = [dims, machine.alloc_nodes, machine.capacities]
    if machine.torus.has_faults:
        arrays.extend(machine.torus.fault_arrays())
    return fingerprint_arrays(*arrays)


def _estimate_nbytes(value: Any, _depth: int = 0) -> int:
    """Approximate resident bytes of an artifact (ndarray-aware).

    Recurses through the containers artifacts are actually made of —
    dicts, tuples/lists, dataclass-like objects, ``__slots__`` holders —
    summing ndarray buffer sizes; everything else falls back to
    ``sys.getsizeof``.  An estimate is enough: the budget exists to stop
    unbounded growth, not to account memory exactly.
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if _depth >= 4 or value is None:
        return sys.getsizeof(value) if value is not None else 0
    if isinstance(value, dict):
        return sys.getsizeof(value) + sum(
            _estimate_nbytes(v, _depth + 1) for v in value.values()
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        return sys.getsizeof(value) + sum(
            _estimate_nbytes(v, _depth + 1) for v in value
        )
    if hasattr(value, "__dict__"):
        return sys.getsizeof(value) + sum(
            _estimate_nbytes(v, _depth + 1) for v in vars(value).values()
        )
    slots = getattr(type(value), "__slots__", None)
    if slots:
        return sys.getsizeof(value) + sum(
            _estimate_nbytes(getattr(value, s, None), _depth + 1) for s in slots
        )
    return sys.getsizeof(value)


@dataclass
class CacheStats:
    """Hit/miss/eviction counters and resident bytes for one namespace.

    ``store_hits`` counts the subset of ``hits`` that were served from
    the layered :class:`~repro.api.store.DiskArtifactStore` rather than
    memory; ``store_errors`` counts write-throughs that failed and were
    skipped (both 0 when no store is attached).
    """

    hits: int = 0
    misses: int = 0
    size: int = 0
    evictions: int = 0
    bytes: int = 0
    store_hits: int = 0
    store_errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> dict:
        """The counters as JSON-ready ``{name: int}`` (every stats payload's schema)."""
        return asdict(self)


class ArtifactCache:
    """Namespaced ``get_or_compute`` store with LRU bounds and statistics.

    Parameters
    ----------
    max_entries:
        Evict least-recently-used artifacts once more than this many are
        stored (``None`` = unbounded).
    max_bytes:
        Evict least-recently-used artifacts once the estimated resident
        bytes exceed this budget (``None`` = unbounded).  A single
        artifact larger than the whole budget is still computed and
        returned — it just is not retained.
    store:
        Optional :class:`~repro.api.store.DiskArtifactStore` layered
        under the LRU: memory misses in the store's declared namespaces
        fall through to disk, and computed values are written through
        atomically, making the artifact shareable across processes.
    """

    def __init__(
        self,
        *,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        store=None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.store = store
        self._store: "OrderedDict[Tuple[str, Hashable], Any]" = OrderedDict()
        self._nbytes: Dict[Tuple[str, Hashable], int] = {}
        self._total_bytes = 0
        self._stats: Dict[str, CacheStats] = {}
        # The mutex guards every bookkeeping structure above; it is held
        # only for dict/counter updates, never across a compute or disk
        # I/O, so a single caller pays one uncontended acquire per call.
        self._mutex = threading.RLock()
        self._stripes = [threading.Lock() for _ in range(_NUM_STRIPES)]
        self._in_compute = threading.local()

    # ------------------------------------------------------------------
    def get_or_compute(
        self, namespace: str, key: Hashable, compute: Callable[[], Any]
    ) -> Any:
        """Return the cached artifact, computing and storing it on a miss.

        A hit marks the entry most-recently-used; a memory miss falls
        through to the disk store (when layered), then to *compute*; a
        computed value is inserted, written through to disk, and LRU
        entries past the configured budgets are evicted.  Top-level calls
        for one key from several threads run one compute (see the module
        docstring's thread-safety note).
        """
        if getattr(self._in_compute, "held", False):
            return self._get_or_compute_inner(namespace, key, compute)
        stripe = self._stripes[hash((namespace, key)) % _NUM_STRIPES]
        self._in_compute.held = True
        try:
            with stripe:
                return self._get_or_compute_inner(namespace, key, compute)
        finally:
            self._in_compute.held = False

    def _get_or_compute_inner(
        self, namespace: str, key: Hashable, compute: Callable[[], Any]
    ) -> Any:
        full = (namespace, key)
        with self._mutex:
            stats = self._stats.setdefault(namespace, CacheStats())
            if full in self._store:
                stats.hits += 1
                self._store.move_to_end(full)
                return self._store[full]
        value = self._load_from_store(namespace, key)  # I/O outside the mutex
        if value is not _MISSING:
            with self._mutex:
                stats.hits += 1
                stats.store_hits += 1
                self._insert(full, value, stats)
            return value
        value = compute()  # compute outside the mutex
        with self._mutex:
            stats.misses += 1
            self._insert(full, value, stats)
        self._write_through(namespace, key, value)
        return value

    def get(self, namespace: str, key: Hashable, default: Any = None) -> Any:
        """Peek (memory only) without recording a hit/miss or recency."""
        with self._mutex:
            return self._store.get((namespace, key), default)

    def put(self, namespace: str, key: Hashable, value: Any) -> None:
        """Insert (or overwrite) an artifact directly (most-recently-used)."""
        with self._mutex:
            stats = self._stats.setdefault(namespace, CacheStats())
            self._insert((namespace, key), value, stats)
        # force=True: unlike get_or_compute results (deterministic in
        # their key, so an existing file is already correct), a direct
        # put may revise an entry — the DEF baseline's lazily filled
        # metrics — and must reach disk even when the path exists.
        self._write_through(namespace, key, value, force=True)

    def __contains__(self, full_key: Tuple[str, Hashable]) -> bool:
        with self._mutex:
            return full_key in self._store

    # ------------------------------------------------------------------
    # disk layering
    # ------------------------------------------------------------------
    def _load_from_store(self, namespace: str, key: Hashable) -> Any:
        if self.store is None or namespace not in self.store.namespaces:
            return _MISSING
        return self.store.load(namespace, key, default=_MISSING)

    def _write_through(
        self, namespace: str, key: Hashable, value: Any, *, force: bool = False
    ) -> None:
        """Persist to the layered store; failures degrade, never abort.

        The store is an optimization layer: a full disk, a permission
        error or an unpicklable third-party artifact must not discard a
        successfully computed result, so write failures only bump the
        namespace's ``store_errors`` counter (mirroring the read side,
        where corruption is a miss).
        """
        if self.store is None or namespace not in self.store.namespaces:
            return
        try:
            self.store.save(namespace, key, value, force=force)
        except Exception:
            with self._mutex:
                self._stats.setdefault(namespace, CacheStats()).store_errors += 1

    # ------------------------------------------------------------------
    def _insert(
        self, full: Tuple[str, Hashable], value: Any, stats: CacheStats
    ) -> None:
        """Insert under the already-held mutex and evict past budgets."""
        if full in self._store:
            self._drop(full, count_eviction=False)
        nbytes = _estimate_nbytes(value)
        self._store[full] = value  # a fresh key lands at the MRU end
        self._nbytes[full] = nbytes
        self._total_bytes += nbytes
        stats.size += 1
        stats.bytes += nbytes
        self._evict_over_budget()

    def _over_budget(self) -> bool:
        if self.max_entries is not None and len(self._store) > self.max_entries:
            return True
        if self.max_bytes is not None and self._total_bytes > self.max_bytes:
            return True
        return False

    def _evict_over_budget(self) -> None:
        while self._store and self._over_budget():
            oldest = next(iter(self._store))
            self._drop(oldest, count_eviction=True)

    def _drop(self, full: Tuple[str, Hashable], *, count_eviction: bool) -> None:
        del self._store[full]
        nbytes = self._nbytes.pop(full, 0)
        self._total_bytes -= nbytes
        stats = self._stats.setdefault(full[0], CacheStats())
        stats.size -= 1
        stats.bytes -= nbytes
        if count_eviction:
            stats.evictions += 1

    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        """Estimated resident bytes of every stored artifact."""
        with self._mutex:
            return self._total_bytes

    def stats(self, namespace: Optional[str] = None):
        """Per-namespace :class:`CacheStats` (or one namespace's)."""
        with self._mutex:
            if namespace is not None:
                return self._stats.setdefault(namespace, CacheStats())
            return dict(self._stats)

    def store_stats(self) -> Optional[dict]:
        """The layered store's I/O counters (None when unlayered).

        The read path is memory LRU (this cache) → disk; this exposes
        the disk side of it — its load/save/skip counters.
        """
        return None if self.store is None else self.store.stats()

    def clear(self, namespace: Optional[str] = None) -> None:
        """Drop all in-memory artifacts, or only one namespace's.

        The layered disk store (if any) is untouched — use
        ``cache.store.clear()`` to delete persisted artifacts.
        """
        with self._mutex:
            if namespace is None:
                self._store.clear()
                self._nbytes.clear()
                self._total_bytes = 0
                self._stats.clear()
                return
            for full in [k for k in self._store if k[0] == namespace]:
                nbytes = self._nbytes.pop(full, 0)
                self._total_bytes -= nbytes
                del self._store[full]
            self._stats.pop(namespace, None)

    def __len__(self) -> int:
        with self._mutex:
            return len(self._store)

    def format_stats(self) -> str:
        """One line per namespace, e.g. ``grouping: 6 hits / 2 misses (2 stored, 1.2 MB)``."""
        lines = []
        with self._mutex:
            snapshot = {ns: s for ns, s in self._stats.items()}
        for ns in sorted(snapshot):
            s = snapshot[ns]
            line = (
                f"{ns}: {s.hits} hits / {s.misses} misses "
                f"({s.size} stored, {_format_bytes(s.bytes)}"
            )
            if s.store_hits:
                line += f", {s.store_hits} from disk"
            if s.store_errors:
                line += f", {s.store_errors} failed writes"
            if s.evictions:
                line += f", {s.evictions} evicted"
            lines.append(line + ")")
        return "\n".join(lines) if lines else "(empty)"


def _format_bytes(n: int) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(n) < 1024 or unit == "GB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n} B"  # pragma: no cover - unreachable
