"""The content-addressed, ``.npz``-backed artifact store.

The artifact system has one read path: memory LRU → disk.
:class:`~repro.api.cache.ArtifactCache` is one process's in-memory LRU;
:class:`DiskArtifactStore` persists selected namespaces to disk so
*other* processes — the ``process`` backend's pool workers, a later
batch, a sibling service — can read an artifact instead of recomputing
it.  The cache layers over the store transparently: a memory miss falls
through to :meth:`~DiskArtifactStore.load`, a computed value is written
through with :meth:`~DiskArtifactStore.save` (see
``ArtifactCache(store=...)``).

Layout and format
-----------------
One file per artifact: ``<root>/<namespace>/<sha256(key)[:32]>.npz``.
Each file is a regular NumPy ``.npz`` archive holding

* the artifact's ndarrays as native entries (CRC-checked by the zip
  container),
* a JSON *manifest* describing how to reassemble nested
  tuples/lists/dicts, :class:`~repro.topology.routing.RouteTable`
  instances and plain scalars,
* a pickle payload only for objects with no native encoding
  (``TaskGraph``, ``MapperResult``, metrics dataclasses, …).

The full key ``repr`` is stored in the manifest and verified on load,
so a (vanishingly unlikely) filename-hash collision reads as a miss
rather than silently returning the wrong artifact.

Durability contract
-------------------
Writes are atomic (temp file + ``os.replace``) so concurrent writers of
the same key — two pool workers racing on one artifact — each leave a
complete file behind and readers never observe a torn write.  *Reads
are corruption-tolerant*: a truncated, garbled or version-skewed file
is treated as a miss (and the caller recomputes and overwrites it), so
a crashed run can never poison the store.  Like any pickle-bearing
cache directory, the store trusts its filesystem location; do not point
it at a directory written by untrusted parties.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import threading
import time
from typing import Any, Dict, Hashable, List, Optional

import numpy as np

__all__ = ["DiskArtifactStore", "PERSIST_NAMESPACES", "artifact_digest"]

#: Namespaces worth sharing across processes: the expensive,
#: deterministic artifacts the planner dedupes (groupings, initial route
#: tables, DEF baselines and the derived coarse views).  Every other
#: namespace stays in one process's memory.
PERSIST_NAMESPACES = frozenset(
    {"grouping", "route_table", "def_baseline", "message_coarse", "unit_coarse"}
)

_MISSING = object()


def artifact_digest(namespace: str, key: Hashable) -> str:
    """Content address of ``(namespace, key)`` — the filename stem."""
    return hashlib.sha256(repr((namespace, key)).encode()).hexdigest()[:32]


class DiskArtifactStore:
    """Content-addressed artifact files under one root directory.

    An artifact store is a namespaced map from ``(namespace, key)`` to a
    deterministic artifact value.  Engine, pool and serve code all hold
    one of these.

    Contract
    --------
    * **Namespaces** partition the key space ("grouping",
      "route_table", "def_baseline", …).  :attr:`namespaces`
      (:data:`PERSIST_NAMESPACES`) declares which of them an attached
      :class:`~repro.api.cache.ArtifactCache` reads *and* writes
      through; direct calls are never restricted by the set.
    * **Determinism**: a key's value is a pure function of the key, so
      a save whose target already exists may be skipped (counted as
      ``save_skips`` in :meth:`stats`); ``force=True`` overwrites
      anyway.
    * **Corruption tolerance**: :meth:`load` returns *default* on any
      failure — missing entry, torn write, garbled bytes, version or
      key-hash mismatch — never an exception; the caller recomputes.
    * **Crash hygiene**: :meth:`sweep_orphans` reclaims temp files a
      crashed writer left mid-publish, age-gated so live writers are
      never yanked.

    Parameters
    ----------
    root:
        Directory holding the store (created if absent).  Multiple
        processes may share one root concurrently.
    """

    namespaces = PERSIST_NAMESPACES

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self._counter_lock = threading.Lock()
        self._loads = 0
        self._load_hits = 0
        self._bytes_read = 0
        self._saves = 0
        self._save_skips = 0
        os.makedirs(self.root, exist_ok=True)
        self.sweep_orphans()

    def sweep_orphans(self, *, min_age_s: float = 300.0) -> int:
        """Remove orphaned ``*.tmp`` files a crashed writer left behind.

        Runs on every store open: a worker killed mid-:meth:`save` (the
        window between ``mkstemp`` and ``os.replace``) leaks its private
        temp file, which nothing would ever reclaim.  Completed
        artifacts are untouched — the atomic rename means a ``.tmp``
        file is, by construction, never a live artifact.  Only files
        older than *min_age_s* are swept so a store being opened next
        to a *live* writer (two pool workers starting up) cannot yank a
        temp file mid-write.  Returns the number of files removed.
        """
        removed = 0
        cutoff = time.time() - min_age_s
        for directory in [self.root] + [
            os.path.join(self.root, ns) for ns in self._namespace_dirs()
        ]:
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
                    pass  # a concurrent opener already swept it
        return removed

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def path_for(self, namespace: str, key: Hashable) -> str:
        return os.path.join(
            self.root, namespace, f"{artifact_digest(namespace, key)}.npz"
        )

    # ------------------------------------------------------------------
    # save / load
    # ------------------------------------------------------------------
    def save(
        self, namespace: str, key: Hashable, value: Any, *, force: bool = False
    ) -> str:
        """Persist *value* atomically; returns the file path.

        Concurrent writers of the same key are safe: each writes a
        private temp file and ``os.replace``s it into place, so the file
        is always a complete archive (last writer wins — artifacts are
        deterministic in their key, so every writer stores equal bytes
        of content).

        Because of that determinism, a save whose target already exists
        with a matching manifest key is a no-op (racing pool workers
        otherwise rewrite identical files, temp churn included).  Pass
        ``force=True`` to overwrite anyway — ``ArtifactCache.put`` does,
        because direct puts may legitimately revise an entry (the DEF
        baseline's lazily filled metrics).
        """
        path = self.path_for(namespace, key)
        if not force and self._existing_matches(path, key):
            with self._counter_lock:
                self._save_skips += 1
            return path
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        arrays = _manifest_arrays(key, value)
        fd, tmp = tempfile.mkstemp(suffix=".npz.tmp", dir=directory)
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        with self._counter_lock:
            self._saves += 1
        return path

    def _existing_matches(self, path: str, key: Hashable) -> bool:
        """Whether *path* is a complete archive for *key* (cheap check:
        reads only the small manifest member, never the arrays)."""
        if not os.path.exists(path):
            return False
        try:
            with np.load(path, allow_pickle=False) as archive:
                manifest = _manifest(archive)
            return manifest.get("version") == 1 and manifest.get(
                "key_repr"
            ) == repr(key)
        except Exception:
            return False  # torn/garbled target: rewrite it

    def load(self, namespace: str, key: Hashable, default: Any = None) -> Any:
        """Read an artifact back; *default* on miss **or any corruption**.

        Every failure mode — missing file, truncated zip, garbled JSON,
        stale format version, key-hash collision, broken pickle — is a
        miss, never an exception: the caller recomputes and overwrites.
        """
        path = self.path_for(namespace, key)
        with self._counter_lock:
            self._loads += 1
        try:
            value = _decode_archive(key, path)
        except Exception:
            return default
        if value is _MISSING:
            return default
        with self._counter_lock:
            self._load_hits += 1
            try:
                self._bytes_read += os.path.getsize(path)
            except OSError:
                pass
        return value

    def contains(self, namespace: str, key: Hashable) -> bool:
        """Cheap existence probe (does not validate the file's content)."""
        return os.path.exists(self.path_for(namespace, key))

    def delete(self, namespace: str, key: Hashable) -> bool:
        """Remove one artifact; True when a file was deleted."""
        try:
            os.unlink(self.path_for(namespace, key))
            return True
        except OSError:
            return False

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def clear(self, namespace: Optional[str] = None) -> int:
        """Delete stored artifacts (one namespace's, or all); returns count.

        Also sweeps orphaned ``.npz.tmp`` files a crashed writer may
        have left behind (they do not count toward the return value).
        """
        removed = 0
        targets = [namespace] if namespace is not None else self._namespace_dirs()
        for ns in targets:
            directory = os.path.join(self.root, ns)
            if not os.path.isdir(directory):
                continue
            for name in os.listdir(directory):
                if name.endswith(".npz"):
                    os.unlink(os.path.join(directory, name))
                    removed += 1
                elif name.endswith(".npz.tmp"):
                    os.unlink(os.path.join(directory, name))
        return removed

    def file_count(self, namespace: Optional[str] = None) -> int:
        """Number of stored artifact files (one namespace's, or all)."""
        total = 0
        targets = [namespace] if namespace is not None else self._namespace_dirs()
        for ns in targets:
            directory = os.path.join(self.root, ns)
            if os.path.isdir(directory):
                total += sum(
                    1 for name in os.listdir(directory) if name.endswith(".npz")
                )
        return total

    def stats(self) -> dict:
        """I/O counters for monitoring (`loads` counts attempts, hits or
        not; ``bytes_read`` is file bytes behind successful loads)."""
        with self._counter_lock:
            return {
                "loads": self._loads,
                "load_hits": self._load_hits,
                "bytes_read": self._bytes_read,
                "saves": self._saves,
                "save_skips": self._save_skips,
            }

    def _namespace_dirs(self) -> List[str]:
        return [
            name
            for name in os.listdir(self.root)
            if os.path.isdir(os.path.join(self.root, name))
        ]


# ---------------------------------------------------------------------------
# Value codec: ndarrays native, containers via manifest, pickle fallback.
# ---------------------------------------------------------------------------


def _encode(value: Any, arrays: Dict[str, np.ndarray]) -> Dict[str, Any]:
    """Encode *value* into a JSON-able spec, appending ndarrays to *arrays*."""
    if isinstance(value, np.ndarray):
        return {"kind": "ndarray", "id": _add_array(arrays, value)}
    if value is None or isinstance(value, (bool, int, float, str)):
        return {"kind": "scalar", "value": value}
    if isinstance(value, (tuple, list)):
        return {
            "kind": "tuple" if isinstance(value, tuple) else "list",
            "items": [_encode(v, arrays) for v in value],
        }
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        return {
            "kind": "dict",
            "keys": list(value.keys()),
            "items": [_encode(v, arrays) for v in value.values()],
        }
    route_spec = _encode_route_table(value, arrays)
    if route_spec is not None:
        return route_spec
    # Protocol-5 out-of-band fallback: contiguous ndarrays inside an
    # otherwise unencodable object (a TaskGraph's CSR arrays, a
    # MapperResult's permutation) leave the pickle stream as raw
    # buffers and become native array entries instead of being copied
    # into the pickle bytes.
    oob: List[np.ndarray] = []

    def _take_out_of_band(pb: pickle.PickleBuffer):
        try:
            raw = pb.raw()
        except BufferError:
            return True  # non-contiguous: keep it in-band
        oob.append(np.frombuffer(raw, dtype=np.uint8))
        return None

    payload = np.frombuffer(
        pickle.dumps(value, protocol=5, buffer_callback=_take_out_of_band),
        dtype=np.uint8,
    )
    return {
        "kind": "pickle5",
        "id": _add_array(arrays, payload),
        "buffers": [_add_array(arrays, b) for b in oob],
    }


def _decode(spec: Dict[str, Any], archive) -> Any:
    kind = spec["kind"]
    if kind == "ndarray":
        return archive[spec["id"]]
    if kind == "scalar":
        return spec["value"]
    if kind == "tuple":
        return tuple(_decode(s, archive) for s in spec["items"])
    if kind == "list":
        return [_decode(s, archive) for s in spec["items"]]
    if kind == "dict":
        return {
            k: _decode(s, archive) for k, s in zip(spec["keys"], spec["items"])
        }
    if kind == "route_table":
        from repro.topology.routing import RouteTable

        return RouteTable(
            archive[spec["ptr"]], archive[spec["links"]], spec["num_links"]
        )
    if kind == "pickle5":
        buffers = [archive[b] for b in spec["buffers"]]
        return pickle.loads(archive[spec["id"]], buffers=buffers)
    raise ValueError(f"unknown artifact spec kind {kind!r}")


def _encode_route_table(
    value: Any, arrays: Dict[str, np.ndarray]
) -> Optional[Dict[str, Any]]:
    from repro.topology.routing import RouteTable

    if not isinstance(value, RouteTable):
        return None
    return {
        "kind": "route_table",
        "ptr": _add_array(arrays, value.ptr),
        "links": _add_array(arrays, value.links),
        "num_links": int(value.num_links),
    }


def _add_array(arrays: Dict[str, np.ndarray], value: np.ndarray) -> str:
    name = f"a{len(arrays)}"
    arrays[name] = value
    return name


def _manifest_arrays(key: Hashable, value: Any) -> Dict[str, np.ndarray]:
    """Encode *value* into the named-array dict one ``.npz`` file holds."""
    arrays: Dict[str, np.ndarray] = {}
    manifest = {
        "version": 1,
        "key_repr": repr(key),
        "value": _encode(value, arrays),
    }
    arrays["__manifest__"] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    return arrays


def _manifest(archive) -> dict:
    return json.loads(bytes(archive["__manifest__"]).decode("utf-8"))


def _decode_archive(key: Hashable, source) -> Any:
    """Decode one ``.npz`` archive; ``_MISSING`` when it is not *key*'s.

    A stale format version or a filename-hash collision is a miss; a
    torn or garbled archive raises, which callers also turn into one.
    """
    with np.load(source, allow_pickle=False) as archive:
        manifest = _manifest(archive)
        if manifest.get("version") != 1 or manifest.get("key_repr") != repr(key):
            return _MISSING
        return _decode(manifest["value"], archive)
