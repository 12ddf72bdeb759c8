"""Shared-memory artifact tier — the zero-copy half of the data plane.

:class:`SharedMemoryStore` publishes artifacts into named POSIX
shared-memory segments (``multiprocessing.shared_memory``): one segment
per artifact, holding a small JSON header plus the raw bytes of every
ndarray in the value — no serialization of array payloads, no disk.
Readers (pool workers, the serving parent, a sibling process) attach
the segment and reconstruct the value with ``np.frombuffer`` views, so
a grouping or RouteTable computed by one worker is *mapped*, not
copied, by every other process on the host.  Non-array leaves ride
along as a pickle-protocol-5 stream whose out-of-band buffers are
themselves raw segment regions (see ``repro.api.store``'s codec, which
this module shares), so even a ``TaskGraph`` inside a batch payload
reattaches as views.

Addressing is content-derived, mirroring the disk store: the segment
name is ``rpr`` + an 8-hex *store token* (hash of the disk root, so
independent stores never collide) + 16 hex of the namespace/key hash —
the name itself is the registry, and the full ``repr`` of the key is
verified in the header on attach, so a hash collision reads as a miss.
A publish writes the payload first and stamps an 8-byte magic last;
readers treat an unstamped segment as missing, so a worker killed
mid-publish can never serve a torn artifact (the analogue of the disk
store's temp-file + rename).

Lifetime
--------
* **Refcounted unlink-on-last-close**: every array view handed out
  holds a reference (via ``weakref.finalize``) on its segment
  attachment; :meth:`SharedMemoryStore.delete` unlinks the name
  immediately (new attaches miss) but the local mapping closes only
  when the last view dies, so readers never observe a vanishing
  buffer.
* **Owner reap**: the store that *owns* a root (the pool parent, the
  CLI service) unlinks every token-prefixed segment at :meth:`close`
  — including segments published by since-dead workers — so a clean
  shutdown leaks nothing.  Worker-side stores are non-owners and only
  detach.
* **Crash-orphan sweeping**: :meth:`sweep_orphans` (run on every store
  open, same contract as the disk store's ``.tmp`` reaping) unlinks
  *uncommitted* token-prefixed segments older than ``min_age_s`` —
  the droppings of a worker killed inside a publish.  Committed
  segments are live artifacts and are left to the owner's close.

Segments are kept out of Python's ``multiprocessing.resource_tracker``:
the tracker would otherwise unlink a shared segment when *any*
attaching process exits (and warn about it), which is exactly wrong for
a cross-process cache.  A publisher unregisters its segment once it is
committed; readers attach through ``/dev/shm`` without registering at
all.  (The tracker keeps one entry per name for all the processes that
share it, so attach-then-unregister from several processes at once
unregistered a name twice and printed a ``KeyError`` traceback.)
Cleanup is this module's job, not the tracker's.

:class:`TieredArtifactStore` composes the tiers — reads go shm → disk
(promoting disk hits into shm), writes go to both (disk stays the
durable layer) except the ``batch`` namespace, whose payloads are
ephemeral by construction and live in shared memory only.  It is
duck-compatible with :class:`~repro.api.store.DiskArtifactStore`, so
:class:`~repro.api.cache.ArtifactCache` layers over it unchanged and
the full read path becomes memory LRU → shm → disk.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import mmap
import os
import struct
import threading
import time
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, Hashable, List, Optional, Set

import numpy as np

from repro.api.store import (
    DEFAULT_PERSIST_NAMESPACES,
    STORE_TIERS,
    ArtifactStore,
    DiskArtifactStore,
    _decode,
    _encode,
    make_store,
)

__all__ = [
    "SharedMemoryStore",
    "TieredArtifactStore",
    "make_store",
    "shm_available",
    "STORE_TIERS",
]

_MAGIC = b"RPRSHM1\0"
_PREFIX = "rpr"
_ALIGN = 64
_SHM_DIR = "/dev/shm"

_MISSING = object()

_available: Optional[bool] = None
_available_lock = threading.Lock()


def shm_available() -> bool:
    """Whether the shared-memory tier can run here (probed once).

    Requires working ``multiprocessing.shared_memory`` *and* a listable
    ``/dev/shm`` (sweeping and owner reap enumerate segments there), so
    the tier auto-disables on platforms without it — macOS names
    segments but exposes no listing — and in containers that mount no
    shm filesystem.
    """
    global _available
    with _available_lock:
        if _available is None:
            _available = _probe()
        return _available


def _probe() -> bool:
    if not os.path.isdir(_SHM_DIR):
        return False
    try:
        seg = shared_memory.SharedMemory(create=True, size=16)
        try:
            seg.buf[0] = 1
        finally:
            seg.close()
            seg.unlink()  # unlink also unregisters from the tracker
        return True
    except Exception:
        return False


def _untrack(seg: shared_memory.SharedMemory) -> None:
    """Remove *seg* from the resource tracker (cleanup is ours)."""
    try:
        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals moved
        pass


class _Segment:
    """A segment attached by name, untracked (cf. ``SharedMemory``).

    Exposes the ``buf``/``close`` subset of
    :class:`multiprocessing.shared_memory.SharedMemory` this module uses.
    """

    __slots__ = ("_mmap", "buf")

    def __init__(self, name: str) -> None:
        fd = os.open(os.path.join(_SHM_DIR, name), os.O_RDWR)
        try:
            self._mmap = mmap.mmap(fd, os.fstat(fd).st_size)
        finally:
            os.close(fd)
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        self.buf.release()
        self._mmap.close()


def _store_token(root: str) -> str:
    return hashlib.sha256(os.path.abspath(root).encode()).hexdigest()[:8]


class _Attachment:
    """One mapped segment + the refcount of live views into it."""

    __slots__ = ("segment", "refs", "retired")

    def __init__(self, segment: _Segment) -> None:
        self.segment = segment
        self.refs = 0
        self.retired = False


def _release_view(store_ref, name: str, att: "_Attachment") -> None:
    """``weakref.finalize`` callback: one view into *name* died.

    Holding *att* (not just its name) keeps the mapping alive as long
    as any view does, even if the store itself was collected first —
    in that case the last view closes the segment directly.
    """
    store = store_ref()
    if store is not None:
        store._drop_ref(name)
        return
    att.refs -= 1
    if att.refs <= 0:
        try:
            att.segment.close()
        except BufferError:  # pragma: no cover - a view resurrected
            pass


class SharedMemoryStore(ArtifactStore):
    """Named-segment artifact store scoped to one disk root's token.

    Parameters
    ----------
    root:
        The sibling disk store's root directory; only its hash enters
        segment names, nothing is written there.
    namespaces:
        Namespaces an attached cache persists (same contract as the
        disk store; direct ``save``/``load`` calls are unrestricted).
    owner:
        Whether :meth:`close` reaps every token-prefixed segment
        (pool parents and CLI services own their root; pool *workers*
        must not unlink segments their siblings still read).
    """

    tier = "shm"

    def __init__(
        self,
        root: str,
        *,
        namespaces: frozenset = DEFAULT_PERSIST_NAMESPACES,
        owner: bool = False,
    ) -> None:
        self.root = os.path.abspath(root)
        self.namespaces = frozenset(namespaces)
        self.owner = owner
        self.token = _store_token(root)
        self._lock = threading.RLock()
        self._attached: Dict[str, _Attachment] = {}
        self._published: Set[str] = set()
        self._closed = False
        self._publishes = 0
        self._publish_skips = 0
        self._publish_bytes = 0
        self._attaches = 0
        self._loads = 0
        self._load_hits = 0
        self._swept = 0
        self.sweep_orphans()
        if owner:
            atexit.register(self.close)

    # ------------------------------------------------------------------
    # naming
    # ------------------------------------------------------------------
    def segment_name(self, namespace: str, key: Hashable) -> str:
        digest = hashlib.sha256(repr((namespace, key)).encode()).hexdigest()[:16]
        return f"{_PREFIX}{self.token}{digest}"

    def _token_segments(self) -> List[str]:
        prefix = _PREFIX + self.token
        try:
            return [n for n in os.listdir(_SHM_DIR) if n.startswith(prefix)]
        except OSError:
            return []

    # ------------------------------------------------------------------
    # save / load
    # ------------------------------------------------------------------
    def save(
        self, namespace: str, key: Hashable, value: Any, *, force: bool = False
    ) -> bool:
        """Publish *value* as one committed segment; False on failure.

        Failure (an unpicklable leaf, shm exhaustion, a racing
        publisher) is never an error — the caller's disk tier is the
        durable fallback.  A segment already committed under this name
        is content-addressed and therefore already holds these bytes;
        the publish is skipped (counted as ``save_skips``) unless
        ``force=True``, which unlinks and republishes — a direct
        ``ArtifactCache.put`` may legitimately revise an entry.
        """
        if self._closed:
            return False
        name = self.segment_name(namespace, key)
        try:
            if force:
                self.delete(namespace, key)
            return self._publish(name, namespace, key, value, retried=False)
        except Exception:
            return False

    def _publish(
        self, name: str, namespace: str, key: Hashable, value: Any, retried: bool
    ) -> bool:
        arrays: Dict[str, np.ndarray] = {}
        spec = _encode(value, arrays)
        header = {
            "version": 1,
            "key_repr": repr(key),
            "namespace": namespace,
            "value": spec,
            "arrays": {},
        }
        offset = 0
        metas = {}
        for aid, arr in arrays.items():
            order = (
                "F"
                if arr.flags.f_contiguous and not arr.flags.c_contiguous
                else "C"
            )
            metas[aid] = {
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "order": order,
                "offset": offset,
                "nbytes": int(arr.nbytes),
            }
            offset += -(-int(arr.nbytes) // _ALIGN) * _ALIGN
        header["arrays"] = metas
        payload = json.dumps(header).encode("utf-8")
        data_start = -(-(24 + len(payload)) // _ALIGN) * _ALIGN
        total = max(data_start + offset, 1)
        try:
            seg = shared_memory.SharedMemory(create=True, size=total, name=name)
        except FileExistsError:
            return self._handle_existing(name, namespace, key, value, retried)
        try:
            buf = seg.buf
            buf[8:16] = struct.pack("<Q", len(payload))
            buf[16:24] = struct.pack("<Q", data_start)
            buf[24 : 24 + len(payload)] = payload
            for aid, arr in arrays.items():
                meta = metas[aid]
                if meta["nbytes"] == 0:
                    continue
                dst = np.ndarray(
                    arr.shape,
                    dtype=arr.dtype,
                    buffer=buf,
                    offset=data_start + meta["offset"],
                    order=meta["order"],
                )
                np.copyto(dst, arr, casting="no")
                del dst
            buf[0:8] = _MAGIC  # commit: readers only trust stamped segments
        except BaseException:
            seg.close()
            try:
                seg.unlink()  # unlink also unregisters from the tracker
            except OSError:
                pass
            raise
        _untrack(seg)  # committed: cleanup is the store's job now
        seg.close()
        with self._lock:
            self._published.add(name)
            self._publishes += 1
            self._publish_bytes += total
        return True

    def _handle_existing(
        self, name: str, namespace: str, key: Hashable, value: Any, retried: bool
    ) -> bool:
        """A segment by this name exists: committed means published
        (content-addressed ⇒ identical bytes); an uncommitted corpse
        from a crashed publisher is unlinked and the publish retried
        once."""
        try:
            seg = _Segment(name)
        except FileNotFoundError:
            if retried:
                return False
            return self._publish(name, namespace, key, value, retried=True)
        committed = bytes(seg.buf[0:8]) == _MAGIC
        seg.close()
        if committed:
            with self._lock:
                self._published.add(name)
                # Same naming as the disk tier: a duplicate publish of a
                # content-addressed key is a skip, not a failure.
                self._publish_skips += 1
            return True
        if retried:
            return False  # a live concurrent publisher owns it; yield
        try:
            self._unlink_name(name)
        except OSError:
            pass
        return self._publish(name, namespace, key, value, retried=True)

    def load(self, namespace: str, key: Hashable, default: Any = None) -> Any:
        """Attach and reconstruct; *default* on miss or any surprise.

        Returned arrays are read-only ``np.frombuffer`` views into the
        segment; each view refcounts the attachment (see module docs).
        """
        with self._lock:
            self._loads += 1
        name = self.segment_name(namespace, key)
        try:
            att = self._attach(name)
            if att is None:
                return default
            buf = att.segment.buf
            if bytes(buf[0:8]) != _MAGIC:
                return default  # mid-publish: not committed yet
            (hlen,) = struct.unpack("<Q", buf[8:16])
            (data_start,) = struct.unpack("<Q", buf[16:24])
            header = json.loads(bytes(buf[24 : 24 + hlen]).decode("utf-8"))
            if header.get("version") != 1 or header.get("key_repr") != repr(key):
                return default  # name-hash collision: not our key
            archive = _SegmentArchive(self, name, att, header, data_start)
            value = _decode(header["value"], archive)
        except Exception:
            return default
        with self._lock:
            self._load_hits += 1
        return value

    def _attach(self, name: str) -> Optional[_Attachment]:
        with self._lock:
            att = self._attached.get(name)
            if att is not None and not att.retired:
                return att
        try:
            seg = _Segment(name)
        except (FileNotFoundError, OSError):
            return None
        with self._lock:
            current = self._attached.get(name)
            if current is not None and not current.retired:
                seg.close()  # raced another attacher; use theirs
                return current
            att = _Attachment(seg)
            self._attached[name] = att
            self._attaches += 1
            return att

    def _take_ref(self, name: str, att: _Attachment) -> None:
        with self._lock:
            att.refs += 1

    def _drop_ref(self, name: str) -> None:
        with self._lock:
            att = self._attached.get(name)
            if att is None:
                return
            att.refs -= 1
            if att.refs <= 0 and (att.retired or self._closed):
                self._close_attachment(name, att)

    def _close_attachment(self, name: str, att: _Attachment) -> None:
        try:
            att.segment.close()
        except BufferError:  # pragma: no cover - a view resurrected
            return
        self._attached.pop(name, None)

    # ------------------------------------------------------------------
    # contains / delete
    # ------------------------------------------------------------------
    def contains(self, namespace: str, key: Hashable) -> bool:
        """Whether a committed segment for this key exists right now."""
        name = self.segment_name(namespace, key)
        try:
            seg = _Segment(name)
        except (FileNotFoundError, OSError):
            return False
        committed = bytes(seg.buf[0:8]) == _MAGIC
        seg.close()
        return committed

    def delete(self, namespace: str, key: Hashable) -> bool:
        """Unlink one artifact's segment (refcounted local close).

        The *name* disappears immediately — new attaches miss — but
        this process's mapping survives until the last live view dies,
        and other processes' mappings until theirs do (POSIX keeps an
        unlinked segment alive for existing maps).
        """
        name = self.segment_name(namespace, key)
        removed = False
        try:
            self._unlink_name(name)
            removed = True
        except OSError:
            pass
        with self._lock:
            self._published.discard(name)
            att = self._attached.get(name)
            if att is not None:
                att.retired = True
                if att.refs <= 0:
                    self._close_attachment(name, att)
        return removed

    def _unlink_name(self, name: str) -> None:
        os.unlink(os.path.join(_SHM_DIR, name))

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def sweep_orphans(self, *, min_age_s: float = 300.0) -> int:
        """Unlink *uncommitted* token segments older than *min_age_s*.

        Same contract as the disk store's ``.tmp`` reaping: an
        uncommitted segment is, by construction, never a live artifact
        — it is the leak of a publisher killed between create and
        commit — and the age gate keeps a store opening next to a live
        publisher from yanking its in-flight segment.  Committed
        segments are valid artifacts and are left for the owner's
        :meth:`close`.  Returns the number of segments removed.
        """
        removed = 0
        cutoff = time.time() - min_age_s
        for name in self._token_segments():
            with self._lock:
                if name in self._attached or name in self._published:
                    continue
            path = os.path.join(_SHM_DIR, name)
            try:
                if os.path.getmtime(path) > cutoff:
                    continue
                with open(path, "rb") as fh:
                    committed = fh.read(8) == _MAGIC
                if not committed:
                    os.unlink(path)
                    removed += 1
            except OSError:
                pass  # vanished under us: someone else swept it
        with self._lock:
            self._swept += removed
        return removed

    def clear(self, namespace: Optional[str] = None) -> int:
        """Unlink this token's segments; count removed.

        Namespace-selective clearing attaches each segment to read its
        header; ``None`` clears everything token-prefixed.
        """
        removed = 0
        for name in self._token_segments():
            if namespace is not None:
                ns = self._segment_namespace(name)
                if ns != namespace:
                    continue
            try:
                self._unlink_name(name)
                removed += 1
            except OSError:
                continue
            with self._lock:
                self._published.discard(name)
                att = self._attached.get(name)
                if att is not None:
                    att.retired = True
                    if att.refs <= 0:
                        self._close_attachment(name, att)
        return removed

    def _segment_namespace(self, name: str) -> Optional[str]:
        try:
            seg = _Segment(name)
        except (FileNotFoundError, OSError):
            return None
        try:
            if bytes(seg.buf[0:8]) != _MAGIC:
                return None
            (hlen,) = struct.unpack("<Q", seg.buf[8:16])
            header = json.loads(bytes(seg.buf[24 : 24 + hlen]).decode("utf-8"))
            return header.get("namespace")
        except Exception:
            return None
        finally:
            seg.close()

    def segment_count(self) -> int:
        """Live token-prefixed segments on the host (committed or not)."""
        return len(self._token_segments())

    def segment_bytes(self) -> int:
        """Total bytes of live token-prefixed segments."""
        total = 0
        for name in self._token_segments():
            try:
                total += os.path.getsize(os.path.join(_SHM_DIR, name))
            except OSError:
                pass
        return total

    def stats(self) -> dict:
        with self._lock:
            counters = {
                # Canonical cross-tier keys first (every ArtifactStore
                # reports saves/save_skips/loads/load_hits uniformly) …
                "saves": self._publishes,
                "save_skips": self._publish_skips,
                "loads": self._loads,
                "load_hits": self._load_hits,
                # … then the shm-specific detail (publishes aliases
                # saves for backward compatibility).
                "publishes": self._publishes,
                "publish_bytes": self._publish_bytes,
                "attaches": self._attaches,
                "orphans_swept": self._swept,
                "attached_segments": len(self._attached),
            }
        counters["segments"] = self.segment_count()
        counters["segment_bytes"] = self.segment_bytes()
        counters["token"] = self.token
        counters["owner"] = self.owner
        return counters

    def close(self) -> None:
        """Detach everything; an owner also unlinks its token segments.

        Idempotent.  Attachments with live views are marked retired and
        close when their last view dies; the *names* are gone at once,
        so nothing leaks even while a caller still holds arrays.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            attachments = list(self._attached.items())
        if self.owner:
            for name in self._token_segments():
                try:
                    self._unlink_name(name)
                except OSError:
                    pass
            atexit.unregister(self.close)
        with self._lock:
            for name, att in attachments:
                att.retired = True
                if att.refs <= 0:
                    self._close_attachment(name, att)
            self._published.clear()


class _SegmentArchive:
    """Archive facade over one committed segment for the store codec.

    ``archive[aid]`` materializes a read-only view into the segment and
    registers a finalizer so the attachment's refcount tracks live
    views.
    """

    def __init__(
        self,
        store: SharedMemoryStore,
        name: str,
        att: _Attachment,
        header: dict,
        data_start: int,
    ) -> None:
        self._store_ref = weakref.ref(store)
        self._store = store
        self._name = name
        self._att = att
        self._metas = header["arrays"]
        self._data_start = data_start

    def __getitem__(self, aid: str) -> np.ndarray:
        meta = self._metas[aid]
        arr = np.ndarray(
            tuple(meta["shape"]),
            dtype=np.dtype(meta["dtype"]),
            buffer=self._att.segment.buf,
            offset=self._data_start + meta["offset"],
            order=meta["order"],
        )
        arr.flags.writeable = False
        self._store._take_ref(self._name, self._att)
        weakref.finalize(arr, _release_view, self._store_ref, self._name, self._att)
        return arr


class TieredArtifactStore(ArtifactStore):
    """shm-over-disk(-over-remote) composition behind one store surface.

    Reads: shm → disk → remote (a lower-tier hit is promoted into shm
    so the *next* reader on the host maps it).  Writes: shm best-effort
    + disk durable + remote replicated — except the ``batch``
    namespace, whose payloads exist only for the duration of one
    in-flight batch and therefore skip disk entirely when shm is live
    (the zero-disk hot path the process backend's warm batches ride);
    batch payloads *do* replicate to an attached remote, which is how a
    sharding coordinator hands request payloads to its hosts.

    The remote tier (a :class:`~repro.dist.remote.RemoteArtifactStore`
    speaking to a ``repro-map store-serve`` process) is strictly
    best-effort at runtime: an unreachable remote reads as a miss and
    drops writes, never raises — local tiers keep the host correct.
    """

    #: Namespaces that never touch disk while the shm tier is live.
    EPHEMERAL_NAMESPACES = frozenset({"batch"})

    def __init__(
        self,
        root: str,
        *,
        namespaces: frozenset = DEFAULT_PERSIST_NAMESPACES,
        owner: bool = True,
        mmap_reads: Optional[bool] = None,
        use_shm: bool = True,
        remote=None,
    ) -> None:
        if use_shm and not shm_available():
            raise RuntimeError(
                "the shm store tier needs working POSIX shared memory and "
                "a listable /dev/shm; use tier='auto' to fall back to disk"
            )
        self.disk = DiskArtifactStore(
            root, namespaces=namespaces, mmap_reads=mmap_reads
        )
        self.shm = (
            SharedMemoryStore(root, namespaces=namespaces, owner=owner)
            if use_shm
            else None
        )
        if isinstance(remote, str):
            from repro.dist.remote import RemoteArtifactStore  # lazy

            remote = RemoteArtifactStore(remote, namespaces=namespaces)
        self.remote = remote
        self.tier = "shm" if use_shm else "disk"

    # -- identity ------------------------------------------------------
    @property
    def root(self) -> str:
        return self.disk.root

    @property
    def namespaces(self) -> frozenset:
        return self.disk.namespaces

    def path_for(self, namespace: str, key: Hashable) -> str:
        return self.disk.path_for(namespace, key)

    # -- save / load ---------------------------------------------------
    def save(
        self, namespace: str, key: Hashable, value: Any, *, force: bool = False
    ) -> str:
        published = (
            self.shm.save(namespace, key, value, force=force)
            if self.shm is not None
            else False
        )
        if self.remote is not None:
            # Replicate so sibling hosts can read it; the remote client
            # degrades to a no-op when the server is unreachable.
            self.remote.save(namespace, key, value, force=force)
        if published and namespace in self.EPHEMERAL_NAMESPACES:
            return self.path_for(namespace, key)  # shm-only by design
        return self.disk.save(namespace, key, value, force=force)

    def load(self, namespace: str, key: Hashable, default: Any = None) -> Any:
        if self.shm is not None:
            value = self.shm.load(namespace, key, default=_MISSING)
            if value is not _MISSING:
                return value
        value = self.disk.load(namespace, key, default=_MISSING)
        if value is not _MISSING:
            if self.shm is not None and namespace not in self.EPHEMERAL_NAMESPACES:
                self.shm.save(namespace, key, value)  # promote for the host
            return value
        if self.remote is not None:
            value = self.remote.load(namespace, key, default=_MISSING)
            if value is not _MISSING:
                # Remote reads promote into shm (memory-speed for the
                # whole host) — or onto disk when shm is off, so the
                # next reader skips the network round trip.
                if self.shm is not None:
                    self.shm.save(namespace, key, value)
                elif namespace not in self.EPHEMERAL_NAMESPACES:
                    self.disk.save(namespace, key, value)
                return value
        return default

    def contains(self, namespace: str, key: Hashable) -> bool:
        if self.shm is not None and self.shm.contains(namespace, key):
            return True
        if self.disk.contains(namespace, key):
            return True
        return self.remote is not None and self.remote.contains(namespace, key)

    def delete(self, namespace: str, key: Hashable) -> bool:
        removed = self.shm.delete(namespace, key) if self.shm is not None else False
        if self.remote is not None:
            removed = self.remote.delete(namespace, key) or removed
        return self.disk.delete(namespace, key) or removed

    # -- maintenance ---------------------------------------------------
    def sweep_orphans(self, *, min_age_s: float = 300.0) -> int:
        # The remote store is deliberately *not* swept here: its root
        # belongs to the server process (and to every other host), so
        # crash hygiene there is the server's job.
        removed = self.disk.sweep_orphans(min_age_s=min_age_s)
        if self.shm is not None:
            removed += self.shm.sweep_orphans(min_age_s=min_age_s)
        return removed

    def clear(self, namespace: Optional[str] = None) -> int:
        if self.shm is not None:
            self.shm.clear(namespace)
        return self.disk.clear(namespace)

    def file_count(self, namespace: Optional[str] = None) -> int:
        return self.disk.file_count(namespace)

    def stats(self) -> dict:
        disk = self.disk.stats()
        shm = self.shm.stats() if self.shm is not None else None
        remote = self.remote.stats() if self.remote is not None else None
        # Canonical cross-tier keys: every load consults the front tier
        # first and hits at most one tier, and every non-ephemeral save
        # runs through the durable disk tier (where duplicate detection
        # lives) — so these rollups count tiered-level operations, not
        # per-tier traffic sums.
        front = shm if shm is not None else disk
        stats = {
            "tier": self.tier,
            "saves": disk["saves"],
            "save_skips": disk["save_skips"],
            "loads": front["loads"],
            "load_hits": sum(
                tier["load_hits"] for tier in (shm, disk, remote) if tier
            ),
        }
        if shm is not None:
            stats["shm"] = shm
        stats["disk"] = disk
        if remote is not None:
            stats["remote"] = remote
        return stats

    def close(self) -> None:
        if self.shm is not None:
            self.shm.close()
        if self.remote is not None:
            self.remote.close()
