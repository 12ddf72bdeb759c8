"""Store-protocol conformance suite: one contract, every backend.

:class:`~repro.api.store.ArtifactStore` is the formal protocol behind
the engine's artifact plane, and :func:`~repro.api.store.make_store`
is its single construction path.  This module runs the *same* battery
of contract tests over every backend the engine can hand out —

* ``DiskArtifactStore`` (durable ``.npz`` files),
* ``RemoteArtifactStore`` over a loopback
  :class:`~repro.dist.remote.ArtifactStoreServer`,
* ``TieredArtifactStore``, the disk store layered over a remote,

so a backend cannot drift from the contract without a test naming it.
The battery pins: round-trips of every artifact value shape the engine
publishes, duplicate-save skipping (canonical ``save_skips`` counter),
``force=True`` re-publish, corruption tolerance (garbled bytes load as
*default*, never raise), namespace isolation under one key, delete /
contains coherence, orphan sweeping, and the canonical stats keys.
The store server must also refuse any namespace or digest that would
address a path outside its root, and stay up afterwards.
"""

from __future__ import annotations

import glob
import os
import socket
import time

import numpy as np
import pytest

from repro.api.store import (
    ArtifactStore,
    DiskArtifactStore,
    TieredArtifactStore,
    artifact_digest,
    make_store,
)
from repro.dist.remote import ArtifactStoreServer, RemoteArtifactStore
from repro.graph.task_graph import TaskGraph
from repro.serve.protocol import recv_frame, send_blob, send_frame

BACKENDS = ["disk", "remote", "tiered-remote"]


@pytest.fixture(scope="module")
def store_server(tmp_path_factory):
    """One loopback artifact-store server shared by the remote backends."""
    root = tmp_path_factory.mktemp("remote-store")
    server = ArtifactStoreServer(str(root)).start()
    yield server
    server.stop()


def _remote_address(server: ArtifactStoreServer) -> str:
    host, port = server.address
    return f"{host}:{port}"


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path, store_server):
    """A fresh store of each backend flavour, closed after the test."""
    kind = request.param
    root = str(tmp_path / "store")
    if kind == "disk":
        s = make_store(root)
        assert type(s) is DiskArtifactStore
    elif kind == "remote":
        s = RemoteArtifactStore(_remote_address(store_server))
    else:  # tiered-remote
        s = make_store(root, remote=_remote_address(store_server))
        assert isinstance(s, TieredArtifactStore)
    yield s
    try:
        s.clear()
    except Exception:
        pass
    s.close()


def _sample_values():
    """Every artifact value shape the engine publishes through a store."""
    tg = TaskGraph.from_edges(
        4, np.array([0, 1, 2]), np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0])
    )
    return {
        "array": np.arange(12, dtype=np.float64).reshape(3, 4),
        "int-array": np.arange(7, dtype=np.int32),
        "scalar": 42,
        "string": "hello-store",
        "tuple": (np.arange(3), 7, "mixed"),
        "dict": {"gamma": np.arange(5), "elapsed": 0.25, "note": "ok"},
        "grouping-pair": (np.arange(8, dtype=np.int64) // 2, tg),
    }


class TestConformance:
    """The battery every backend must pass."""

    def test_is_artifact_store(self, store):
        assert isinstance(store, ArtifactStore)
        assert store.tier in ("disk", "remote")

    def test_round_trip_value_shapes(self, store):
        for name, value in _sample_values().items():
            assert store.save("grouping", ("rt", name), value)
            got = store.load("grouping", ("rt", name))
            assert got is not None, f"round trip lost {name}"
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(got, value)
            elif name == "grouping-pair":
                np.testing.assert_array_equal(got[0], value[0])
                assert got[1].num_tasks == value[1].num_tasks
            elif name == "dict":
                np.testing.assert_array_equal(got["gamma"], value["gamma"])
                assert got["elapsed"] == value["elapsed"]
            else:
                assert type(got) is type(value)

    def test_missing_key_returns_default(self, store):
        assert store.load("grouping", ("absent",)) is None
        assert store.load("grouping", ("absent",), default="fallback") == "fallback"
        assert not store.contains("grouping", ("absent",))

    def test_duplicate_save_skipped(self, store):
        key = ("dup", 1)
        assert store.save("grouping", key, np.arange(4))
        before = store.stats()["save_skips"]
        store.save("grouping", key, np.arange(4))
        assert store.stats()["save_skips"] == before + 1
        np.testing.assert_array_equal(store.load("grouping", key), np.arange(4))

    def test_force_resaves(self, store):
        key = ("force", 1)
        store.save("grouping", key, np.zeros(3))
        store.save("grouping", key, np.ones(3), force=True)
        np.testing.assert_array_equal(store.load("grouping", key), np.ones(3))

    def test_namespace_isolation(self, store):
        key = ("shared-key", 9)
        store.save("grouping", key, np.full(3, 1.0))
        store.save("route_table", key, np.full(3, 2.0))
        np.testing.assert_array_equal(store.load("grouping", key), np.full(3, 1.0))
        np.testing.assert_array_equal(store.load("route_table", key), np.full(3, 2.0))
        assert store.delete("grouping", key)
        assert store.load("grouping", key) is None
        np.testing.assert_array_equal(store.load("route_table", key), np.full(3, 2.0))

    def test_delete_and_contains(self, store):
        key = ("del", 3)
        assert not store.delete("grouping", key)
        store.save("grouping", key, "value")
        assert store.contains("grouping", key)
        assert store.delete("grouping", key)
        assert not store.contains("grouping", key)
        assert not store.delete("grouping", key)

    def test_stats_canonical_keys(self, store):
        store.save("grouping", ("stat", 1), np.arange(2))
        store.load("grouping", ("stat", 1))
        store.load("grouping", ("stat-miss",))
        stats = store.stats()
        for counter in ("saves", "save_skips", "loads", "load_hits"):
            assert counter in stats, f"missing canonical stats key {counter!r}"
            assert stats[counter] >= 0
        assert stats["saves"] >= 1
        assert stats["loads"] >= 2
        assert stats["load_hits"] >= 1

    def test_sweep_orphans_runs(self, store):
        assert store.sweep_orphans(min_age_s=0.0) >= 0


class Opaque:
    """Module-level (hence picklable) type with no native codec kind —
    forces the pickle-protocol-5 out-of-band path."""

    def __init__(self, payload, label):
        self.payload = payload
        self.label = label


class TestDiskStore:
    def test_save_skips_existing_matching_artifact(self, tmp_path):
        store = DiskArtifactStore(str(tmp_path))
        path = store.save("grouping", "k", np.arange(10))
        before = os.path.getmtime(path)
        time.sleep(0.01)
        again = store.save("grouping", "k", np.arange(10))
        assert again == path
        assert os.path.getmtime(path) == before  # untouched, not rewritten
        assert store.stats()["save_skips"] == 1
        # force=True rewrites (ArtifactCache.put revises DEF baselines).
        store.save("grouping", "k", np.arange(10), force=True)
        assert os.path.getmtime(path) >= before
        assert store.stats()["saves"] == 2

    def test_pickle5_out_of_band_roundtrip(self, tmp_path):
        store = DiskArtifactStore(str(tmp_path))
        obj = Opaque(np.arange(1000, dtype=np.float64), label="oob")
        store.save("grouping", "k", obj)
        out = store.load("grouping", "k")
        assert isinstance(out, Opaque) and out.label == "oob"
        np.testing.assert_array_equal(out.payload, obj.payload)


class TestCorruptionTolerance:
    """Garbled bytes load as *default* — recompute, never wrong data."""

    def test_disk_corruption(self, tmp_path):
        store = DiskArtifactStore(str(tmp_path / "s"))
        store.save("grouping", ("c", 1), np.arange(4))
        digest = artifact_digest("grouping", ("c", 1))
        path = os.path.join(store.root, "grouping", f"{digest}.npz")
        with open(path, "wb") as fh:
            fh.write(b"this is not an npz archive")
        assert store.load("grouping", ("c", 1)) is None

    def test_remote_corruption(self, tmp_path):
        server = ArtifactStoreServer(str(tmp_path / "r")).start()
        try:
            client = RemoteArtifactStore(_remote_address(server))
            client.save("grouping", ("c", 2), np.arange(4))
            digest = artifact_digest("grouping", ("c", 2))
            (path,) = glob.glob(
                os.path.join(str(tmp_path / "r"), "grouping", f"{digest}.*")
            )
            with open(path, "wb") as fh:
                fh.write(b"garbage over the wire")
            assert client.load("grouping", ("c", 2)) is None
            client.close()
        finally:
            server.stop()

    def test_remote_server_gone_degrades(self, tmp_path):
        server = ArtifactStoreServer(str(tmp_path / "g")).start()
        client = RemoteArtifactStore(_remote_address(server))
        client.save("grouping", ("gone", 1), np.arange(3))
        server.stop()
        # runtime degradation: misses and falsy saves, never an exception
        assert client.load("grouping", ("gone", 1)) is None
        assert not client.save("grouping", ("gone", 2), np.arange(3))
        assert not client.contains("grouping", ("gone", 1))
        assert client.stats()["errors"] >= 1
        client.close()


class TestMakeStore:
    """``make_store`` is the single construction path."""

    def test_disk_tier(self, tmp_path):
        store = make_store(str(tmp_path / "d"))
        assert type(store) is DiskArtifactStore
        store.close()

    def test_remote_layering(self, tmp_path, store_server):
        store = make_store(
            str(tmp_path / "t"),
            remote=_remote_address(store_server),
        )
        assert isinstance(store, TieredArtifactStore)
        # a write replicates to the remote; a sibling root reads it back
        store.save("grouping", ("repl", 1), np.arange(5))
        sibling = make_store(
            str(tmp_path / "t2"),
            remote=_remote_address(store_server),
        )
        np.testing.assert_array_equal(
            sibling.load("grouping", ("repl", 1)), np.arange(5)
        )
        store.close()
        sibling.close()

    def test_remote_connection_failure_raises(self, tmp_path):
        with pytest.raises(ConnectionError):
            make_store(str(tmp_path / "f"), remote="127.0.0.1:1")


class TestStoreServerNames:
    """Namespaces and digests that are not one plain path component are
    refused with a structured error; nothing outside the root changes."""

    BAD_NAMES = ["..", ".", "a/b", ""]

    @staticmethod
    def _snapshot(top):
        tree = {}
        for dirpath, dirnames, filenames in os.walk(top):
            tree[dirpath] = sorted(dirnames)
            for name in filenames:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    tree[path] = (os.path.getmtime(path), fh.read())
        return tree

    @staticmethod
    def _ops(name):
        good = artifact_digest("grouping", "k")
        for ns, digest in ((name, good), ("grouping", name)):
            yield {"op": "save", "ns": ns, "digest": digest, "force": True}, b"blob"
            yield {"op": "load", "ns": ns, "digest": digest}, None
            yield {"op": "contains", "ns": ns, "digest": digest}, None
            yield {"op": "delete", "ns": ns, "digest": digest}, None
        yield {"op": "clear", "ns": name}, None
        yield {"op": "count", "ns": name}, None

    def test_bad_names_are_refused_and_touch_nothing(self, tmp_path):
        outer = tmp_path / "outer"
        root = outer / "root"
        server = ArtifactStoreServer(str(root)).start()
        try:
            client = RemoteArtifactStore(_remote_address(server))
            client.save("grouping", "k", np.arange(3))
            (outer / "unrelated.npz").write_bytes(b"not the store's")
            before = self._snapshot(str(outer))
            # The client surface degrades to a refused (falsy) save.
            assert not client.save("..", "k", 123)
            assert client.clear("..") == 0
            with socket.create_connection(server.address, timeout=10) as sock:
                for name in self.BAD_NAMES:
                    for frame, blob in self._ops(name):
                        send_frame(sock, frame)
                        if blob is not None:
                            send_blob(sock, blob)
                        reply = recv_frame(sock)
                        assert reply["ok"] is False, (frame, reply)
                        assert "invalid namespace or digest" in reply["error"]
                # The same connection keeps serving.
                send_frame(sock, {"op": "ping"})
                assert recv_frame(sock)["ok"] is True
            assert self._snapshot(str(outer)) == before
            np.testing.assert_array_equal(client.load("grouping", "k"), np.arange(3))
            client.close()
        finally:
            server.stop()
