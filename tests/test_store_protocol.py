"""Artifact-store contract suite.

:class:`~repro.api.store.DiskArtifactStore` is the one artifact store
behind the engine's artifact plane.  This module pins its contract:
round-trips of every artifact value shape the engine publishes,
duplicate-save skipping (canonical ``save_skips`` counter),
``force=True`` re-publish, corruption tolerance (garbled bytes load as
*default*, never raise), namespace isolation under one key, delete /
contains coherence, orphan sweeping, and the canonical stats keys.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.api.store import DiskArtifactStore, artifact_digest
from repro.graph.task_graph import TaskGraph


# The test ids keep naming the backend ("[disk]").
@pytest.fixture(params=["disk"])
def store(request, tmp_path):
    """A fresh disk store, cleared after the test."""
    s = DiskArtifactStore(str(tmp_path / "store"))
    yield s
    s.clear()


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
    """The store contract."""

    def test_is_artifact_store(self, store):
        assert type(store) is DiskArtifactStore
        assert "tier" not in store.stats()

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
