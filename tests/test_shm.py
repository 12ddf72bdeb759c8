"""The zero-copy artifact plane: shm segments, tiering, OOB IPC, leaks.

What must hold:

* :class:`~repro.api.shm.SharedMemoryStore` round-trips every artifact
  kind byte for byte, hands out **read-only** views (mutation raises),
  refcounts attachments so ``delete`` unlinks the *name* immediately
  while live views keep reading, and an owner's ``close`` reaps every
  token-prefixed segment.
* A publisher killed mid-publish leaves an *uncommitted* segment:
  readers treat it as a miss and ``sweep_orphans`` reaps it under the
  same age-gated contract as the disk store's ``.tmp`` files.
* :class:`~repro.api.store.DiskArtifactStore` gains mmap'd lazy reads
  (still byte-identical), content-addressed save skipping, and a
  read-canary used to *prove* warm process batches do zero disk I/O.
* The tiered store keeps ``batch`` payloads shared-memory-only, and a
  pooled process batch — including one whose worker is killed —
  neither leaks segments nor rereads disk when warm.
"""

from __future__ import annotations

import gc
import os
import struct
import subprocess
import sys
import textwrap
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.api import (
    DiskArtifactStore,
    ExecutorPool,
    FaultInjector,
    MappingService,
    MapRequest,
    SharedMemoryStore,
    TieredArtifactStore,
    make_store,
    shm_available,
)
from repro.api.shm import _MAGIC, _PREFIX, STORE_TIERS
from repro.api.store import READS_FORBIDDEN_ENV
from repro.graph.task_graph import TaskGraph
from repro.topology.allocation import AllocationSpec, SparseAllocator
from repro.topology.torus import Torus3D

needs_shm = pytest.mark.skipif(
    not shm_available(),
    reason="shared-memory store tier unavailable on this host",
)


class Opaque:
    """Module-level (hence picklable) type with no native codec kind —
    forces the pickle-protocol-5 out-of-band path."""

    def __init__(self, payload, label):
        self.payload = payload
        self.label = label


@pytest.fixture()
def workload():
    """16-task graph on 8 nodes × 2 processors (2x2x2 torus) — small
    enough for pooled tests on one core."""
    torus = Torus3D((2, 2, 2))
    machine = SparseAllocator(torus).allocate(
        AllocationSpec(num_nodes=8, procs_per_node=2, fragmentation=0.3, seed=4)
    )
    rng = np.random.default_rng(7)
    n, m = 16, 90
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    keep = src != dst
    tg = TaskGraph.from_edges(
        n, src[keep], dst[keep], rng.uniform(1, 5, keep.sum())
    )
    return tg, machine


def _request(tg, machine, tag, algos=("UG",), seed=3):
    return MapRequest(
        task_graph=tg, machine=machine, algorithms=algos, seed=seed, tag=tag
    )


def _assert_same_mapping(a, b):
    np.testing.assert_array_equal(a.fine_gamma, b.fine_gamma)
    np.testing.assert_array_equal(a.coarse_gamma, b.coarse_gamma)


def _token_segments(store: SharedMemoryStore):
    prefix = "rpr" + store.token
    try:
        return [n for n in os.listdir("/dev/shm") if n.startswith(prefix)]
    except OSError:
        return []


class TestDiskTierFeatures:
    """mmap reads, save skipping and the read canary need no shm."""

    def test_mmap_load_returns_read_only_views(self, tmp_path):
        store = DiskArtifactStore(str(tmp_path), mmap_reads=True)
        value = {
            "a": np.arange(500, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 333),
        }
        store.save("grouping", "k", value)
        out = store.load("grouping", "k")
        np.testing.assert_array_equal(out["a"], value["a"])
        np.testing.assert_array_equal(out["b"], value["b"])
        assert not out["a"].flags.writeable
        with pytest.raises(ValueError):
            out["a"][0] = 99
        stats = store.stats()
        assert stats["tier"] == "disk"
        assert stats["mmap_reads"] is True
        assert stats["loads"] == 1 and stats["load_hits"] == 1

    def test_mmap_matches_eager_decoder(self, tmp_path):
        eager = DiskArtifactStore(str(tmp_path), mmap_reads=False)
        lazy = DiskArtifactStore(str(tmp_path), mmap_reads=True)
        value = {
            "c_order": np.arange(60, dtype=np.float64).reshape(6, 10),
            "f_order": np.asfortranarray(np.arange(24).reshape(4, 6)),
            "empty": np.zeros(0, dtype=np.int32),
            "scalar": 7,
            "nested": (np.arange(5), [1.5, "x"]),
        }
        eager.save("grouping", "same", value)
        a = eager.load("grouping", "same")
        b = lazy.load("grouping", "same")
        np.testing.assert_array_equal(a["c_order"], b["c_order"])
        np.testing.assert_array_equal(a["f_order"], b["f_order"])
        np.testing.assert_array_equal(a["empty"], b["empty"])
        assert a["scalar"] == b["scalar"]
        np.testing.assert_array_equal(a["nested"][0], b["nested"][0])
        assert a["nested"][1] == b["nested"][1]

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

    def test_read_canary_raises_when_armed(self, tmp_path, monkeypatch):
        flag = tmp_path / "no-disk-reads"
        monkeypatch.setenv(READS_FORBIDDEN_ENV, str(flag))
        store = DiskArtifactStore(str(tmp_path / "store"))
        store.save("grouping", "k", np.arange(4))
        assert store.load("grouping", "k") is not None  # flag absent: fine
        flag.touch()
        with pytest.raises(RuntimeError, match="forbidden"):
            store.load("grouping", "k")

    def test_pickle5_out_of_band_roundtrip(self, tmp_path):
        store = DiskArtifactStore(str(tmp_path))
        obj = Opaque(np.arange(1000, dtype=np.float64), label="oob")
        store.save("grouping", "k", obj)
        out = store.load("grouping", "k")
        assert isinstance(out, Opaque) and out.label == "oob"
        np.testing.assert_array_equal(out.payload, obj.payload)


@needs_shm
class TestSharedMemoryStore:
    def test_round_trip_kinds_byte_identical(self, tmp_path, workload):
        tg, _ = workload
        store = SharedMemoryStore(str(tmp_path), owner=True)
        try:
            cases = {
                "arr": np.arange(777, dtype=np.int32),
                "f_order": np.asfortranarray(np.arange(24.0).reshape(4, 6)),
                "scalar": 3.5,
                "nested": {"t": (np.arange(9), [1, "x"]), "n": None},
                "graph": tg,
            }
            for key, value in cases.items():
                assert store.save("grouping", key, value)
            out = store.load("grouping", "arr")
            np.testing.assert_array_equal(out, cases["arr"])
            out = store.load("grouping", "f_order")
            np.testing.assert_array_equal(out, cases["f_order"])
            assert store.load("grouping", "scalar") == 3.5
            nested = store.load("grouping", "nested")
            np.testing.assert_array_equal(nested["t"][0], np.arange(9))
            assert nested["t"][1] == [1, "x"] and nested["n"] is None
            g2 = store.load("grouping", "graph")
            np.testing.assert_array_equal(g2.graph.indptr, tg.graph.indptr)
            np.testing.assert_array_equal(g2.graph.indices, tg.graph.indices)
            np.testing.assert_array_equal(g2.graph.weights, tg.graph.weights)
            assert store.load("grouping", "absent", default="d") == "d"
        finally:
            store.close()

    def test_views_are_read_only_and_zero_copy(self, tmp_path):
        store = SharedMemoryStore(str(tmp_path), owner=True)
        try:
            store.save("grouping", "k", np.arange(100, dtype=np.int64))
            view = store.load("grouping", "k")
            assert not view.flags.writeable
            assert not view.flags.owndata  # a view into the segment
            with pytest.raises(ValueError):
                view[0] = 1
        finally:
            store.close()

    def test_second_store_attaches_same_segment(self, tmp_path):
        writer = SharedMemoryStore(str(tmp_path), owner=True)
        reader = SharedMemoryStore(str(tmp_path), owner=False)
        try:
            writer.save("route_table", "k", np.arange(64, dtype=np.uint8))
            out = reader.load("route_table", "k")
            np.testing.assert_array_equal(out, np.arange(64, dtype=np.uint8))
            assert reader.contains("route_table", "k")
            del out
            gc.collect()
        finally:
            reader.close()
            writer.close()
        assert _token_segments(writer) == []

    def test_attach_never_registers_with_resource_tracker(self, tmp_path, monkeypatch):
        """Only a publisher registers a segment (and unregisters it once
        committed); readers stay out of the tracker, whose one entry per
        name several attaching processes would otherwise unregister
        twice."""
        from multiprocessing import resource_tracker

        writer = SharedMemoryStore(str(tmp_path), owner=True)
        reader = SharedMemoryStore(str(tmp_path), owner=False)
        try:
            writer.save("route_table", "k", np.arange(64, dtype=np.uint8))
            calls = []
            monkeypatch.setattr(resource_tracker, "register", lambda *a: calls.append(a))
            out = reader.load("route_table", "k")
            assert reader.contains("route_table", "k")
            assert writer.save("route_table", "k", np.arange(64, dtype=np.uint8))
            assert calls == []
            del out
            gc.collect()
        finally:
            reader.close()
            writer.close()

    def test_delete_unlinks_name_but_live_views_survive(self, tmp_path):
        store = SharedMemoryStore(str(tmp_path), owner=True)
        try:
            store.save("grouping", "k", np.arange(50))
            view = store.load("grouping", "k")
            assert store.delete("grouping", "k")
            # Name gone at once: fresh attaches and contains() miss.
            assert not store.contains("grouping", "k")
            assert store.load("grouping", "k", default="miss") == "miss"
            assert _token_segments(store) == []
            # ... but the live view still reads valid memory.
            np.testing.assert_array_equal(view, np.arange(50))
            assert store.stats()["attached_segments"] == 1
            del view
            gc.collect()
            # Last view died: the retired attachment closed with it.
            assert store.stats()["attached_segments"] == 0
        finally:
            store.close()

    def test_owner_close_reaps_token_segments(self, tmp_path):
        store = SharedMemoryStore(str(tmp_path), owner=True)
        for i in range(3):
            store.save("grouping", f"k{i}", np.arange(10 + i))
        assert store.segment_count() == 3
        assert store.segment_bytes() > 0
        store.close()
        assert _token_segments(store) == []
        # close is idempotent; a closed store declines publishes.
        store.close()
        assert store.save("grouping", "late", np.arange(3)) is False

    def test_non_owner_close_only_detaches(self, tmp_path):
        writer = SharedMemoryStore(str(tmp_path), owner=True)
        worker = SharedMemoryStore(str(tmp_path), owner=False)
        try:
            worker.save("grouping", "k", np.arange(5))
            worker.close()
            # The segment survives the worker: siblings still read it.
            assert writer.contains("grouping", "k")
        finally:
            writer.close()
        assert _token_segments(writer) == []

    def _orphan(self, store, namespace, key, nbytes=256):
        """Plant an *uncommitted* segment — a mid-publish crash corpse."""
        name = store.segment_name(namespace, key)
        seg = shared_memory.SharedMemory(create=True, size=nbytes, name=name)
        seg.buf[8:16] = struct.pack("<Q", 0)  # partial write, no magic
        seg.close()
        return name

    def test_uncommitted_segment_reads_as_miss(self, tmp_path):
        store = SharedMemoryStore(str(tmp_path), owner=True)
        try:
            self._orphan(store, "grouping", "torn")
            assert store.load("grouping", "torn", default="miss") == "miss"
            assert not store.contains("grouping", "torn")
        finally:
            store.close()

    def test_sweep_orphans_is_age_gated_and_spares_committed(self, tmp_path):
        store = SharedMemoryStore(str(tmp_path), owner=True)
        try:
            store.save("grouping", "live", np.arange(8))
            self._orphan(store, "grouping", "torn")
            # Young orphans survive (a live publisher may own them) ...
            assert store.sweep_orphans(min_age_s=3600) == 0
            assert len(_token_segments(store)) == 2
            # ... aged ones are reaped; committed artifacts never are.
            assert store.sweep_orphans(min_age_s=0) == 1
            names = _token_segments(store)
            assert names == [store.segment_name("grouping", "live")]
            assert store.load("grouping", "live") is not None
        finally:
            store.close()

    def test_publish_over_crash_corpse_retries_once(self, tmp_path):
        store = SharedMemoryStore(str(tmp_path), owner=True)
        try:
            self._orphan(store, "grouping", "k")
            assert store.save("grouping", "k", np.arange(12))
            np.testing.assert_array_equal(
                store.load("grouping", "k"), np.arange(12)
            )
        finally:
            store.close()


@needs_shm
class TestTieredStore:
    def test_batch_namespace_never_touches_disk(self, tmp_path, workload):
        tg, _ = workload
        store = TieredArtifactStore(str(tmp_path))
        try:
            store.save("batch", "b0", ("payload", tg))
            assert store.file_count("batch") == 0  # shm-only by design
            assert store.shm.contains("batch", "b0")
            out = store.load("batch", "b0")
            assert out[0] == "payload"
            np.testing.assert_array_equal(
                out[1].graph.indptr, tg.graph.indptr
            )
            store.delete("batch", "b0")
            assert not store.contains("batch", "b0")
        finally:
            store.close()

    def test_persistent_namespaces_write_through(self, tmp_path):
        store = TieredArtifactStore(str(tmp_path))
        try:
            store.save("grouping", "k", np.arange(30))
            assert store.shm.contains("grouping", "k")
            assert store.disk.contains("grouping", "k")
        finally:
            store.close()
        # The shm half is gone with its owner; disk is the durable tier.
        survivor = TieredArtifactStore(str(tmp_path))
        try:
            assert not survivor.shm.contains("grouping", "k")
            np.testing.assert_array_equal(
                survivor.load("grouping", "k"), np.arange(30)
            )
            # The disk hit was promoted: now mapped for the whole host.
            assert survivor.shm.contains("grouping", "k")
        finally:
            survivor.close()

    def test_make_store_resolution(self, tmp_path):
        disk = make_store(str(tmp_path), tier="disk")
        assert isinstance(disk, DiskArtifactStore) and disk.tier == "disk"
        shm = make_store(str(tmp_path), tier="shm")
        try:
            assert isinstance(shm, TieredArtifactStore) and shm.tier == "shm"
        finally:
            shm.close()
        auto = make_store(str(tmp_path), tier="auto")
        try:
            assert isinstance(auto, TieredArtifactStore)
        finally:
            auto.close()
        with pytest.raises(ValueError):
            make_store(str(tmp_path), tier="tape")
        assert set(STORE_TIERS) == {"auto", "shm", "disk"}

    def test_stats_expose_both_tiers(self, tmp_path):
        store = TieredArtifactStore(str(tmp_path))
        try:
            store.save("grouping", "k", np.arange(4))
            store.load("grouping", "k")
            stats = store.stats()
            assert stats["tier"] == "shm"
            assert stats["shm"]["publishes"] == 1
            assert stats["shm"]["load_hits"] == 1
            assert stats["shm"]["segments"] == 1
            assert stats["disk"]["tier"] == "disk"
        finally:
            store.close()


@needs_shm
class TestPooledZeroCopy:
    def test_warm_process_batch_does_zero_disk_reads(
        self, tmp_path, monkeypatch, workload
    ):
        """The headline contract: a warm pooled batch never reads disk.

        The canary flag makes *any* ``DiskArtifactStore.load`` — in the
        parent or any pool worker (the env var is inherited at spawn,
        the flag file is created later) — raise instead of read, so the
        warm batch succeeding is the proof, not a counter that might
        miss a process.
        """
        tg, machine = workload
        flag = tmp_path / "no-disk-reads"
        monkeypatch.setenv(READS_FORBIDDEN_ENV, str(flag))
        reqs = [_request(tg, machine, f"r{i}", algos=("UG", "UWH")) for i in range(2)]
        with ExecutorPool(
            "process",
            workers=2,
            store_dir=str(tmp_path / "store"),
            store_tier="shm",
        ) as pool:
            service = MappingService(pool=pool)
            cold = service.map_batch(reqs)
            assert all(r.ok for r in cold)
            # Fresh workers: private in-memory caches are gone, so the
            # warm batch must come from the artifact plane.
            pool.respawn()
            flag.touch()  # from here on, a disk read raises
            warm = service.map_batch(reqs)
            assert all(r.ok for r in warm)
            for a, b in zip(cold, warm):
                _assert_same_mapping(a, b)
            stats = pool.stats()["store"]
            assert stats["tier"] == "shm"
            assert stats["disk"]["loads"] == 0  # parent did no disk reads
            assert stats["shm"]["publishes"] > 0

    def test_worker_kill_heals_and_leaks_no_segments(self, tmp_path, workload):
        """A worker killed mid-batch must not leak shm segments: the
        batch heals on the respawned pool and the owner's close reaps
        everything token-prefixed, including the dead worker's
        publishes."""
        tg, machine = workload
        inj = FaultInjector(str(tmp_path / "faults"))
        reqs = [_request(tg, machine, f"r{i}") for i in range(4)]
        baseline = MappingService().map_batch(reqs)
        with inj:
            inj.arm("kill-worker", "r2")
            with ExecutorPool(
                "process",
                workers=2,
                store_dir=str(tmp_path / "store"),
                store_tier="shm",
            ) as pool:
                token = pool.store.shm.token
                service = MappingService(pool=pool)
                out = service.map_batch(reqs, on_error="partial")
                assert all(r.ok for r in out)
                for a, b in zip(baseline, out):
                    _assert_same_mapping(a, b)
                assert pool.restarts == 1
        inj.disarm()
        leftovers = [
            n for n in os.listdir("/dev/shm") if n.startswith("rpr" + token)
        ]
        assert leftovers == []

    def test_batch_payload_stays_off_disk_under_shm_tier(
        self, tmp_path, workload
    ):
        tg, machine = workload
        store_dir = tmp_path / "store"
        with ExecutorPool(
            "process", workers=2, store_dir=str(store_dir), store_tier="shm"
        ) as pool:
            service = MappingService(pool=pool)
            out = service.map_batch([_request(tg, machine, "r0")])
            assert out[0].ok
            assert pool.store.file_count("batch") == 0
            assert not (store_dir / "batch").exists()


#: A pooled shm-tier batch in a fresh interpreter, so the resource
#: tracker it starts writes to a stderr this test can read.
_POOL_EXIT_SCRIPT = textwrap.dedent(
    """
    import os
    import sys
    import threading
    import numpy as np
    from repro.api import ExecutorPool, MappingService, MapRequest
    from repro.graph.task_graph import TaskGraph
    from repro.topology.allocation import AllocationSpec, SparseAllocator
    from repro.topology.torus import Torus3D

    machine = SparseAllocator(Torus3D((2, 2, 2))).allocate(
        AllocationSpec(num_nodes=8, procs_per_node=2, fragmentation=0.3, seed=4)
    )
    rng = np.random.default_rng(7)
    src, dst = rng.integers(0, 16, 90), rng.integers(0, 16, 90)
    keep = src != dst
    tg = TaskGraph.from_edges(16, src[keep], dst[keep], rng.uniform(1, 5, keep.sum()))
    reqs = [
        MapRequest(task_graph=tg, machine=machine, algorithms=("UG", "UWH"),
                   seed=3, grouping_seed=g, tag=f"r{g}")
        for g in range(4)
    ]
    with ExecutorPool("process", workers=2, store_dir=sys.argv[1],
                      store_tier="shm") as pool:
        shm = pool.store.shm
        print(shm.token)
        service = MappingService(pool=pool)
        for _ in range(2):
            assert all(r.ok for r in service.map_batch(reqs))
            pool.respawn()
        # Concurrent attaches of the same published segments, as the
        # workers of a busy pool make them.
        names = [n for n in os.listdir("/dev/shm") if n.startswith("rpr" + shm.token)]
        def attach_all():
            for _ in range(50):
                for name in names:
                    shm._segment_namespace(name)
        threads = [threading.Thread(target=attach_all) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    """
)


@needs_shm
def test_pool_exit_is_silent_and_leaks_no_segments(tmp_path):
    """Several processes attach the same segments; shutting the pool
    down must print no resource-tracker traceback (the tracker keeps
    one entry per name, so attach-side registrations used to be
    unregistered twice) and must leave no segment behind."""
    env = dict(os.environ)
    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _POOL_EXIT_SCRIPT, str(tmp_path / "store")],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    token = proc.stdout.split()[0]
    assert "KeyError" not in proc.stderr, proc.stderr
    assert "resource_tracker" not in proc.stderr, proc.stderr
    leftovers = [n for n in os.listdir("/dev/shm") if n.startswith(_PREFIX + token)]
    assert leftovers == []
