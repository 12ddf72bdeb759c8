"""Tests for the serving layer's ExecutorPool.

Pins the pool lifecycle contracts: lazy spawn, reuse across batches
(byte-identical to serial), idle reap + lazy respawn, a width fixed at
construction (a batch asking for another one is refused, a serial batch
bypasses the pool), and a shutdown that leaves no stray worker
processes.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.api import (
    ArtifactCache,
    DiskArtifactStore,
    EngineConfig,
    ExecutorPool,
    MappingService,
    MapRequest,
)
from repro.graph.task_graph import TaskGraph
from repro.topology.allocation import AllocationSpec, SparseAllocator
from repro.topology.torus import Torus3D


@pytest.fixture()
def setup():
    """24-rank task graph on 8 nodes × 3 processors (4x4x2 torus)."""
    torus = Torus3D((4, 4, 2))
    machine = SparseAllocator(torus).allocate(
        AllocationSpec(num_nodes=8, procs_per_node=3, fragmentation=0.3, seed=4)
    )
    rng = np.random.default_rng(7)
    n, m = 24, 160
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    keep = src != dst
    tg = TaskGraph.from_edges(n, src[keep], dst[keep], rng.uniform(1, 5, keep.sum()))
    return tg, machine


def _request(tg, machine, algos=("DEF", "UG", "UWH", "UMC", "SFC"), seed=2):
    return MapRequest(
        task_graph=tg, machine=machine, algorithms=algos, seed=seed, evaluate=True
    )


def _assert_identical(serial, responses):
    assert len(serial) == len(responses)
    for a, b in zip(serial, responses):
        assert a.algorithm == b.algorithm
        np.testing.assert_array_equal(a.fine_gamma, b.fine_gamma)
        np.testing.assert_array_equal(a.coarse_gamma, b.coarse_gamma)
        assert a.metrics.as_dict() == b.metrics.as_dict()


class TestPoolLifecycle:
    def test_rejects_bad_config(self):
        for backend in ("serial", "thread"):
            with pytest.raises(ValueError, match=backend):
                ExecutorPool(backend)
        with pytest.raises(ValueError):
            ExecutorPool("process", idle_timeout=0)
        with ExecutorPool() as pool:
            assert pool.backend == "process"

    def test_lazy_spawn_and_reuse_across_batches(self, setup):
        """No workers until the first batch; one spawn serves many."""
        tg, machine = setup
        request = _request(tg, machine)
        serial = MappingService().map_batch(request, config=EngineConfig(backend="serial"))
        with ExecutorPool("process", workers=2) as pool:
            service = MappingService(pool=pool)
            assert pool.spawn_count == 0 and not pool.executor_alive
            _assert_identical(serial, service.map_batch(request))
            _assert_identical(serial, service.map_batch(request))
            _assert_identical(serial, service.map_batch(request))
            assert pool.spawn_count == 1
        assert pool.closed

    def test_process_pool_parity_and_store_warmth(self, setup):
        """Persistent process workers share one store across batches."""
        tg, machine = setup
        request = _request(tg, machine)
        serial = MappingService().map_batch(request, config=EngineConfig(backend="serial"))
        with ExecutorPool("process", workers=2) as pool:
            service = MappingService(pool=pool)
            cold = service.map_batch(request)
            _assert_identical(serial, cold)
            # The shared grouping was computed exactly once, pool-wide.
            assert pool.store.file_count("grouping") == 1
            warm = service.map_batch(request)
            _assert_identical(serial, warm)
            # Warm batch: the grouping artifact comes from the store /
            # worker caches, so no response pays prep_time for it.
            assert all(
                r.grouping_cached
                for r in warm
                if r.algorithm not in ("DEF", "TMAP")
            )
            assert pool.spawn_count == 1

    def test_process_batch_creates_no_batch_entry(self, setup):
        """Requests travel with their nodes, not through the pool store."""
        tg, machine = setup
        with ExecutorPool("process", workers=2) as pool:
            service = MappingService(pool=pool)
            service.map_batch(_request(tg, machine, algos=("UG",)))
            assert pool.store.file_count("batch") == 0
            assert not os.path.exists(os.path.join(pool.store.root, "batch"))

    @pytest.mark.parametrize("backend", ["process"])
    def test_batch_scoped_run_leaves_no_live_executor(self, setup, backend):
        """Without ``pool=`` the batch's pool is shut down when it ends."""
        tg, machine = setup
        request = _request(tg, machine, algos=("UG", "UWH"))
        serial = MappingService().map_batch(request, config=EngineConfig(backend="serial"))
        children = set(multiprocessing.active_children())
        out = MappingService().map_batch(request, config=EngineConfig(backend=backend, workers=2))
        _assert_identical(serial, out)
        assert set(multiprocessing.active_children()) <= children

    def test_batch_scoped_process_run_uses_attached_store(self, setup, tmp_path):
        """The batch's workers share the service cache's store root and
        leave only artifacts there (no batch payloads, no runtime
        records)."""
        tg, machine = setup
        store = DiskArtifactStore(str(tmp_path / "store"))
        service = MappingService(cache=ArtifactCache(store=store))
        out = service.map_batch(
            _request(tg, machine, algos=("UG",)), config=EngineConfig(backend="process", workers=2)
        )
        assert out[0].ok
        assert store.file_count("grouping") == 1
        assert store.file_count("batch") == 0
        assert store.file_count("runtime") == 0

    def test_idle_reap_and_lazy_respawn(self, setup):
        tg, machine = setup
        request = _request(tg, machine, algos=("UG",))
        with ExecutorPool("process", workers=2, idle_timeout=0.2) as pool:
            service = MappingService(pool=pool)
            service.map_batch(request)
            assert pool.executor_alive
            deadline = time.monotonic() + 5.0
            while pool.executor_alive and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not pool.executor_alive, "idle workers were not reaped"
            # The pool is still serviceable: next batch respawns.
            service.map_batch(request)
            assert pool.executor_alive
            assert pool.spawn_count == 2

    def test_constructor_serial_default_bypasses_pool(self, setup):
        """An explicit backend="serial" beside a pool stays honored."""
        tg, machine = setup
        with ExecutorPool("process", workers=2) as pool:
            service = MappingService(backend="serial", pool=pool)
            service.map_batch(_request(tg, machine, algos=("UG",)))
            assert pool.spawn_count == 0
            # The pool remains available to a per-batch config.
            request = _request(tg, machine, algos=("UG",))
            service.map_batch(request, config=EngineConfig(backend="process"))
            assert pool.spawn_count == 1

    def test_batch_of_another_shape_is_refused(self, setup):
        """A pool's width is fixed: a batch naming another one raises
        before planning, and the pool never spawns for it."""
        tg, machine = setup
        request = _request(tg, machine, algos=("UG",))
        with ExecutorPool("process", workers=2) as pool:
            service = MappingService(pool=pool)
            with pytest.raises(ValueError, match="fixed"):
                service.map_batch(request, config=EngineConfig(workers=1))
            with pytest.raises(ValueError, match="fixed"):
                MappingService(pool=pool, workers=3).map_batch(request)
            assert pool.spawn_count == 0
            # The pool's own shape, named or not, runs on it.
            service.map_batch(request, config=EngineConfig(workers=2))
            service.map_batch(request)
            assert pool.spawn_count == 1 and pool.workers == 2

    def test_serial_batch_beside_a_pool_spawns_nothing(self, setup):
        tg, machine = setup
        request = _request(tg, machine, algos=("UG",))
        with ExecutorPool("process", workers=2) as pool:
            out = MappingService(pool=pool).map_batch(
                request, config=EngineConfig(backend="serial", workers=5)
            )
            assert out[0].ok
            assert pool.spawn_count == 0 and not pool.executor_alive

    def test_store_access_after_shutdown_rejected(self):
        pool = ExecutorPool("process")
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.store

    def test_shutdown_leaves_no_stray_processes(self, setup):
        tg, machine = setup
        pool = ExecutorPool("process", workers=2)
        MappingService(pool=pool).map_batch(_request(tg, machine, algos=("UG",)))
        pids = pool.worker_pids()
        assert len(pids) >= 1
        pool.shutdown()
        pool.shutdown()  # idempotent
        for pid in pids:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            else:
                pytest.fail(f"worker {pid} survived pool shutdown")
        with pytest.raises(RuntimeError):
            with pool.session():
                pass

    def test_temporary_store_removed_at_shutdown(self, setup):
        pool = ExecutorPool("process")
        root = pool.store.root
        assert os.path.isdir(root)
        pool.shutdown()
        assert not os.path.exists(root)

    def test_explicit_store_dir_survives_shutdown(self, setup, tmp_path):
        tg, machine = setup
        store_dir = str(tmp_path / "artifacts")
        with ExecutorPool("process", workers=2, store_dir=store_dir) as pool:
            MappingService(pool=pool).map_batch(_request(tg, machine, algos=("UG",)))
        assert os.path.isdir(store_dir)  # caller-owned directory persists
        # A later pool over the same directory serves warm artifacts.
        with ExecutorPool("process", workers=2, store_dir=store_dir) as pool:
            responses = MappingService(pool=pool).map_batch(
                _request(tg, machine, algos=("UG",))
            )
            assert all(r.grouping_cached for r in responses)
