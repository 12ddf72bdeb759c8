"""Tests for the serving layer's ExecutorPool and the --follow CLI mode.

Pins the pool lifecycle contracts the ISSUE names: lazy spawn, reuse
across batches (byte-identical to serial), idle reap + lazy respawn,
re-init on config change, and a shutdown that leaves no stray worker
processes.  The follow-mode tests drive the long-running serve loop of
``python -m repro.api map-batch --follow`` over an in-memory stdin.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import os
import sys
import threading
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
from repro.api.pool import POOL_BACKENDS
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
        with pytest.raises(ValueError):
            ExecutorPool("serial")
        with pytest.raises(ValueError):
            ExecutorPool("thread", idle_timeout=0)
        assert POOL_BACKENDS == ("thread", "process")

    def test_lazy_spawn_and_reuse_across_batches(self, setup):
        """No workers until the first batch; one spawn serves many."""
        tg, machine = setup
        request = _request(tg, machine)
        serial = MappingService().map_batch(request, config=EngineConfig(backend="serial"))
        with ExecutorPool("thread", workers=2) as pool:
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

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_batch_scoped_run_leaves_no_live_executor(self, setup, backend):
        """Without ``pool=`` the batch's pool is shut down when it ends."""
        tg, machine = setup
        request = _request(tg, machine, algos=("UG", "UWH"))
        serial = MappingService().map_batch(request, config=EngineConfig(backend="serial"))
        children = set(multiprocessing.active_children())
        out = MappingService().map_batch(request, config=EngineConfig(backend=backend, workers=2))
        _assert_identical(serial, out)
        assert set(multiprocessing.active_children()) <= children
        assert not [
            t for t in threading.enumerate() if t.name.startswith("repro-pool")
        ]

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
        with ExecutorPool("thread", workers=2, idle_timeout=0.2) as pool:
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

    def test_configure_reinit_on_change_only(self, setup):
        tg, machine = setup
        request = _request(tg, machine, algos=("UG",))
        with ExecutorPool("thread", workers=2) as pool:
            service = MappingService(pool=pool)
            service.map_batch(request)
            assert pool.spawn_count == 1
            assert pool.configure(workers=2) is False  # no-op keeps workers
            assert pool.executor_alive
            assert pool.configure(workers=3) is True  # change tears down
            assert not pool.executor_alive
            service.map_batch(request)
            assert pool.spawn_count == 2 and pool.workers == 3
            with pytest.raises(ValueError):
                pool.configure(backend="gpu")

    def test_configure_rejected_mid_batch(self, setup):
        with ExecutorPool("thread", workers=1) as pool:
            with pool.session():
                with pytest.raises(RuntimeError):
                    pool.configure(workers=4)

    def test_constructor_serial_default_bypasses_pool(self, setup):
        """An explicit backend="serial" beside a pool stays honored."""
        tg, machine = setup
        with ExecutorPool("thread", workers=2) as pool:
            service = MappingService(backend="serial", pool=pool)
            service.map_batch(_request(tg, machine, algos=("UG",)))
            assert pool.spawn_count == 0
            # The pool remains available to a per-batch config.
            request = _request(tg, machine, algos=("UG",))
            service.map_batch(request, config=EngineConfig(backend="thread"))
            assert pool.spawn_count == 1

    def test_per_call_override_reconfigures_pool(self, setup):
        tg, machine = setup
        request = _request(tg, machine, algos=("UG",))
        with ExecutorPool("thread", workers=2) as pool:
            service = MappingService(pool=pool)
            service.map_batch(request, config=EngineConfig(workers=1))
            assert pool.workers == 1
            # backend="serial" bypasses the pool entirely.
            service.map_batch(request, config=EngineConfig(backend="serial"))
            assert pool.spawn_count == 1

    def test_service_level_workers_reach_the_pool(self, setup):
        """MappingService(workers=) means the same with or without a pool."""
        tg, machine = setup
        with ExecutorPool("thread") as pool:
            service = MappingService(pool=pool, workers=3)
            service.map_batch(_request(tg, machine, algos=("UG",)))
            assert pool.workers == 3

    def test_store_access_after_shutdown_rejected(self):
        pool = ExecutorPool("thread")
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
        pool = ExecutorPool("thread")
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


class TestFollowCli:
    def _run(self, monkeypatch, lines, argv):
        from repro.api.cli import main

        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        return main(argv)

    def test_stream_serves_batches_with_warm_caches(self, monkeypatch, capsys):
        lines = [
            '{"defaults": {"procs": 32, "ppn": 4, "algos": "UG,SFC"}}',
            '{"matrix": "cage15_like", "tag": "a"}',
            "",
            '[{"matrix": "cage15_like", "algos": "UWH", "tag": "b"},'
            ' {"matrix": "cage15_like", "seed": 3, "tag": "c"}]',
        ]
        rc = self._run(
            monkeypatch,
            lines,
            [
                "map-batch",
                "--follow",
                "--manifest",
                "-",
                "--backend",
                "thread",
                "--workers",
                "2",
            ],
        )
        assert rc == 0
        out_lines = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert [o["batch"] for o in out_lines] == [1, 2]
        assert [r["algorithm"] for r in out_lines[0]["results"]] == ["UG", "SFC"]
        tags = [r["tag"] for r in out_lines[1]["results"]]
        assert tags == ["b", "c", "c"]
        # Batch 2's UWH rides batch 1's cached grouping — the serve
        # loop's whole point.
        uwh = out_lines[1]["results"][0]
        assert uwh["grouping_cached"] is True

    def test_bad_lines_do_not_kill_the_server(self, monkeypatch, capsys):
        lines = [
            "this is not json",
            '{"algos": "UG"}',
            '{"matrix": "cage15_like", "procs": 32, "ppn": 4, "algos": "UG"}',
        ]
        rc = self._run(
            monkeypatch, lines, ["map-batch", "--follow", "--manifest", "-"]
        )
        assert rc == 0
        out_lines = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert "error" in out_lines[0] and out_lines[0]["line"] == 1
        assert "error" in out_lines[1] and out_lines[1]["line"] == 2
        assert out_lines[2]["batch"] == 1

    def test_follow_reads_manifest_file(self, tmp_path, capsys):
        from repro.api.cli import main

        stream = tmp_path / "stream.jsonl"
        stream.write_text(
            '{"matrix": "cage15_like", "procs": 32, "ppn": 4, "algos": "UG"}\n'
        )
        rc = main(["map-batch", "--follow", "--manifest", str(stream)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["requests"] == 1
