"""Tests for the parallel execution engine (repro.api.plan / executor / store).

Pins the tentpole contracts of the planner/executor split:

* the planner dedupes shared artifacts into an explicit DAG (one
  grouping node per key, ``def_baseline`` producer edges, chained
  ``route_table`` consumers) whose dependencies always point backwards;
* ``backend="serial"`` reproduces the legacy sequential loop bit for
  bit, and the ``process`` backend produces byte-identical mappings and
  metrics on a Fig. 3-shaped sweep;
* the cross-process :class:`DiskArtifactStore` round-trips every
  artifact shape, tolerates arbitrary corruption, and feeds warm
  starts (zero recomputes) through the cache's disk layering;
* the :class:`ArtifactCache` keeps statistics exact and computes each
  key once under thread hammering.
"""

from __future__ import annotations

import collections
import json
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.api import (
    ArtifactCache,
    DiskArtifactStore,
    EngineConfig,
    MappingService,
    MapRequest,
    build_plan,
    get_spec,
)
from repro.api.executor import execute_plan
from repro.api.request import MapResponse
from repro.api.store import PERSIST_NAMESPACES
from repro.experiments.harness import WorkloadCache
from repro.experiments.profiles import ExperimentProfile
from repro.graph.task_graph import TaskGraph
from repro.mapping.pipeline import MAPPER_NAMES
from repro.topology.allocation import AllocationSpec, SparseAllocator
from repro.topology.routing import RouteTable
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


def _assert_responses_identical(a: MapResponse, b: MapResponse) -> None:
    """Byte-identical mapping content (times are wall-clock, not pinned)."""
    assert a.algorithm == b.algorithm
    assert a.tag == b.tag
    np.testing.assert_array_equal(a.fine_gamma, b.fine_gamma)
    np.testing.assert_array_equal(a.coarse_gamma, b.coarse_gamma)
    np.testing.assert_array_equal(a.result.group_of_task, b.result.group_of_task)
    if a.metrics is None:
        assert b.metrics is None
    else:
        assert a.metrics.as_dict() == b.metrics.as_dict()


class TestPlanner:
    def test_dag_shape_and_dedupe(self, setup):
        """One grouping node per key; producer edges; backward deps only."""
        tg, machine = setup
        reqs = [
            MapRequest(
                task_graph=tg, machine=machine, algorithms=("UG", "UWH"), seed=2
            ),
            MapRequest(task_graph=tg, machine=machine, algorithms=("UMC",), seed=2),
            MapRequest(task_graph=tg, machine=machine, algorithms=("UG",), seed=9),
        ]
        plan = build_plan(reqs)
        plan.validate()
        groupings = [n for n in plan.nodes if n.kind == "grouping"]
        algos = [n for n in plan.nodes if n.kind == "algo"]
        # seeds 2 and 9 -> two distinct grouping artifacts, shared across
        # the three seed-2 algorithms.
        assert len(groupings) == 2
        assert len(algos) == 4
        assert [n.slot for n in algos] == [0, 1, 2, 3]
        seed2 = groupings[0]
        for node in algos[:3]:
            assert seed2.index in node.deps
        assert groupings[1].index in algos[3].deps
        # prep-time billing: the first consumer of each grouping.
        assert seed2.charges == algos[0].index
        assert groupings[1].charges == algos[3].index

    def test_route_table_consumers_chained(self, setup):
        """UMC -> UMMC ordering guarantee (route one placement once)."""
        tg, machine = setup
        plan = build_plan(
            MapRequest(
                task_graph=tg, machine=machine, algorithms=("UMC", "UMMC"), seed=1
            )
        )
        umc = next(n for n in plan.nodes if n.algorithm == "UMC")
        ummc = next(n for n in plan.nodes if n.algorithm == "UMMC")
        assert umc.index in ummc.deps

    def test_def_baseline_producer_edge(self, setup):
        """TMAP waits for the batch's DEF run instead of re-running it."""
        tg, machine = setup
        plan = build_plan(
            MapRequest(
                task_graph=tg, machine=machine, algorithms=("DEF", "TMAP"), seed=1
            )
        )
        def_node = next(n for n in plan.nodes if n.algorithm == "DEF")
        tmap = next(n for n in plan.nodes if n.algorithm == "TMAP")
        assert def_node.index in tmap.deps

    def test_unknown_algorithm_fails_before_execution(self, setup):
        tg, machine = setup
        with pytest.raises(ValueError):
            build_plan(
                MapRequest(task_graph=tg, machine=machine, algorithms=("NOPE",))
            )

    def test_injected_groups_skip_grouping_node(self, setup):
        tg, machine = setup
        service = MappingService()
        groups = service.grouping(tg, machine, seed=5)
        plan = build_plan(
            MapRequest(
                task_graph=tg,
                machine=machine,
                algorithms=("UG", "UWH"),
                seed=5,
                groups=groups,
            )
        )
        assert all(n.kind == "algo" for n in plan.nodes)


class TestBackendParity:
    #: Tiny Fig. 3-shaped sweep: two corpus matrices, one processor
    #: count, one allocation — the real harness construction, scaled to
    #: test runtime.
    PROFILE = ExperimentProfile(
        name="engine-test",
        rows_per_unit=300,
        proc_counts=(32,),
        procs_per_node=4,
        fragmentation=0.3,
        alloc_seeds=(0,),
        corpus_names=("cage15_like", "rgg_n23_like"),
        repetitions=1,
    )

    def _sweep_requests(self):
        """The real Fig. 2/3 sweep constructor, scaled by the profile."""
        from repro.experiments.fig2 import sweep_requests

        return sweep_requests(self.PROFILE, WorkloadCache(self.PROFILE))

    def test_serial_matches_legacy_sequential_loop(self):
        """The engine's serial backend == the pre-planner loop, bit for bit."""
        requests = self._sweep_requests()
        engine = MappingService().map_batch(requests, config=EngineConfig(backend="serial"))
        reference_service = MappingService()
        reference = [
            reference_service._run_one(request, algo, None)
            for request in requests
            for algo in request.algorithms
        ]
        assert len(engine) == len(reference)
        for a, b in zip(engine, reference):
            _assert_responses_identical(a, b)

    @pytest.mark.parametrize("backend", ["process"])
    def test_parallel_backends_match_serial(self, backend):
        """Byte-identical MapResponses on the Fig. 3 sweep, any backend."""
        requests = self._sweep_requests()
        serial = MappingService().map_batch(requests, config=EngineConfig(backend="serial"))
        parallel = MappingService().map_batch(
            requests, config=EngineConfig(backend=backend, workers=4)
        )
        assert len(serial) == len(parallel) == len(requests) * len(MAPPER_NAMES)
        for a, b in zip(serial, parallel):
            _assert_responses_identical(a, b)

    def test_disk_store_matches_serial(self, tmp_path):
        """Byte-identical MapResponses when a disk store carries the
        artifacts between process workers: the store codec must be
        invisible to the engine's results."""
        requests = self._sweep_requests()
        serial = MappingService().map_batch(requests, config=EngineConfig(backend="serial"))
        stored = MappingService().map_batch(
            requests,
            config=EngineConfig(
                backend="process",
                workers=2,
                store_dir=str(tmp_path / "store"),
            ),
        )
        assert len(serial) == len(stored)
        for a, b in zip(serial, stored):
            _assert_responses_identical(a, b)

    def test_unknown_backend_rejected(self, setup):
        tg, machine = setup
        with pytest.raises(ValueError):
            MappingService().map_batch(
                MapRequest(task_graph=tg, machine=machine), config=EngineConfig(backend="gpu")
            )
        with pytest.raises(ValueError):
            MappingService(backend="gpu")


class TestExecutionSemantics:
    def test_grouping_computed_once_threaded(self, setup, monkeypatch):
        """Planner dedupe within a batch, and the cache's same-key compute
        lock across two threads batching on one service (call counting)."""
        tg, machine = setup
        import repro.mapping.pipeline as pipeline_mod

        calls = []
        real = pipeline_mod.prepare_groups

        def counting(*args, **kwargs):
            calls.append(kwargs.get("seed"))
            time.sleep(0.05)  # hold the compute so the other thread waits on it
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "prepare_groups", counting)
        service = MappingService()
        requests = [
            MapRequest(
                task_graph=tg,
                machine=machine,
                algorithms=("UG", "UWH", "UMC", "UMMC", "SMAP"),
                seed=2,
            ),
            MapRequest(task_graph=tg, machine=machine, algorithms=("UTH",), seed=2),
        ]
        barrier = threading.Barrier(2)
        out = [None, None]

        def batch(slot):
            barrier.wait()
            out[slot] = service.map_batch(requests)

        threads = [threading.Thread(target=batch, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert all(len(responses) == 6 for responses in out)
        assert len(calls) == 1  # one grouping across both requests and threads
        for r in out[0][1:] + out[1]:
            np.testing.assert_array_equal(
                r.result.group_of_task, out[0][0].result.group_of_task
            )

    def test_prep_time_charged_to_first_consumer(self, setup):
        """Figure 3 accounting: exactly one response pays the grouping."""
        tg, machine = setup
        for backend in ("serial", "process"):
            responses = MappingService().map_batch(
                MapRequest(
                    task_graph=tg,
                    machine=machine,
                    algorithms=("UG", "UWH", "SMAP"),
                    seed=3,
                ),
                config=EngineConfig(backend=backend),
            )
            cached_flags = [r.grouping_cached for r in responses]
            assert cached_flags == [False, True, True]
            assert responses[0].prep_time > 0.0
            assert responses[1].prep_time == 0.0
            assert responses[2].prep_time == 0.0

    def test_node_failure_propagates(self, setup, monkeypatch):
        tg, machine = setup
        import repro.mapping.greedy as greedy_mod

        def boom(*args, **kwargs):
            raise RuntimeError("injected placement failure")

        monkeypatch.setattr(greedy_mod.GreedyMapper, "map", boom)
        for backend in ("serial", "process"):
            with pytest.raises(RuntimeError, match="injected"):
                MappingService().map_batch(
                    MapRequest(task_graph=tg, machine=machine, algorithms=("UG",)),
                    config=EngineConfig(backend=backend),
                )

    def test_serial_runs_nodes_in_plan_order(self, setup, monkeypatch):
        """The serial backend runs exactly plan order, one node at a time."""
        tg, machine = setup
        import repro.api.executor as executor_mod

        reqs = [
            MapRequest(
                task_graph=tg,
                machine=machine,
                algorithms=("UG", "DEF", "TMAP"),
                seed=1,
            ),
            MapRequest(task_graph=tg, machine=machine, algorithms=("UWH",), seed=1),
            MapRequest(task_graph=tg, machine=machine, algorithms=("UG",), seed=5),
        ]
        plan = build_plan(reqs)
        assert plan.baseline_producers, "DEF should feed TMAP's baseline"
        assert sum(n.kind == "grouping" for n in plan.nodes) == 2
        request_index = {id(r): i for i, r in enumerate(reqs)}
        ran = []
        real = executor_mod.run_plan_node

        def recording(service, request, kind, algorithm, placements):
            ran.append((kind, request_index[id(request)], algorithm))
            return real(service, request, kind, algorithm, placements)

        monkeypatch.setattr(executor_mod, "run_plan_node", recording)
        execute_plan(plan, MappingService(), EngineConfig(backend="serial"))
        assert ran == [(n.kind, n.request_index, n.algorithm) for n in plan.nodes]

    def test_execute_plan_collects_in_request_order(self, setup):
        tg, machine = setup
        reqs = [
            MapRequest(
                task_graph=tg, machine=machine, algorithms=("UWH",), seed=1, tag="a"
            ),
            MapRequest(
                task_graph=tg, machine=machine, algorithms=("UG",), seed=1, tag="b"
            ),
        ]
        responses = execute_plan(
            build_plan(reqs), MappingService(), EngineConfig(backend="process", workers=2)
        )
        assert [(r.tag, r.algorithm) for r in responses] == [
            ("a", "UWH"),
            ("b", "UG"),
        ]


class TestSharedPlacement:
    """One placement per (request, stage, coarse view) per ``map_batch``."""

    ALGOS = ("UG", "UWH", "UMC", "UMMC", "HIER", "HIERWH", "SFC", "SFCWH")
    SHARED = {"greedy": 4, "hier": 2, "sfc": 2}  # consumers per stage
    PAUSE = 0.02  # seconds each counted placement run adds

    @pytest.fixture()
    def counted(self, monkeypatch):
        """Count (and slow down) every run of the shared placement stages."""
        from repro.api.stages import PLACEMENT_STAGES

        runs = {name: 0 for name in self.SHARED}
        self.by_thread = collections.Counter()  # (thread name, stage) -> runs
        lock = threading.Lock()

        def counting(name, fn):
            def stage(ctx):
                with lock:
                    runs[name] += 1
                    self.by_thread[threading.current_thread().name, name] += 1
                time.sleep(self.PAUSE)
                return fn(ctx)

            return stage

        for name in self.SHARED:
            monkeypatch.setitem(
                PLACEMENT_STAGES, name, counting(name, PLACEMENT_STAGES[name])
            )
        return runs

    @pytest.mark.parametrize("backend", ["serial"])
    def test_each_placement_runs_once_per_batch(self, setup, counted, backend):
        tg, machine = setup
        request = MapRequest(task_graph=tg, machine=machine, algorithms=self.ALGOS, seed=2)
        service = MappingService()
        config = EngineConfig(backend=backend, workers=2)
        first = service.map_batch(request, config=config)
        assert counted == {name: 1 for name in self.SHARED}
        second = service.map_batch(request, config=config)
        assert counted == {name: 2 for name in self.SHARED}, "no reuse across batches"
        for a, b in zip(first, second):
            _assert_responses_identical(a, b)
        for response in first:
            spec = get_spec(response.algorithm)
            seconds = response.stage_times[f"placement:{spec.placement}"]
            assert seconds >= self.PAUSE
            assert response.result.map_time >= seconds
        greedy = {r.stage_times["placement:greedy"] for r in first if r.algorithm[0] == "U"}
        assert len(greedy) == 1, "every consumer bills the one run's seconds"

    def test_thread_stress_one_run_per_request(self, setup, counted):
        """Two threads batch the same requests on one service, with a tiny
        switch interval: each batch keeps its own memo, so each runs every
        shared placement once per request, and both match serial."""
        import sys

        tg, machine = setup
        requests = [
            MapRequest(task_graph=tg, machine=machine, algorithms=self.ALGOS, seed=s)
            for s in range(3)
        ]
        serial = MappingService().map_batch(requests)
        counted.update((name, 0) for name in counted)
        self.by_thread.clear()
        service = MappingService()
        barrier = threading.Barrier(2)
        out = {}

        def batch(name):
            barrier.wait()
            out[name] = service.map_batch(requests)

        threads = [
            threading.Thread(target=batch, args=(name,), name=name)
            for name in ("batch-a", "batch-b")
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert self.by_thread == {
            (t.name, stage): len(requests) for t in threads for stage in self.SHARED
        }
        for name in ("batch-a", "batch-b"):
            assert len(out[name]) == len(serial)
            for a, b in zip(serial, out[name]):
                _assert_responses_identical(a, b)

    def test_responses_equal_one_algorithm_batches(self, setup):
        tg, machine = setup
        request = MapRequest(
            task_graph=tg, machine=machine, algorithms=self.ALGOS, seed=2, evaluate=True
        )
        shared = MappingService().map_batch(request)
        for response in shared:
            alone = MappingService().map_batch(
                replace(request, algorithms=(response.algorithm,))
            )
            _assert_responses_identical(response, alone[0])

    def test_refiners_cannot_touch_the_shared_gamma(self, setup, monkeypatch):
        """A refiner scrambling its input in place leaves UG's Γ alone."""
        from repro.api.stages import REFINE_STAGES

        real = REFINE_STAGES["wh"]

        def scrambling(ctx, mapping):
            mapping.gamma[:] = mapping.gamma[::-1].copy()
            return real(ctx, mapping)

        monkeypatch.setitem(REFINE_STAGES, "wh", scrambling)
        tg, machine = setup
        request = MapRequest(task_graph=tg, machine=machine, algorithms=("UWH", "UG"), seed=2)
        uwh, ug = MappingService().map_batch(request)
        (alone,) = MappingService().map_batch(replace(request, algorithms=("UG",)))
        np.testing.assert_array_equal(ug.coarse_gamma, alone.coarse_gamma)
        assert ug.coarse_gamma.flags.writeable
        assert not np.shares_memory(ug.coarse_gamma, uwh.coarse_gamma)

    def test_process_workers_start_without_a_memo(self, setup, tmp_path, monkeypatch):
        """A process worker sees single nodes, not the batch: it runs each
        node with no placement memo at all."""
        import repro.api.executor as executor_mod
        import repro.api.pool as pool_mod

        tg, machine = setup
        monkeypatch.setattr(pool_mod, "_WORKER_SERVICE", None)
        seen = []
        real = executor_mod.run_plan_node

        def recording(service, request, kind, algorithm, placements):
            seen.append(placements)
            return real(service, request, kind, algorithm, placements)

        monkeypatch.setattr(executor_mod, "run_plan_node", recording)
        pool_mod._worker_init(str(tmp_path), None)
        request = MapRequest(task_graph=tg, machine=machine, algorithms=("UG",), seed=2)
        response = pool_mod._worker_run_node(request, "algo", "UG")
        assert seen == [None]
        (alone,) = MappingService().map_batch(request)
        _assert_responses_identical(response, alone)


class TestProcessStoreSharing:
    def test_artifacts_persist_and_warm_start(self, setup, tmp_path, monkeypatch):
        """Workers persist artifacts; a later service reads, not recomputes."""
        tg, machine = setup
        store_dir = str(tmp_path / "artifacts")
        request = MapRequest(
            task_graph=tg,
            machine=machine,
            algorithms=("UG", "UWH", "UMC"),
            seed=2,
            evaluate=True,
        )
        cold = MappingService().map_batch(
            request, config=EngineConfig(backend="process", workers=2, store_dir=store_dir)
        )
        store = DiskArtifactStore(store_dir)
        assert store.file_count("grouping") == 1
        assert store.file_count("route_table") >= 1

        # A fresh service layered over the same store recomputes nothing.
        import repro.mapping.pipeline as pipeline_mod

        calls = []
        real = pipeline_mod.prepare_groups

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "prepare_groups", counting)
        warm_service = MappingService(cache=ArtifactCache(store=store))
        warm = warm_service.map_batch(request, config=EngineConfig(backend="serial"))
        assert len(calls) == 0
        stats = warm_service.cache.stats("grouping")
        assert stats.misses == 0 and stats.store_hits >= 1
        for a, b in zip(cold, warm):
            _assert_responses_identical(a, b)
        # Disk-served groupings count as cached: nobody pays prep_time.
        assert all(r.grouping_cached for r in warm)

    def test_default_store_is_batch_scoped_temp(self, setup):
        """Without a store_dir or attached store, nothing leaks to disk."""
        tg, machine = setup
        responses = MappingService().map_batch(
            MapRequest(task_graph=tg, machine=machine, algorithms=("UG", "UWH")),
            config=EngineConfig(
                backend="process",
                workers=2,
            ),
        )
        assert [r.algorithm for r in responses] == ["UG", "UWH"]


class TestDiskArtifactStore:
    def test_round_trip_shapes(self, tmp_path, setup):
        tg, _ = setup
        store = DiskArtifactStore(str(tmp_path))
        cases = {
            "array": np.arange(37, dtype=np.int64).reshape(37),
            "floats": np.linspace(0, 1, 11),
            "tuple": (np.arange(4), np.ones(3), 7, "label", None),
            "nested": {"a": [np.arange(2), (np.zeros(2), True)], "b": 1.5},
            "scalar": 42,
        }
        for key, value in cases.items():
            store.save("ns", key, value)
        loaded = {key: store.load("ns", key) for key in cases}
        np.testing.assert_array_equal(loaded["array"], cases["array"])
        np.testing.assert_array_equal(loaded["floats"], cases["floats"])
        t = loaded["tuple"]
        assert isinstance(t, tuple) and t[2] == 7 and t[3] == "label"
        assert t[4] is None
        np.testing.assert_array_equal(t[0], cases["tuple"][0])
        np.testing.assert_array_equal(
            loaded["nested"]["a"][1][0], np.zeros(2)
        )
        assert loaded["nested"]["b"] == 1.5
        assert loaded["scalar"] == 42
        # Objects without native encodings round-trip through pickle.
        store.save("ns", "graph", tg)
        back = store.load("ns", "graph")
        np.testing.assert_array_equal(back.graph.indptr, tg.graph.indptr)
        np.testing.assert_array_equal(back.graph.weights, tg.graph.weights)

    def test_route_table_native_round_trip(self, tmp_path):
        torus = Torus3D((3, 3, 2))
        rng = np.random.default_rng(5)
        src = rng.integers(0, torus.num_nodes, 25)
        dst = rng.integers(0, torus.num_nodes, 25)
        table = RouteTable.build(torus, src, dst)
        store = DiskArtifactStore(str(tmp_path))
        store.save("route_table", ("k",), table)
        back = store.load("route_table", ("k",))
        assert isinstance(back, RouteTable)
        assert back.num_links == table.num_links
        np.testing.assert_array_equal(back.ptr, table.ptr)
        np.testing.assert_array_equal(back.links, table.links)

    def test_missing_is_default(self, tmp_path):
        store = DiskArtifactStore(str(tmp_path))
        assert store.load("ns", "nothing") is None
        assert store.load("ns", "nothing", default="fallback") == "fallback"
        assert not store.contains("ns", "nothing")

    @pytest.mark.parametrize(
        "corruption",
        ["garbage", "truncate", "empty"],
        ids=["garbage-bytes", "truncated-zip", "empty-file"],
    )
    def test_corruption_reads_as_miss(self, tmp_path, corruption):
        """Any corrupted file is a miss — recompute and overwrite, no crash."""
        store = DiskArtifactStore(str(tmp_path))
        value = {"x": np.arange(100)}
        store.save("ns", "k", value)
        path = store.path_for("ns", "k")
        if corruption == "garbage":
            with open(path, "wb") as fh:
                fh.write(b"\x00not-an-npz\xff" * 10)
        elif corruption == "truncate":
            with open(path, "rb") as fh:
                blob = fh.read()
            with open(path, "wb") as fh:
                fh.write(blob[: len(blob) // 2])
        else:
            open(path, "wb").close()
        assert store.load("ns", "k", default="miss") == "miss"
        # The slot is recoverable: a fresh save round-trips again.
        store.save("ns", "k", value)
        np.testing.assert_array_equal(store.load("ns", "k")["x"], value["x"])

    def test_key_collision_reads_as_miss(self, tmp_path, monkeypatch):
        """Same filename, different key: the key check refuses the value."""
        store = DiskArtifactStore(str(tmp_path))
        monkeypatch.setattr(
            DiskArtifactStore,
            "path_for",
            lambda self, ns, key: str(tmp_path / "fixed.npz"),
        )
        store.save("ns", ("key", 1), np.arange(3))
        assert store.load("ns", ("key", 2), default="miss") == "miss"
        np.testing.assert_array_equal(store.load("ns", ("key", 1)), np.arange(3))

    def test_clear_and_counts(self, tmp_path):
        store = DiskArtifactStore(str(tmp_path))
        store.save("a", 1, np.arange(2))
        store.save("a", 2, np.arange(2))
        store.save("b", 1, np.arange(2))
        assert store.file_count() == 3
        assert store.clear("a") == 2
        assert store.file_count() == 1
        assert store.clear() == 1
        assert store.file_count() == 0

    def test_cache_layering_write_and_read_through(self, tmp_path):
        """ArtifactCache(store=...) persists computes and serves warm reads."""
        store = DiskArtifactStore(str(tmp_path))
        cache = ArtifactCache(store=store)
        value = cache.get_or_compute("grouping", ("k",), lambda: np.arange(5))
        np.testing.assert_array_equal(value, np.arange(5))
        assert store.contains("grouping", ("k",))
        # Non-persisted namespaces stay memory-only.
        cache.get_or_compute("scratch", ("k",), lambda: np.arange(5))
        assert not store.contains("scratch", ("k",))

        fresh = ArtifactCache(store=store)
        loaded = fresh.get_or_compute(
            "grouping", ("k",), lambda: pytest.fail("should read from disk")
        )
        np.testing.assert_array_equal(loaded, np.arange(5))
        stats = fresh.stats("grouping")
        assert (stats.hits, stats.misses, stats.store_hits) == (1, 0, 1)

    def test_default_persist_namespaces(self):
        assert "grouping" in PERSIST_NAMESPACES
        assert "route_table" in PERSIST_NAMESPACES
        assert "def_baseline" in PERSIST_NAMESPACES
        assert DiskArtifactStore.namespaces is PERSIST_NAMESPACES


class TestConcurrentCache:
    def test_stats_exact_under_thread_hammering(self):
        """Atomic counters: hits + misses add up, one compute per key."""
        cache = ArtifactCache()
        num_threads, per_thread, num_keys = 8, 200, 20
        computed = []
        lock = threading.Lock()

        def compute(key):
            with lock:
                computed.append(key)
            return key * 3

        barrier = threading.Barrier(num_threads)

        def worker(tid):
            barrier.wait()
            rng = np.random.default_rng(tid)
            for _ in range(per_thread):
                key = int(rng.integers(0, num_keys))
                assert cache.get_or_compute("ns", key, lambda k=key: compute(k)) == key * 3

        threads = [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(num_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = cache.stats("ns")
        assert stats.lookups == num_threads * per_thread
        assert stats.misses == num_keys
        assert sorted(set(computed)) == sorted(computed)  # each key once
        assert stats.size == num_keys

    def test_nested_get_or_compute_does_not_deadlock(self):
        """Computes may consult the cache (the DEF-baseline pattern)."""
        cache = ArtifactCache()

        def outer():
            inner = cache.get_or_compute("inner", "k", lambda: 10)
            return inner + 1

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(
                    cache.get_or_compute("outer", "k", outer)
                )
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert results == [11] * 8

    def test_serial_behaviour_unchanged(self):
        """A single caller sees plain LRU semantics through the stripes."""
        cache = ArtifactCache(max_entries=2)
        cache.get_or_compute("ns", 1, lambda: "a")
        cache.get_or_compute("ns", 2, lambda: "b")
        cache.get_or_compute("ns", 3, lambda: "c")
        assert len(cache) == 2
        assert cache.stats("ns").evictions == 1


class TestMapBatchCli:
    def _manifest(self, tmp_path, payload) -> str:
        path = tmp_path / "reqs.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_manifest_batch_runs(self, tmp_path, capsys):
        from repro.api.cli import main

        manifest = self._manifest(
            tmp_path,
            {
                "defaults": {"procs": 32, "ppn": 4, "algos": "DEF,UG"},
                "requests": [
                    {"matrix": "cage15_like"},
                    {"matrix": "cage15_like", "algos": ["UWH"], "tag": "w"},
                ],
            },
        )
        rc = main(
            [
                "map-batch",
                "--manifest",
                manifest,
                "--backend",
                "process",
                "--workers",
                "2",
                "--json",
                "--stats",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["requests"] == 2 and payload["responses"] == 3
        assert payload["backend"] == "process"
        assert [r["algorithm"] for r in payload["results"]] == ["DEF", "UG", "UWH"]
        assert payload["results"][2]["tag"] == "w"
        assert payload["requests_per_s"] > 0

    def test_manifest_list_form(self, tmp_path, capsys):
        from repro.api.cli import main

        manifest = self._manifest(
            tmp_path,
            [{"matrix": "cage15_like", "procs": 32, "ppn": 4, "algos": "UG"}],
        )
        assert main(["map-batch", "--manifest", manifest, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["algorithm"] for r in payload["results"]] == ["UG"]

    def test_bad_manifest_errors(self, tmp_path, capsys):
        from repro.api.cli import main

        assert main(["map-batch", "--manifest", str(tmp_path / "no.json")]) == 2
        assert "error:" in capsys.readouterr().err
        manifest = self._manifest(tmp_path, {"requests": []})
        assert main(["map-batch", "--manifest", manifest]) == 2
        manifest = self._manifest(tmp_path, [{"algos": "UG"}])
        assert main(["map-batch", "--manifest", manifest]) == 2
        manifest = self._manifest(tmp_path, [{"matrix": "cage15_like", "algos": "NOPE"}])
        assert main(["map-batch", "--manifest", manifest]) == 2
