"""Tests for the registry-driven mapping API (repro.api).

Covers the MapperSpec registry and its error paths, MapRequest
normalization, MappingService dispatch (including bit-identical parity
with the legacy TwoPhaseMapper facade), map_batch grouping reuse, the
ArtifactCache, and the ``python -m repro.api`` CLI.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import (
    ArtifactCache,
    MapperRegistrationError,
    MapperSpec,
    MapRequest,
    MappingService,
    UnknownMapperError,
    fingerprint_arrays,
    get_spec,
    machine_key,
    register_mapper,
    registered_mappers,
    task_graph_key,
    unregister_mapper,
)
from repro.api.stages import PLACEMENT_STAGES
from repro.graph.csr import CSRGraph
from repro.graph.task_graph import TaskGraph
from repro.mapping.pipeline import (
    EXTENDED_MAPPER_NAMES,
    MAPPER_NAMES,
    TwoPhaseMapper,
    get_mapper,
)
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


class TestRegistry:
    def test_builtins_registered(self):
        names = registered_mappers()
        for name in EXTENDED_MAPPER_NAMES:
            assert name in names

    def test_get_spec_case_insensitive(self):
        assert get_spec("uwh").name == "UWH"
        assert get_spec("UWH") is get_spec("uwh")

    def test_unknown_name_raises_value_error(self):
        with pytest.raises(UnknownMapperError):
            get_spec("NOPE")
        with pytest.raises(ValueError):  # UnknownMapperError is a ValueError
            get_spec("NOPE")

    def test_specs_are_stage_compositions(self):
        assert get_spec("UWH").stage_names() == ("partition", "greedy", "wh")
        assert get_spec("UMMC").stage_names() == ("partition", "greedy", "mmc")
        assert get_spec("DEF").stage_names() == ("blocked", "consecutive")
        assert get_spec("UWHF").stage_names() == (
            "partition",
            "greedy",
            "wh",
            "fine_wh",
        )

    def test_duplicate_registration_rejected(self):
        with pytest.raises(MapperRegistrationError):
            register_mapper(MapperSpec(name="UWH"))

        @register_mapper("DUPTEST")
        def place_a(ctx):  # pragma: no cover - never executed
            return ctx.machine.alloc_nodes.copy()

        try:
            with pytest.raises(MapperRegistrationError):

                @register_mapper("DUPTEST")
                def place_b(ctx):  # pragma: no cover - never executed
                    return ctx.machine.alloc_nodes.copy()

        finally:
            unregister_mapper("DUPTEST")
            assert "custom:duptest" not in PLACEMENT_STAGES

    def test_explicit_spec_name_normalized(self):
        """Lower-case spec names are upper-cased on registration."""
        register_mapper(MapperSpec(name="casetest"))
        try:
            assert "CASETEST" in registered_mappers()
            assert get_spec("casetest").name == "CASETEST"
        finally:
            unregister_mapper("CASETEST")

    def test_failed_registration_leaves_no_stage_behind(self):
        """A bad decorator call must not block the corrected retry."""
        with pytest.raises(MapperRegistrationError):

            @register_mapper("RETRYTEST", refine=("bogus-refiner",))
            def bad(ctx):  # pragma: no cover - never executed
                return ctx.machine.alloc_nodes.copy()

        assert "custom:retrytest" not in PLACEMENT_STAGES

        @register_mapper("RETRYTEST", refine=("wh",))
        def good(ctx):  # pragma: no cover - never executed
            return ctx.machine.alloc_nodes.copy()

        try:
            assert get_spec("RETRYTEST").refine == ("wh",)
        finally:
            unregister_mapper("RETRYTEST")
            assert "custom:retrytest" not in PLACEMENT_STAGES

    def test_spec_validates_stage_names(self):
        with pytest.raises(MapperRegistrationError):
            MapperSpec(name="BAD", placement="no-such-stage")
        with pytest.raises(MapperRegistrationError):
            MapperSpec(name="BAD", refine=("no-such-refiner",))
        with pytest.raises(MapperRegistrationError):
            MapperSpec(name="BAD", coarse_view="sideways")

    def test_decorator_registers_runnable_mapper(self, setup):
        tg, machine = setup

        @register_mapper("REVTEST", refine=("wh",))
        def reverse_placement(ctx):
            """Groups on allocation nodes in reverse order."""
            return ctx.machine.alloc_nodes[::-1].copy()

        try:
            spec = get_spec("revtest")
            assert spec.refine == ("wh",)
            assert spec.description.startswith("Groups on allocation")
            res = get_mapper("REVTEST", seed=1).map(tg, machine)
            assert machine.alloc_mask()[res.fine_gamma].all()
            used = np.bincount(res.fine_gamma, minlength=machine.torus.num_nodes)
            assert np.all(used <= machine.node_capacities())
        finally:
            unregister_mapper("REVTEST")
            assert "custom:revtest" not in PLACEMENT_STAGES


class TestMapRequest:
    def test_string_algorithms_normalized(self, setup):
        tg, machine = setup
        req = MapRequest(task_graph=tg, machine=machine, algorithms="UG")
        assert req.algorithms == ("UG",)

    def test_empty_algorithms_rejected(self, setup):
        tg, machine = setup
        with pytest.raises(ValueError):
            MapRequest(task_graph=tg, machine=machine, algorithms=())

    @pytest.mark.parametrize("delta", [0, -1, -5])
    def test_nonpositive_delta_rejected(self, setup, delta):
        tg, machine = setup
        with pytest.raises(ValueError, match="delta"):
            MapRequest(task_graph=tg, machine=machine, delta=delta)

    @staticmethod
    def _with(tg, field, index, value):
        """*tg* with one volume or load replaced by *value*."""
        g = tg.graph
        weights, loads = g.weights.copy(), g.vertex_weights.copy()
        (weights if field == "volumes" else loads)[index] = value
        return TaskGraph(CSRGraph(g.indptr, g.indices, weights, loads, sorted_indices=True))

    @pytest.mark.parametrize("field", ["volumes", "loads"])
    def test_infinite_value_rejected(self, setup, field):
        tg, machine = setup
        with pytest.raises(ValueError, match=f"task_graph {field} .*inf"):
            MapRequest(task_graph=self._with(tg, field, 3, np.inf), machine=machine)

    @pytest.mark.parametrize("field", ["volumes", "loads"])
    def test_negative_value_rejected(self, setup, field):
        tg, machine = setup
        with pytest.raises(ValueError, match=f"task_graph {field} .*-1.5"):
            MapRequest(task_graph=self._with(tg, field, 3, -1.5), machine=machine)

    @pytest.mark.parametrize("field", ["volumes", "loads"])
    def test_nan_value_rejected(self, setup, field):
        tg, machine = setup
        with pytest.raises(ValueError, match=f"task_graph {field} .*nan"):
            MapRequest(task_graph=self._with(tg, field, 3, np.nan), machine=machine)

    def test_zero_volume_and_load_accepted(self, setup):
        tg, machine = setup
        tg = self._with(self._with(tg, "volumes", 3, 0.0), "loads", 3, 0.0)
        assert MapRequest(task_graph=tg, machine=machine).algorithms == ("UG",)

    def test_grouping_seed_defaults_to_seed(self, setup):
        tg, machine = setup
        req = MapRequest(task_graph=tg, machine=machine, seed=9)
        assert req.effective_grouping_seed == 9
        req = MapRequest(task_graph=tg, machine=machine, seed=9, grouping_seed=2)
        assert req.effective_grouping_seed == 2


class TestMappingService:
    def test_unknown_algorithm(self, setup):
        tg, machine = setup
        with pytest.raises(ValueError):
            MappingService().map(
                MapRequest(task_graph=tg, machine=machine, algorithms="BEST")
            )

    def test_map_requires_single_algorithm(self, setup):
        tg, machine = setup
        with pytest.raises(ValueError):
            MappingService().map(
                MapRequest(task_graph=tg, machine=machine, algorithms=("UG", "UWH"))
            )

    @pytest.mark.parametrize("algo", EXTENDED_MAPPER_NAMES)
    def test_parity_with_legacy_facade(self, setup, algo):
        """Shim and direct service calls agree bit-for-bit.

        This pins the facade contract (TwoPhaseMapper delegates without
        altering requests); parity with the *pre-registry* pipeline is
        pinned separately by tests/test_kernels_golden.py, whose goldens
        were generated from the legacy implementation.
        """
        tg, machine = setup
        legacy = TwoPhaseMapper(algorithm=algo, seed=3).map(tg, machine)
        resp = MappingService().map(
            MapRequest(task_graph=tg, machine=machine, algorithms=algo, seed=3)
        )
        np.testing.assert_array_equal(resp.fine_gamma, legacy.fine_gamma)
        np.testing.assert_array_equal(resp.coarse_gamma, legacy.coarse_gamma)

    def test_stage_times_reported(self, setup):
        tg, machine = setup
        resp = MappingService().map(
            MapRequest(task_graph=tg, machine=machine, algorithms="UWH", seed=0)
        )
        assert "grouping" in resp.stage_times
        assert "placement:greedy" in resp.stage_times
        assert "refine:wh" in resp.stage_times
        assert all(t >= 0 for t in resp.stage_times.values())

    def test_evaluate_attaches_metrics(self, setup):
        tg, machine = setup
        resp = MappingService().map(
            MapRequest(
                task_graph=tg, machine=machine, algorithms="UG", evaluate=True
            )
        )
        assert resp.metrics is not None and resp.metrics.wh > 0

    def test_precomputed_groups_injected(self, setup):
        tg, machine = setup
        service = MappingService()
        groups = service.grouping(tg, machine, seed=5)
        resp = MappingService().map(
            MapRequest(
                task_graph=tg, machine=machine, algorithms="UG", seed=5, groups=groups
            )
        )
        assert resp.grouping_cached
        assert resp.prep_time == 0.0


class TestBatchCaching:
    def test_grouping_computed_once_across_algorithms(self, setup, monkeypatch):
        """The headline batching guarantee, asserted by call counting."""
        tg, machine = setup
        import repro.mapping.pipeline as pipeline_mod

        calls = []
        real = pipeline_mod.prepare_groups

        def counting(*args, **kwargs):
            calls.append(kwargs.get("seed"))
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "prepare_groups", counting)

        service = MappingService()
        responses = service.map_batch(
            MapRequest(
                task_graph=tg,
                machine=machine,
                algorithms=("UG", "UWH", "UMC", "UMMC", "SMAP"),
                seed=2,
            )
        )
        assert len(responses) == 5
        # One shared grouping for all five sharing algorithms.
        assert len(calls) == 1
        stats = service.cache.stats("grouping")
        # The plan's grouping node takes the single miss; every sharing
        # algorithm's stage execution hits.
        assert stats.misses == 1 and stats.hits == 5
        # All five rode the same grouping vector.
        for r in responses[1:]:
            np.testing.assert_array_equal(
                r.result.group_of_task, responses[0].result.group_of_task
            )

    def test_tmap_runs_its_own_grouping(self, setup, monkeypatch):
        tg, machine = setup
        import repro.mapping.pipeline as pipeline_mod

        calls = []
        real = pipeline_mod.prepare_groups

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "prepare_groups", counting)
        service = MappingService()
        service.map_batch(
            MapRequest(
                task_graph=tg, machine=machine, algorithms=("UG", "TMAP"), seed=2
            )
        )
        # UG's shared grouping + TMAP's private re-partition.
        assert len(calls) == 2

    def test_def_baseline_shared_with_tmap(self, setup):
        tg, machine = setup
        service = MappingService()
        service.map_batch(
            MapRequest(
                task_graph=tg, machine=machine, algorithms=("DEF", "TMAP"), seed=2
            )
        )
        stats = service.cache.stats("def_baseline")
        assert stats.misses <= 1

    def test_batch_of_requests_shares_cache(self, setup):
        tg, machine = setup
        service = MappingService()
        reqs = [
            MapRequest(task_graph=tg, machine=machine, algorithms="UG", seed=2),
            MapRequest(task_graph=tg, machine=machine, algorithms="UWH", seed=2),
        ]
        responses = service.map_batch(reqs)
        assert [r.algorithm for r in responses] == ["UG", "UWH"]
        stats = service.cache.stats("grouping")
        assert stats.misses == 1 and stats.hits == 2

    def test_umc_ummc_share_initial_route_table(self, setup):
        """UMC and UMMC refine the same placement → one route enumeration."""
        tg, machine = setup
        service = MappingService()
        service.map_batch(
            MapRequest(
                task_graph=tg, machine=machine, algorithms=("UMC", "UMMC"), seed=2
            )
        )
        stats = service.cache.stats("route_table")
        assert stats.hits >= 1  # UMMC reused UMC's initial table
        # ...and the batched path still equals the standalone runs.
        solo = MappingService()
        for algo in ("UMC", "UMMC"):
            r = solo.map(
                MapRequest(task_graph=tg, machine=machine, algorithms=algo, seed=2)
            )
            b = service.map(
                MapRequest(task_graph=tg, machine=machine, algorithms=algo, seed=2)
            )
            np.testing.assert_array_equal(r.result.fine_gamma, b.result.fine_gamma)


class TestArtifactCache:
    def test_get_or_compute_and_stats(self):
        cache = ArtifactCache()
        assert cache.get_or_compute("ns", "k", lambda: 41) == 41
        assert cache.get_or_compute("ns", "k", lambda: 42) == 41
        s = cache.stats("ns")
        assert (s.hits, s.misses, s.size) == (1, 1, 1)
        assert len(cache) == 1

    def test_put_get_clear(self):
        cache = ArtifactCache()
        cache.put("a", 1, "x")
        cache.put("b", 2, "y")
        assert cache.get("a", 1) == "x"
        assert cache.get("a", "missing", default="d") == "d"
        cache.clear("a")
        assert cache.get("a", 1) is None
        assert cache.get("b", 2) == "y"
        cache.clear()
        assert len(cache) == 0

    def test_format_stats(self):
        cache = ArtifactCache()
        assert cache.format_stats() == "(empty)"
        cache.get_or_compute("ns", 1, lambda: 0)
        assert "ns: 0 hits / 1 misses" in cache.format_stats()

    def test_fingerprints_content_based(self, setup):
        tg, machine = setup
        a = np.arange(10)
        assert fingerprint_arrays(a) == fingerprint_arrays(a.copy())
        assert fingerprint_arrays(a) != fingerprint_arrays(a + 1)
        # dtype/shape are part of the content
        assert fingerprint_arrays(a) != fingerprint_arrays(a.astype(np.float64))
        assert fingerprint_arrays(a) != fingerprint_arrays(a.reshape(2, 5))
        assert task_graph_key(tg) == task_graph_key(tg)
        assert machine_key(machine) == machine_key(machine)


class TestLegacyShims:
    def test_get_mapper_unknown(self):
        with pytest.raises(ValueError):
            get_mapper("nope")
        with pytest.raises(ValueError):
            TwoPhaseMapper(algorithm="BEST")

    def test_mapper_names_preserved(self):
        assert MAPPER_NAMES == ("DEF", "TMAP", "SMAP", "UG", "UWH", "UMC", "UMMC")
        assert EXTENDED_MAPPER_NAMES == MAPPER_NAMES + ("UTH", "UWHF")


class TestCli:
    def test_cli_list(self, capsys):
        from repro.api.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in MAPPER_NAMES:
            assert name in out

    def test_cli_list_json(self, capsys):
        from repro.api.cli import main

        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["UWH"]["stages"] == ["partition", "greedy", "wh"]

    def test_cli_map_smoke(self, capsys):
        from repro.api.cli import main

        rc = main(
            [
                "map",
                "--matrix",
                "cage15_like",
                "--algos",
                "DEF,UG,UWH",
                "--procs",
                "32",
                "--ppn",
                "4",
                "--json",
                "--stats",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["algorithm"] for r in payload["results"]] == ["DEF", "UG", "UWH"]
        for r in payload["results"]:
            assert r["metrics"]["WH"] > 0
        # UWH reused UG's grouping inside the batch.
        assert payload["cache_stats"]["grouping"]["hits"] >= 1
        # The stats hook exposes the LRU accounting fields.
        for s in payload["cache_stats"].values():
            assert {"hits", "misses", "size", "evictions", "bytes"} <= set(s)
        assert payload["cache_total_bytes"] > 0

    def test_cli_map_bounded_cache(self, capsys):
        from repro.api.cli import main

        rc = main(
            [
                "map",
                "--matrix",
                "cage15_like",
                "--algos",
                "UG,UWH,UMC",
                "--procs",
                "32",
                "--ppn",
                "4",
                "--cache-entries",
                "2",
                "--json",
                "--stats",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["algorithm"] for r in payload["results"]] == ["UG", "UWH", "UMC"]
        total_stored = sum(s["size"] for s in payload["cache_stats"].values())
        assert total_stored <= 2
        assert sum(s["evictions"] for s in payload["cache_stats"].values()) >= 1

    def test_cli_map_unknown_algo_errors(self, capsys):
        from repro.api.cli import main

        assert main(["map", "--matrix", "cage15_like", "--algos", "NOPE"]) == 2
        assert "unknown mapper" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["0", "-1"])
    def test_cli_map_rejects_nonpositive_delta(self, capsys, delta):
        from repro.api.cli import main

        with pytest.raises(SystemExit) as info:
            main(["map", "--matrix", "cage15_like", "--algos", "UMC", "--delta", delta])
        assert info.value.code == 2
        assert "--delta" in capsys.readouterr().err

    def test_cli_map_unknown_matrix_errors(self, capsys):
        from repro.api.cli import main

        assert main(["map", "--matrix", "no_such", "--algos", "UG"]) == 2
        assert "unknown matrix" in capsys.readouterr().err
