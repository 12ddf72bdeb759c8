"""EngineConfig: validation, per-batch replacement, and the CLI's flags.

* ``EngineConfig`` rejects a non-positive ``node_timeout`` and a worker
  count below 1 when it is built, before any batch runs.
* A per-batch ``map_batch(..., config=...)`` stands in for the
  service's config, so a ``None`` field clears what the service set;
  only a ``None`` backend or worker count means the service's.
* The CLI rejects the same bad values in argparse, before any workload
  is built, and its fault flags reach the config the batch runs with.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import fields, replace

import pytest

from repro.api import BACKENDS, EngineConfig, ExecutorPool, MappingService, MapRequest
from repro.api.cli import build_parser, main
from repro.api.fault import RetryPolicy
from repro.api.registry import register_mapper, unregister_mapper
from repro.api.stages import PLACEMENT_STAGES


def _fingerprints(responses):
    return [r.fingerprint() for r in responses]


class TestValidation:
    @pytest.mark.parametrize("timeout", [0, -1, 0.0, float("nan")])
    def test_node_timeout_must_be_positive(self, timeout):
        with pytest.raises(ValueError, match="node_timeout"):
            EngineConfig(node_timeout=timeout)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_must_be_at_least_one(self, workers):
        with pytest.raises(ValueError, match="workers"):
            EngineConfig(workers=workers)

    def test_valid_values_accepted(self):
        cfg = EngineConfig(workers=1, node_timeout=0.5)
        assert cfg.workers == 1 and cfg.node_timeout == 0.5

    def test_the_eight_fields(self):
        assert [f.name for f in fields(EngineConfig)] == [
            "backend",
            "workers",
            "store_dir",
            "cache_entries",
            "cache_bytes",
            "retry",
            "node_timeout",
            "on_error",
        ]


class TestPerBatchConfig:
    def test_batch_config_replaces_service_config(self, machine16, random_task_graph):
        """A ``None`` node_timeout in the batch config clears the service's."""

        @register_mapper("SLOWUG", description="sleeps, then places greedily")
        def slow(ctx):
            time.sleep(0.3)
            return PLACEMENT_STAGES["greedy"](ctx)

        try:
            batch = [
                MapRequest(
                    task_graph=random_task_graph,
                    machine=machine16,
                    algorithms=("UG", "SLOWUG"),
                    seed=1,
                    tag="r0",
                )
            ]
            serial = MappingService().map_batch(batch)
            with ExecutorPool("process", workers=2) as pool:
                svc = MappingService(
                    pool=pool,
                    config=EngineConfig(node_timeout=0.05, on_error="partial"),
                )
                # The cleared batch runs first, so the workers are warm
                # before the 50 ms deadline applies.
                cleared = svc.map_batch(
                    batch, config=replace(svc.config, node_timeout=None)
                )
                assert all(r.ok for r in cleared)
                assert _fingerprints(cleared) == _fingerprints(serial)

                timed_out = svc.map_batch(batch)
                assert [r.ok for r in timed_out] == [True, False]
                assert timed_out[1].error.kind == "timeout"
        finally:
            unregister_mapper("SLOWUG")

    def test_none_backend_and_workers_mean_the_service_s(self, monkeypatch):
        import repro.api.executor as executor

        seen = []
        monkeypatch.setattr(
            executor,
            "execute_plan",
            lambda plan, svc, config, **kw: seen.append(config) or [],
        )
        svc = MappingService(backend="process", workers=2)
        svc.map_batch([], config=EngineConfig(on_error="partial"))
        svc.map_batch([], config=EngineConfig(backend="serial", workers=3))
        inherited, explicit = seen
        assert (inherited.backend, inherited.workers) == ("process", 2)
        assert inherited.on_error == "partial"
        assert (explicit.backend, explicit.workers) == ("serial", 3)

    def test_service_config_holds_resolved_backend(self):
        assert MappingService().config.backend == "serial"
        assert MappingService(backend="process", workers=2).config == EngineConfig(
            backend="process", workers=2
        )

    def test_thread_backend_is_refused(self, machine16, random_task_graph, monkeypatch):
        """Two backends are left, ``serial`` and ``process``."""
        from repro.experiments.harness import WorkloadCache
        from repro.experiments.profiles import get_profile

        assert BACKENDS == ("serial", "process")
        with pytest.raises(ValueError, match="thread"):
            MappingService(backend="thread")
        request = MapRequest(task_graph=random_task_graph, machine=machine16)
        with pytest.raises(ValueError, match="thread"):
            MappingService().map_batch(request, config=EngineConfig(backend="thread"))
        with pytest.raises(ValueError, match="thread"):
            ExecutorPool("thread")
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        with pytest.raises(ValueError, match="thread"):
            WorkloadCache(get_profile("smoke"))


class TestCliFlags:
    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--node-timeout", "0"),
            ("--node-timeout", "-1"),
            ("--workers", "0"),
            ("--retries", "-1"),
            ("--backend", "thread"),  # the removed thread backend
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["map", "--matrix", "cage15_like"],
            ["map-batch", "--manifest", "unused.json"],
            ["serve"],
        ],
    )
    def test_bad_values_are_usage_errors(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(command + [flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_bad_flag_fails_before_the_workload_build(self, monkeypatch):
        import repro.api.cli as cli

        def no_build(*args, **kwargs):
            raise AssertionError("the workload was built")

        monkeypatch.setattr(cli, "build_workload", no_build)
        with pytest.raises(SystemExit):
            main(["map", "--matrix", "cage15_like", "--node-timeout", "0"])

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_nonpositive_rows_per_unit_fails_before_the_matrix(self, monkeypatch, value, capsys):
        import repro.data.corpus as corpus

        def no_matrix(*args, **kwargs):
            raise AssertionError("the matrix was built")

        monkeypatch.setattr(corpus, "load_matrix", no_matrix)
        argv = ["map", "--matrix", "cage15_like", "--rows-per-unit", value]
        assert main(argv) == 2
        assert "rows_per_unit" in capsys.readouterr().err

    def test_removed_backend_flag_is_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["map", "--matrix", "cage15_like", "--kernel-backend", "numpy"]
            )

    @pytest.mark.parametrize("flags", [["--follow"], ["--idle-timeout", "5"]])
    def test_removed_follow_flags_are_usage_errors(self, flags):
        """``serve`` is the one long-running front end: ``map-batch`` has
        no stream mode left."""
        with pytest.raises(SystemExit) as exc:
            main(["map-batch", "--manifest", "-"] + flags)
        assert exc.value.code == 2

    def test_the_subcommands(self):
        (sub,) = [
            a
            for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        assert sorted(sub.choices) == ["list", "map", "map-batch", "serve", "stats"]

    def test_fault_flags_reach_the_batch_config(
        self, monkeypatch, machine16, random_task_graph
    ):
        import repro.api.cli as cli

        monkeypatch.setattr(
            cli, "build_workload", lambda *a, **k: (random_task_graph, machine16)
        )
        seen = []
        real = MappingService.map_batch

        def recording(self, requests, *, config=None):
            seen.append(config if config is not None else self.config)
            return real(self, requests, config=config)

        monkeypatch.setattr(MappingService, "map_batch", recording)
        argv = ["map", "--matrix", "cage15_like", "--algos", "UG", "--json"]
        assert main(argv + ["--retries", "2", "--node-timeout", "30", "--partial"]) == 0
        assert main(argv) == 0
        flagged, plain = seen
        assert flagged.retry == RetryPolicy(max_attempts=3)
        assert flagged.node_timeout == 30.0
        assert flagged.on_error == "partial"
        assert (plain.retry, plain.node_timeout, plain.on_error) == (None, None, "raise")
