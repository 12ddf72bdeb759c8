"""Tests of the benchmark itself (run: ``python -m pytest perfbench``)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from perfbench.common import END_TO_END, PER_LAYER, TooFewSamples, min_samples, percentile
from perfbench.tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def _bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args: str, cwd: str = ROOT, timeout: float = 300) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, RUN if cwd == ROOT else "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )


# -- percentiles --------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    with pytest.raises(TooFewSamples):
        percentile(range(19), 0.5)
    assert percentile(range(20), 0.5) == pytest.approx(9.5)
    assert min_samples(0.5) == 20
    n = min_samples(0.9)
    with pytest.raises(TooFewSamples):
        percentile(range(n - 1), 0.9)
    xs = sorted(range(n))
    p90 = percentile(xs, 0.9)
    assert sum(x > p90 for x in xs) == 10
    with pytest.raises(TooFewSamples):
        percentile([], 0.5)


# -- calibration --------------------------------------------------------------
def test_scaled_timings_undo_host_speed():
    from perfbench.calibrate import NOMINAL_S, Calibration, scaled_timings

    calibration = Calibration()
    calibration.samples = [NOMINAL_S / 2] * 3 + [NOMINAL_S * 9]  # twice as fast, one stall
    assert calibration.speed == pytest.approx(2.0)
    timings, note = scaled_timings(100.0, 10.0, calibration)
    assert timings == {"mappings_per_s": pytest.approx(50.0), "latency_p50_ms": pytest.approx(20.0)}
    assert "raw mappings_per_s 100.0000" in note


# -- tracing ------------------------------------------------------------------
def test_self_time_subtracts_direct_children(tmp_path):
    tracer = Tracer()
    with tracer.span("outer", request=7):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.03)
    self_times = tracer.self_times()
    assert self_times["inner"] == pytest.approx(tracer.total_time("inner"))
    assert self_times["outer"] == pytest.approx(
        tracer.total_time("outer") - tracer.total_time("inner")
    )
    inner = next(s for s in tracer.spans if s.name == "inner")
    assert inner.request == 7
    path = tmp_path / "trace.json"
    tracer.write_chrome(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert {e["name"] for e in events} == {"outer", "inner"}
    assert all(e["ph"] == "X" and e["dur"] > 0 for e in events)


# -- sweep oracle and quality ---------------------------------------------------
def test_validity_oracle_rejects_bad_placements():
    from perfbench.sweep import placement_valid
    from repro.topology.machine import Machine
    from repro.topology.torus import Torus3D

    machine = Machine(Torus3D((2, 2, 2)), [1, 3, 5], procs_per_node=2)
    assert placement_valid(np.array([1, 1, 3, 5]), machine, 4)
    assert not placement_valid(np.array([1, 1, 1, 5]), machine, 4)  # node 1 over capacity
    assert not placement_valid(np.array([0, 1, 3, 5]), machine, 4)  # node 0 not allocated
    assert not placement_valid(np.array([1, 3, 5]), machine, 4)  # a rank is missing


def test_quality_equals_run_fig2():
    from perfbench.sweep import BENCH_MAPPERS, QUALITY, Sweep, quality_of
    from repro.experiments.fig2 import run_fig2
    from repro.experiments.harness import WorkloadCache
    from repro.mapping.pipeline import FAMILY_MAPPER_NAMES, MAPPER_NAMES

    assert BENCH_MAPPERS == MAPPER_NAMES + FAMILY_MAPPER_NAMES
    sweep = Sweep("smoke", seed=3)
    requests, service = sweep.fresh_pass()
    per_request = []
    for request in requests:
        _, responses = sweep.map_one(service, request)
        per_request.append({r.algorithm: r for r in responses})
    ours = quality_of(per_request)
    fig2 = run_fig2(sweep.profile, WorkloadCache(sweep.profile), mappers=BENCH_MAPPERS)
    procs = sweep.profile.proc_counts[0]
    for name, algo, metric in QUALITY:
        assert ours[name] == pytest.approx(fig2.values[(procs, algo, metric)], rel=1e-12)


# -- serve generator ------------------------------------------------------------
class _FakeConnection:
    def __init__(self, server):
        self.server = server

    def __enter__(self):
        with self.server.lock:
            self.server.opened += 1
            self.server.open_now += 1
            self.server.peak = max(self.server.peak, self.server.open_now)
        return self

    def __exit__(self, *exc):
        with self.server.lock:
            self.server.open_now -= 1

    def map(self, entries):
        time.sleep(0.001)
        return {"ok": True, "results": [{"algorithm": "UG"}], "elapsed_s": 0.001}


class _FakeServer:
    def __init__(self):
        self.lock = threading.Lock()
        self.opened = self.open_now = self.peak = 0

    def client(self):
        return _FakeConnection(self)


def test_serve_generator_stays_within_nproc_connections():
    from perfbench.serve import CONNECTIONS, drive

    server = _FakeServer()
    samples, _ = drive(server, [{}] * 5, seed=1, seconds=0.2, min_count=50, tracer=Tracer())
    assert len(samples) >= 50
    assert CONNECTIONS == 2
    assert server.opened == server.peak == CONNECTIONS
    assert server.open_now == 0


# -- the contract -----------------------------------------------------------------
def test_benchmark_json_declares_what_the_runs_print():
    bench = _bench_json()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert [w["name"] for w in bench["workloads"]] == ["sweep", "serve", "pool"]


@pytest.mark.parametrize("workload", ["sweep", "serve", "pool"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_pass_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "2", "--seconds", "0.5",
                "--trace", trace, "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = PER_LAYER if trace == "1" else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path), timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
