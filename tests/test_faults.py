"""Chaos tests: fault injection, self-healing pools, degraded machines.

Pins the fault-tolerance contracts of the serving stack:

* the engine returns **partial batch results** (structured
  :class:`~repro.api.fault.PlanError` outcomes) instead of aborting,
  while unaffected requests stay byte-identical to the serial reference;
* transient node failures are retried with exponential backoff and heal
  without changing results;
* an :class:`~repro.api.pool.ExecutorPool` whose worker is killed
  mid-batch **self-heals**: the executor respawns, only the lost nodes
  re-run, and a request that keeps killing workers is quarantined
  (failed cleanly or re-run serially) rather than re-submitted forever;
* degraded machines (dead links / dead nodes) are first-class: routes
  detour around the failure mask, impossible pairs raise, and fault
  masks are fingerprinted into cache keys so degraded and healthy runs
  never share artifacts;
* the :class:`~repro.api.store.DiskArtifactStore` shrugs off corrupted
  artifacts (recompute, never wrong data) and sweeps orphaned temp
  files on open.

All faults are driven by the deterministic
:class:`~repro.api.fault.FaultInjector` token harness — each armed
fault fires exactly once, however many workers race for it.
"""

from __future__ import annotations

import asyncio
import os
import time

import numpy as np
import pytest

from repro.api import (
    AsyncMappingService,
    DiskArtifactStore,
    ExecutorPool,
    FaultInjector,
    MappingService,
    MapRequest,
    RetryPolicy,
    register_mapper,
    unregister_mapper,
)
from repro.api.fault import NO_RETRY, InjectedFault, PlanError
from repro.api.stages import PLACEMENT_STAGES
from repro.graph.task_graph import TaskGraph
from repro.topology import routing
from repro.topology.allocation import AllocationSpec, SparseAllocator
from repro.topology.routing import DeadEndpointError, UnroutableError
from repro.topology.torus import Torus3D


@pytest.fixture(scope="module")
def workload():
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


def _request(tg, machine, tag, algos=("UG",), seed=3):
    return MapRequest(
        task_graph=tg, machine=machine, algorithms=algos, seed=seed, tag=tag
    )


def _assert_same_mapping(a, b):
    np.testing.assert_array_equal(a.fine_gamma, b.fine_gamma)
    np.testing.assert_array_equal(a.coarse_gamma, b.coarse_gamma)


@pytest.fixture()
def injector(tmp_path):
    inj = FaultInjector(str(tmp_path / "faults"))
    with inj:
        yield inj
    inj.disarm()


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_crashes=0)
        with pytest.raises(ValueError):
            RetryPolicy(poison="retry-forever")

    def test_exponential_backoff_is_capped(self):
        policy = RetryPolicy(backoff=0.1, backoff_factor=2.0, max_backoff=0.3)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(5) == pytest.approx(0.3)  # capped

    def test_no_retry_default(self):
        assert NO_RETRY.max_attempts == 1

    def test_injector_rejects_unknown_kind(self, tmp_path):
        inj = FaultInjector(str(tmp_path))
        with pytest.raises(ValueError):
            inj.arm("meteor-strike", "r0")


class TestPartialResults:
    """on_error="partial": failures become structured outcomes."""

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_one_failure_spares_the_rest(self, workload, injector, backend):
        tg, machine = workload
        reqs = [_request(tg, machine, f"r{i}") for i in range(3)]
        baseline = MappingService().map_batch(
            [_request(tg, machine, f"r{i}") for i in range(3)]
        )
        injector.arm("raise", "r1")
        out = MappingService().map_batch(
            reqs, backend=backend, workers=2, on_error="partial"
        )
        assert [r.ok for r in out] == [True, False, True]
        err = out[1].error
        assert isinstance(err, PlanError)
        assert err.kind == "error"
        assert err.exception == "InjectedFault"
        assert err.tag == "r1"
        assert "InjectedFault" in str(err)
        assert err.as_dict()["kind"] == "error"
        # The failed response guards its mapping accessors.
        with pytest.raises(RuntimeError):
            out[1].fine_gamma
        # Unaffected requests are byte-identical to the healthy run.
        _assert_same_mapping(out[0], baseline[0])
        _assert_same_mapping(out[2], baseline[2])

    def test_grouping_failure_cascades_upstream(self, workload, injector):
        tg, machine = workload
        reqs = [_request(tg, machine, f"r{i}") for i in range(3)]
        # All three requests share one grouping node, tagged with the
        # first request that needs it; its failure fails every consumer.
        injector.arm("raise", "r0", node="grouping")
        out = MappingService().map_batch(reqs, on_error="partial")
        assert all(not r.ok for r in out)
        assert all(r.error.kind == "upstream" for r in out)

    def test_default_raise_mode_aborts_like_before(self, workload, injector):
        tg, machine = workload
        injector.arm("raise", "r0")
        with pytest.raises(InjectedFault):
            MappingService().map_batch([_request(tg, machine, "r0")])

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_retry_heals_transient_fault(self, workload, injector, backend):
        tg, machine = workload
        reqs = [_request(tg, machine, f"r{i}") for i in range(3)]
        baseline = MappingService().map_batch(
            [_request(tg, machine, f"r{i}") for i in range(3)]
        )
        injector.arm("raise", "r1")
        out = MappingService().map_batch(
            reqs,
            backend=backend,
            workers=2,
            retry=RetryPolicy(max_attempts=3, backoff=0.01),
        )
        assert all(r.ok for r in out)
        for a, b in zip(baseline, out):
            _assert_same_mapping(a, b)

    def test_retry_exhaustion_reports_attempts(self, workload, injector):
        tg, machine = workload
        injector.arm("raise", "r0", count=3)
        out = MappingService().map_batch(
            [_request(tg, machine, "r0")],
            retry=RetryPolicy(max_attempts=3, backoff=0.01),
            on_error="partial",
        )
        assert not out[0].ok
        assert out[0].error.attempts == 3

    def test_healthy_results_identical_with_machinery_enabled(self, workload):
        """Retry/timeout/partial arming must not change healthy results."""
        tg, machine = workload
        reqs = lambda: [  # noqa: E731
            _request(tg, machine, f"r{i}", algos=("DEF", "UG", "UWH"))
            for i in range(2)
        ]
        baseline = MappingService().map_batch(reqs())
        for backend in ("serial", "thread"):
            out = MappingService().map_batch(
                reqs(),
                backend=backend,
                workers=2,
                retry=RetryPolicy(max_attempts=3, backoff=0.01),
                node_timeout=120.0,
                on_error="partial",
            )
            assert all(r.ok for r in out)
            for a, b in zip(baseline, out):
                assert a.algorithm == b.algorithm
                _assert_same_mapping(a, b)

    def test_on_error_validated(self, workload):
        tg, machine = workload
        with pytest.raises(ValueError):
            MappingService().map_batch(
                [_request(tg, machine, "r0")], on_error="ignore"
            )


class TestNodeTimeout:
    def test_slow_node_times_out_others_succeed(self, workload):
        tg, machine = workload

        @register_mapper("SLEEPY", description="sleeps, then places greedily")
        def sleepy(ctx):
            time.sleep(3.0)
            return PLACEMENT_STAGES["greedy"](ctx)  # pragma: no cover

        try:
            out = MappingService().map_batch(
                [
                    _request(tg, machine, "slow", algos=("SLEEPY",)),
                    _request(tg, machine, "fast", algos=("UG",)),
                ],
                backend="thread",
                workers=2,
                node_timeout=0.3,
                on_error="partial",
            )
        finally:
            unregister_mapper("SLEEPY")
        slow = next(r for r in out if r.tag == "slow")
        fast = next(r for r in out if r.tag == "fast")
        assert not slow.ok and slow.error.kind == "timeout"
        assert "deadline" in slow.error.message
        assert fast.ok

    def test_timeout_raises_without_partial(self, workload):
        tg, machine = workload

        @register_mapper("SLEEPY2", description="sleeps, then places greedily")
        def sleepy(ctx):
            time.sleep(3.0)
            return PLACEMENT_STAGES["greedy"](ctx)  # pragma: no cover

        try:
            with pytest.raises(TimeoutError):
                MappingService().map_batch(
                    [_request(tg, machine, "slow", algos=("SLEEPY2",))],
                    backend="thread",
                    node_timeout=0.3,
                )
        finally:
            unregister_mapper("SLEEPY2")


class TestPoolSelfHealing:
    def test_worker_kill_respawns_and_recovers(self, workload, injector):
        tg, machine = workload
        reqs = [_request(tg, machine, f"r{i}") for i in range(4)]
        baseline = MappingService().map_batch(
            [_request(tg, machine, f"r{i}") for i in range(4)]
        )
        injector.arm("kill-worker", "r2")
        with ExecutorPool("process", workers=2) as pool:
            service = MappingService(pool=pool)
            out = service.map_batch(reqs, on_error="partial")
            # One kill: the node is a first-time crash suspect, so it is
            # re-submitted to the respawned pool and succeeds (the
            # injection token was claimed by the dead worker).
            assert all(r.ok for r in out)
            for a, b in zip(baseline, out):
                _assert_same_mapping(a, b)
            assert pool.restarts == 1
            assert pool.healthy
            stats = pool.stats()
            assert stats["restarts"] == 1
            assert stats["healthy"] is True
            # The pool keeps serving.
            nxt = service.map_batch([_request(tg, machine, "next")])
            assert nxt[0].ok

    def test_poison_request_quarantined_cleanly(self, workload, injector):
        tg, machine = workload
        injector.arm("kill-worker", "p0", count=5)
        with ExecutorPool("process", workers=2) as pool:
            service = MappingService(pool=pool)
            out = service.map_batch(
                [_request(tg, machine, "p0"), _request(tg, machine, "p1")],
                on_error="partial",
                retry=RetryPolicy(max_crashes=2),
            )
            by_tag = {r.tag: r for r in out}
            assert not by_tag["p0"].ok
            assert by_tag["p0"].error.kind == "crash"
            assert by_tag["p1"].ok
            assert pool.healthy
            # Quarantine means never re-submitted: tokens remain armed.
            assert injector.pending("kill-worker") > 0
            nxt = service.map_batch([_request(tg, machine, "p1")])
            assert nxt[0].ok

    def test_poison_serial_fallback_recovers(self, workload, injector):
        tg, machine = workload
        baseline = MappingService().map_batch(
            [_request(tg, machine, "p0"), _request(tg, machine, "p1")]
        )
        # Exactly max_crashes kills: quarantine re-runs p0 in-process,
        # where no token is left to fire.
        injector.arm("kill-worker", "p0", count=2)
        with ExecutorPool("process", workers=2) as pool:
            service = MappingService(pool=pool)
            out = service.map_batch(
                [_request(tg, machine, "p0"), _request(tg, machine, "p1")],
                on_error="partial",
                retry=RetryPolicy(max_crashes=2, poison="serial"),
            )
            assert all(r.ok for r in out)
            for a, b in zip(baseline, out):
                _assert_same_mapping(a, b)
            assert pool.restarts == 2

    def test_unrecoverable_executor_finishes_in_process(self, workload):
        """An executor that stays broken after one respawn is given up:
        every node runs in-process, byte-identically."""
        from concurrent.futures import BrokenExecutor

        from repro.api import build_plan
        from repro.api.executor import _collect, _ExecutorWorkers, drive_plan

        tg, machine = workload
        reqs = [_request(tg, machine, f"r{i}", algos=("UG", "UWH")) for i in range(2)]
        baseline = MappingService().map_batch(reqs)
        respawns = []

        def submit(node):
            raise BrokenExecutor("executor is gone")

        plan = build_plan(reqs)
        workers = _ExecutorWorkers(plan, submit, respawn=lambda: respawns.append(1))
        out = _collect(plan, drive_plan(plan, MappingService(), workers))
        assert respawns == [1]
        assert all(r.ok for r in out)
        for a, b in zip(baseline, out):
            _assert_same_mapping(a, b)

    def test_healthy_goes_false_on_broken_executor(self):
        with ExecutorPool("process", workers=2) as pool:
            assert pool.healthy
            future = pool.submit(os._exit, 87)
            with pytest.raises(Exception):
                future.result()
            # executor_alive answers "is one spawned", healthy answers
            # "can it take work" — a crashed pool is alive but sick.
            assert pool.executor_alive
            assert not pool.healthy
            pool.respawn()
            assert pool.healthy
            assert pool.restarts == 1

    def test_raise_mode_crash_aborts_but_pool_heals(self, workload, injector):
        tg, machine = workload
        injector.arm("kill-worker", "k0")
        with ExecutorPool("process", workers=2) as pool:
            service = MappingService(pool=pool)
            # Legacy raise mode: with max_crashes=1 the first kill
            # quarantine-fails the node and aborts the batch — but the
            # pool respawns underneath and stays serviceable.
            with pytest.raises(Exception):
                service.map_batch(
                    [_request(tg, machine, "k0")],
                    retry=RetryPolicy(max_crashes=1),
                )
            assert pool.healthy
            assert pool.restarts == 1
            nxt = service.map_batch([_request(tg, machine, "next")])
            assert nxt[0].ok


class TestChaosAcceptance:
    """The ISSUE's acceptance scenario, end to end."""

    def test_kill_plus_dead_link_partial_batch(self, workload, injector):
        tg, machine = workload
        # One link on some allocated node's route is masked dead.
        degraded = machine.degrade(dead_links=[int(machine.alloc_nodes[0]) * 6])
        reqs = [
            _request(tg, machine, "r0"),
            _request(tg, degraded, "r1-degraded"),
            _request(tg, machine, "r2"),
            _request(tg, machine, "r3"),
        ]
        # Serial reference on identical inputs (healthy + degraded).
        baseline = MappingService().map_batch(
            [
                _request(tg, machine, "r0"),
                _request(tg, degraded, "r1-degraded"),
                _request(tg, machine, "r2"),
                _request(tg, machine, "r3"),
            ]
        )
        # r3 segfaults its worker until quarantined.
        injector.arm("kill-worker", "r3", count=4)
        with ExecutorPool("process", workers=2) as pool:
            service = MappingService(pool=pool)
            out = service.map_batch(
                reqs, on_error="partial", retry=RetryPolicy(max_crashes=2)
            )
            by_tag = {r.tag: r for r in out}
            # N-1 byte-identical successes + 1 structured error.
            assert sum(1 for r in out if r.ok) == len(reqs) - 1
            assert by_tag["r3"].error.kind == "crash"
            for ref in baseline:
                if ref.tag == "r3":
                    continue
                _assert_same_mapping(ref, by_tag[ref.tag])
            # The pool is healthy for the next batch.
            assert pool.healthy
            nxt = service.map_batch([_request(tg, machine, "again")])
            assert nxt[0].ok


class TestCorruptArtifacts:
    def test_corrupted_store_recomputes_identically(self, workload, tmp_path):
        tg, machine = workload
        store_dir = str(tmp_path / "store")
        reqs = lambda: [  # noqa: E731
            _request(tg, machine, f"r{i}", algos=("DEF", "UG")) for i in range(2)
        ]
        from repro.api.cache import ArtifactCache

        first = MappingService(
            cache=ArtifactCache(store=DiskArtifactStore(store_dir))
        ).map_batch(reqs())
        store = DiskArtifactStore(store_dir)
        corrupted = FaultInjector.corrupt_artifact(store)
        assert corrupted > 0
        again = MappingService(
            cache=ArtifactCache(store=DiskArtifactStore(store_dir))
        ).map_batch(reqs())
        assert all(r.ok for r in again)
        for a, b in zip(first, again):
            _assert_same_mapping(a, b)


class TestStoreSweep:
    def test_orphaned_tmp_swept_on_open(self, tmp_path):
        root = tmp_path / "store"
        store = DiskArtifactStore(str(root))
        store.save("grouping", ("k",), np.arange(4))
        ns_dir = root / "grouping"
        orphan = ns_dir / "deadbeef.npz.tmp"
        orphan.write_bytes(b"partial write")
        old = time.time() - 3600
        os.utime(orphan, (old, old))
        DiskArtifactStore(str(root))  # re-open sweeps
        assert not orphan.exists()
        # The real artifact survived.
        assert store.load("grouping", ("k",)) is not None

    def test_fresh_tmp_spared(self, tmp_path):
        """A live writer's temp file (recent mtime) must not be yanked."""
        root = tmp_path / "store"
        DiskArtifactStore(str(root))
        fresh = root / "live.npz.tmp"
        fresh.write_bytes(b"mid-write")
        DiskArtifactStore(str(root))
        assert fresh.exists()
        assert DiskArtifactStore(str(root)).sweep_orphans(min_age_s=0.0) == 1
        assert not fresh.exists()


class TestDegradedMachines:
    def test_routes_detour_around_dead_link(self):
        torus = Torus3D((4, 4, 4))
        healthy = routing.route(torus, 0, 3)
        dead = healthy[0]
        faulty = torus.with_failures(dead_links=[dead])
        detour = routing.route(faulty, 0, 3)
        assert dead not in detour
        assert len(detour) >= len(healthy)
        # The detour is a contiguous path 0 -> 3 over live links.
        alive = faulty.link_alive()
        at = 0
        for link in detour:
            assert alive[link]
            u, v = faulty.link_endpoints(np.asarray([link]))
            assert int(u[0]) == at
            at = int(v[0])
        assert at == 3

    def test_unaffected_routes_stay_byte_identical(self):
        torus = Torus3D((4, 4, 4))
        rng = np.random.default_rng(0)
        src = rng.integers(0, 64, 200).astype(np.int64)
        dst = rng.integers(0, 64, 200).astype(np.int64)
        links0, msg0 = routing.routes_bulk(torus, src, dst)
        dead = int(links0[0])
        faulty = torus.with_failures(dead_links=[dead])
        links1, msg1 = routing.routes_bulk(faulty, src, dst)
        affected = set(msg0[links0 == dead].tolist())
        table0 = routing.RouteTable.from_bulk(
            src.shape[0], links0, msg0, torus.num_links
        )
        table1 = routing.RouteTable.from_bulk(
            src.shape[0], links1, msg1, faulty.num_links
        )
        for m in range(src.shape[0]):
            a = table0.links[table0.ptr[m] : table0.ptr[m + 1]]
            b = table1.links[table1.ptr[m] : table1.ptr[m + 1]]
            if m in affected:
                assert dead not in b.tolist()
            else:
                np.testing.assert_array_equal(a, b)

    def test_dead_endpoint_raises(self):
        torus = Torus3D((4, 4, 2)).with_failures(dead_nodes=[5])
        with pytest.raises(DeadEndpointError):
            routing.routes_bulk(
                torus,
                np.asarray([0], dtype=np.int64),
                np.asarray([5], dtype=np.int64),
            )

    def test_disconnected_pair_unroutable(self):
        # 1-D ring of 4: killing both directed links of both neighbours
        # of node 0 disconnects it in X on a (4,1,1) torus.
        torus = Torus3D((4, 1, 1))
        dead = []
        for node in (0, 1, 3):
            for direction in (0, 1):
                dead.append(node * 6 + 0 * 2 + direction)
        faulty = torus.with_failures(dead_links=dead)
        with pytest.raises(UnroutableError):
            routing.routes_bulk(
                faulty,
                np.asarray([0], dtype=np.int64),
                np.asarray([2], dtype=np.int64),
            )

    def test_degrade_drops_dead_nodes_from_allocation(self, workload):
        _, machine = workload
        victim = int(machine.alloc_nodes[0])
        degraded = machine.degrade(dead_nodes=[victim])
        assert victim not in degraded.alloc_nodes
        assert degraded.has_faults
        assert degraded.num_alloc_nodes == machine.num_alloc_nodes - 1

    def test_degrade_rejects_total_loss(self, workload):
        _, machine = workload
        with pytest.raises(ValueError):
            machine.degrade(dead_nodes=list(machine.alloc_nodes))

    def test_fault_masks_change_cache_keys(self, workload):
        from repro.api.cache import machine_key

        _, machine = workload
        degraded = machine.degrade(
            dead_links=[int(machine.alloc_nodes[0]) * 6]
        )
        assert machine_key(machine) != machine_key(degraded)
        src = machine.alloc_nodes[:4].astype(np.int64)
        dst = machine.alloc_nodes[4:8].astype(np.int64)
        assert routing.route_table_key(
            machine.torus, src, dst
        ) != routing.route_table_key(degraded.torus, src, dst)

    def test_mapping_on_degraded_machine_succeeds(self, workload):
        tg, machine = workload
        degraded = machine.degrade(dead_links=[int(machine.alloc_nodes[0]) * 6])
        out = MappingService().map_batch(
            [
                MapRequest(
                    task_graph=tg,
                    machine=degraded,
                    algorithms=("UG", "UWH"),
                    seed=3,
                    evaluate=True,
                )
            ]
        )
        assert all(r.ok for r in out)
        assert all(r.metrics is not None for r in out)

    def test_allocation_on_dead_node_rejected(self, workload):
        from repro.topology.machine import Machine

        _, machine = workload
        victim = int(machine.alloc_nodes[0])
        faulty_torus = machine.torus.with_failures(dead_nodes=[victim])
        with pytest.raises(ValueError):
            Machine(faulty_torus, machine.alloc_nodes, machine.capacities)


class TestAioCancellation:
    def test_cancel_releases_slot_pool_stays_serviceable(self, workload):
        tg, machine = workload

        async def run():
            async with AsyncMappingService(max_in_flight=1) as svc:
                task = svc.submit(_request(tg, machine, "victim"))
                await asyncio.sleep(0)  # let it reach the semaphore
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                # The slot must be free again: this await would hang
                # forever (max_in_flight=1) if cancellation leaked it.
                out = await asyncio.wait_for(
                    svc.map_batch(_request(tg, machine, "after")), timeout=60
                )
                assert out[0].ok
                assert svc.in_flight == 0

        asyncio.run(run())

    def test_timeout_releases_slot(self, workload):
        tg, machine = workload

        @register_mapper("SLEEPY3", description="sleeps, then places greedily")
        def sleepy(ctx):
            time.sleep(2.0)
            return PLACEMENT_STAGES["greedy"](ctx)

        try:

            async def run():
                async with AsyncMappingService(max_in_flight=1) as svc:
                    with pytest.raises(asyncio.TimeoutError):
                        await svc.map(
                            _request(tg, machine, "slow", algos=("SLEEPY3",)),
                            timeout=0.2,
                        )
                    out = await asyncio.wait_for(
                        svc.map_batch(_request(tg, machine, "after")), timeout=60
                    )
                    assert out[0].ok

            asyncio.run(run())
        finally:
            unregister_mapper("SLEEPY3")

    def test_fault_kwargs_flow_through_async(self, workload, injector):
        tg, machine = workload
        injector.arm("raise", "a0")

        async def run():
            async with AsyncMappingService() as svc:
                out = await svc.map_batch(
                    [
                        _request(tg, machine, "a0"),
                        _request(tg, machine, "a1"),
                    ],
                    on_error="partial",
                )
                by_tag = {r.tag: r for r in out}
                assert not by_tag["a0"].ok
                assert by_tag["a0"].error.kind == "error"
                assert by_tag["a1"].ok

        asyncio.run(run())
