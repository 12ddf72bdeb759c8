"""Multi-host plan sharding: router policy and coordinator semantics.

Pins the distributed-dispatch contracts of the sharding tentpole:

* :class:`~repro.dist.router.ShardRouter` placement is deterministic,
  host-order independent, colocates every node of one workload
  fingerprint, pins shared-artifact producers (groupings and DEF
  baselines) against stealing, and reroutes a dead host's workloads
  consistently onto survivors;
* a sharded ``map_batch`` over two loopback
  :class:`~repro.dist.host.HostServer` processes is **byte-identical**
  to the single-host serial run (compared by
  ``MapResponse.fingerprint()``, which covers the mappings and nothing
  timing-dependent);
* shared groupings are computed **exactly once on exactly one host** —
  the remote store replicates them so consumers anywhere read, never
  recompute;
* killing a host mid-batch with ``on_error="partial"`` yields partial
  results: structured :class:`~repro.api.fault.PlanError` failures
  (``host_lost`` / ``upstream``) only for the poisoned workload, while
  every other request completes byte-identically;
* with a retry budget the coordinator **reroutes** the lost work onto
  the survivor and the whole batch completes unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import EngineConfig, MappingService, MapRequest
from repro.api.executor import _collect
from repro.api.fault import RetryPolicy
from repro.api.plan import build_plan
from repro.dist import ArtifactStoreServer, HostServer, ShardRouter
from repro.dist.coordinator import run_sharded
from repro.graph.task_graph import TaskGraph
from repro.topology.allocation import AllocationSpec, SparseAllocator
from repro.topology.torus import Torus3D


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def machine():
    torus = Torus3D((4, 4, 2))
    return SparseAllocator(torus).allocate(
        AllocationSpec(num_nodes=8, procs_per_node=3, fragmentation=0.3, seed=4)
    )


def _task_graph(seed: int, n: int = 24, m: int = 160) -> TaskGraph:
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    keep = src != dst
    return TaskGraph.from_edges(n, src[keep], dst[keep], rng.uniform(1, 5, keep.sum()))


@pytest.fixture(scope="module")
def requests(machine):
    """Four distinct workload fingerprints (four task graphs, one machine)."""
    return [
        MapRequest(
            task_graph=_task_graph(seed),
            machine=machine,
            algorithms=("UG",),
            seed=0,
            tag=f"req-{seed}",
        )
        for seed in range(4)
    ]


@pytest.fixture(scope="module")
def serial_responses(requests):
    return MappingService().map_batch(requests)


def _fingerprints(responses):
    return [r.fingerprint() for r in responses]


# ---------------------------------------------------------------------------
# Loopback cluster: one store server + two host servers
# ---------------------------------------------------------------------------


@pytest.fixture()
def cluster(tmp_path):
    """A fresh two-host loopback cluster per test (kill tests consume hosts)."""
    store_srv = ArtifactStoreServer(str(tmp_path / "store")).start()
    remote = "%s:%d" % store_srv.address
    hosts = []
    for i in range(2):
        host = HostServer(
            store_remote=remote,
            store_dir=str(tmp_path / f"host{i}"),
            capacity=1,
        )
        host.start()
        hosts.append(host)
    addresses = ["%s:%d" % h.address for h in hosts]
    yield store_srv, hosts, addresses
    for h in hosts:
        h.stop()
    store_srv.stop()


# ---------------------------------------------------------------------------
# ShardRouter unit tests
# ---------------------------------------------------------------------------


class TestShardRouter:
    HOSTS = ("10.0.0.1:9000", "10.0.0.2:9000", "10.0.0.3:9000")

    def test_validation(self, requests):
        plan = build_plan(requests)
        with pytest.raises(ValueError, match="at least one host"):
            ShardRouter(plan, [])
        with pytest.raises(ValueError, match="duplicate host"):
            ShardRouter(plan, ["a:1", "a:1"])

    def test_deterministic_and_order_independent(self, requests):
        plan = build_plan(requests)
        a = ShardRouter(plan, self.HOSTS)
        b = ShardRouter(plan, tuple(reversed(self.HOSTS)))
        assert a.assignment == b.assignment

    def test_workload_colocation(self, requests):
        plan = build_plan(requests)
        router = ShardRouter(plan, self.HOSTS)
        by_workload = {}
        for node in plan.nodes:
            workload = plan.workload_of(node.index)
            by_workload.setdefault(workload, set()).add(router.host_of(node.index))
        for workload, hosts in by_workload.items():
            assert len(hosts) == 1, f"workload {workload} split across {hosts}"

    def test_groupings_and_baselines_pinned(self, machine):
        reqs = [
            MapRequest(
                task_graph=_task_graph(7),
                machine=machine,
                algorithms=("DEF", "TMAP"),
                seed=0,
            )
        ]
        plan = build_plan(reqs)
        assert plan.baseline_producers, "DEF should seed a def_baseline producer"
        router = ShardRouter(plan, self.HOSTS)
        for node in plan.nodes:
            if node.kind == "grouping":
                assert router.pinned(node.index)
        for index in plan.baseline_producers.values():
            assert router.pinned(index)

    def test_steal_respects_threshold_and_pinning(self, requests):
        plan = build_plan(requests)
        router = ShardRouter(plan, ("a:1", "b:1"), steal_threshold=2)
        algo = [n.index for n in plan.nodes if n.kind == "algo"]
        grouping = [n.index for n in plan.nodes if n.kind == "grouping"]
        # backlog at threshold: nothing to steal
        assert router.steal("b:1", {"a:1": algo[:2], "b:1": []}) is None
        # deep backlog: the newest unpinned node moves to the idle host
        stolen = router.steal("b:1", {"a:1": list(algo), "b:1": []})
        assert stolen == algo[-1]
        assert router.host_of(stolen) == "b:1"
        assert router.steals == 1
        # an all-pinned backlog yields nothing, however deep
        assert router.steal("b:1", {"a:1": list(grouping), "b:1": []}) is None

    def test_reroute_moves_workload_to_survivor(self, requests):
        plan = build_plan(requests)
        router = ShardRouter(plan, ("a:1", "b:1"))
        victim = router.host_of(plan.nodes[0].index)
        survivor = "b:1" if victim == "a:1" else "a:1"
        moved = router.reroute(plan.nodes[0].index, [survivor])
        assert moved == survivor
        assert router.host_of(plan.nodes[0].index) == survivor
        assert router.reroutes == 1
        with pytest.raises(ValueError, match="no live hosts"):
            router.reroute(plan.nodes[0].index, [])

    def test_stats_shape(self, requests):
        plan = build_plan(requests)
        router = ShardRouter(plan, self.HOSTS)
        stats = router.stats()
        assert stats["hosts"] == 3
        assert stats["nodes"] == len(plan.nodes)
        assert sum(stats["shard_sizes"].values()) == len(plan.nodes)
        assert stats["steals"] == 0 and stats["reroutes"] == 0


# ---------------------------------------------------------------------------
# Two-host integration
# ---------------------------------------------------------------------------


class TestShardedExecution:
    def test_byte_identical_to_serial(self, cluster, requests, serial_responses):
        store_srv, hosts, addresses = cluster
        remote = "%s:%d" % store_srv.address
        sharded = MappingService().map_batch(
            requests, config=EngineConfig(hosts=addresses, store_remote=remote)
        )
        assert all(r.error is None for r in sharded)
        assert _fingerprints(sharded) == _fingerprints(serial_responses)
        # both hosts did real work, and nothing ran twice
        plan = build_plan(requests)
        nodes_run = sum(h.stats()["nodes_run"] for h in hosts)
        assert nodes_run == len(plan.nodes)

    def test_process_backend_host(self, tmp_path, requests, serial_responses):
        """A host driving its own process pool submits each node with the
        request it decoded; results match serial and the host stops
        cleanly."""
        store_srv = ArtifactStoreServer(str(tmp_path / "store")).start()
        remote = "%s:%d" % store_srv.address
        host = HostServer(
            store_remote=remote,
            store_dir=str(tmp_path / "host"),
            capacity=2,
            backend="process",
        ).start()
        try:
            sharded = MappingService().map_batch(
                requests, config=EngineConfig(hosts=["%s:%d" % host.address], store_remote=remote)
            )
            assert _fingerprints(sharded) == _fingerprints(serial_responses)
            assert host.stats()["nodes_run"] == len(build_plan(requests).nodes)
        finally:
            host.stop()
            store_srv.stop()
        assert host.pool.closed

    def test_groupings_computed_exactly_once(self, cluster, requests):
        store_srv, hosts, addresses = cluster
        remote = "%s:%d" % store_srv.address
        responses = MappingService().map_batch(
            requests, config=EngineConfig(hosts=addresses, store_remote=remote)
        )
        assert all(r.error is None for r in responses)
        plan = build_plan(requests)
        grouping_nodes = [n for n in plan.nodes if n.kind == "grouping"]
        per_host = [h.stats()["groupings_computed"] for h in hosts]
        assert sum(per_host) == len(grouping_nodes)
        # each workload's grouping ran on exactly the host the router
        # pinned it to — consumers found it without recomputing
        router = ShardRouter(plan, addresses)
        pinned_hosts = {router.host_of(n.index) for n in grouping_nodes}
        live_hosts = {
            a for a, h in zip(addresses, hosts) if h.stats()["groupings_computed"]
        }
        assert live_hosts <= pinned_hosts

    def test_def_baseline_stays_host_local(self, cluster, machine):
        """DEF seeds the baseline TMAP consumes; both stay on one host."""
        store_srv, hosts, addresses = cluster
        remote = "%s:%d" % store_srv.address
        reqs = [
            MapRequest(
                task_graph=_task_graph(seed),
                machine=machine,
                algorithms=("DEF", "TMAP"),
                seed=0,
                tag=f"def-{seed}",
            )
            for seed in range(2)
        ]
        plan = build_plan(reqs)
        assert plan.baseline_producers
        router = ShardRouter(plan, addresses)
        for (workload_key, producer) in plan.baseline_producers.items():
            producer_host = router.host_of(producer)
            consumers = [
                n.index
                for n in plan.nodes
                if plan.workload_of(n.index) == plan.workload_of(producer)
            ]
            assert all(router.host_of(i) == producer_host for i in consumers)
        sharded = MappingService().map_batch(
            reqs, config=EngineConfig(hosts=addresses, store_remote=remote)
        )
        assert all(r.error is None for r in sharded)
        assert _fingerprints(sharded) == _fingerprints(
            MappingService().map_batch(reqs)
        )
        # the baseline producers ran exactly once: every plan node ran
        # on exactly one host, none re-ran
        assert sum(h.stats()["nodes_run"] for h in hosts) == len(plan.nodes)

    def test_work_stealing_rebalances_single_workload(self, cluster, machine):
        """One workload pins everything to one host; the other steals."""
        store_srv, hosts, addresses = cluster
        remote = "%s:%d" % store_srv.address
        tg = _task_graph(11)
        reqs = [
            MapRequest(
                task_graph=tg, machine=machine, algorithms=("UG",), seed=s, tag=s
            )
            for s in range(6)
        ]
        plan = build_plan(reqs)
        service = MappingService()
        stats = {}
        outcomes = run_sharded(
            plan,
            service,
            EngineConfig(hosts=addresses, store_remote=remote, steal_threshold=1),
            stats_out=stats,
        )
        responses = _collect(plan, outcomes)
        assert all(r.error is None for r in responses)
        assert stats["router"]["steals"] >= 1
        assert _fingerprints(responses) == _fingerprints(
            MappingService().map_batch(reqs)
        )

    def test_host_kill_yields_partial_results(
        self, cluster, requests, serial_responses
    ):
        store_srv, hosts, addresses = cluster
        remote = "%s:%d" % store_srv.address
        plan = build_plan(requests)
        router = ShardRouter(plan, addresses)
        # poison the first request; its nodes are pinned on one host
        poison_tag = requests[0].tag
        victim_address = router.host_of(0)
        victim = hosts[addresses.index(victim_address)]
        victim.arm_kill(poison_tag)
        responses = MappingService().map_batch(
            requests,
            config=EngineConfig(
                hosts=addresses,
                store_remote=remote,
                on_error="partial",
                steal_threshold=100,  # keep placement exactly as predicted
            ),
        )
        failed = [r for r in responses if r.error is not None]
        assert [r.tag for r in failed] == [poison_tag]
        assert failed[0].error.kind in ("host_lost", "upstream")
        # every other request survived the host loss byte-identically
        for got, want in zip(responses[1:], serial_responses[1:]):
            assert got.error is None
            assert got.fingerprint() == want.fingerprint()

    def test_retry_reroutes_onto_survivor(self, cluster, requests, serial_responses):
        store_srv, hosts, addresses = cluster
        remote = "%s:%d" % store_srv.address
        plan = build_plan(requests)
        router = ShardRouter(plan, addresses)
        poison_tag = requests[0].tag
        victim_address = router.host_of(0)
        victim = hosts[addresses.index(victim_address)]
        victim.arm_kill(poison_tag)
        service = MappingService()
        stats = {}
        outcomes = run_sharded(
            plan,
            service,
            EngineConfig(
                hosts=addresses,
                store_remote=remote,
                retry=RetryPolicy(max_attempts=3, backoff=0.01),
                steal_threshold=100,
            ),
            stats_out=stats,
        )
        responses = _collect(plan, outcomes)
        assert all(r.error is None for r in responses)
        assert stats["router"]["reroutes"] >= 1
        assert stats["hosts_lost"] == [victim_address]
        assert _fingerprints(responses) == _fingerprints(serial_responses)

    def test_last_host_loss_retries_every_in_flight_node(
        self, tmp_path, requests, serial_responses
    ):
        """Losing the only host with several nodes in flight: each lost
        node keeps its retry budget and finishes in-process."""
        store_srv = ArtifactStoreServer(str(tmp_path / "store")).start()
        remote = "%s:%d" % store_srv.address
        host = HostServer(
            store_remote=remote,
            store_dir=str(tmp_path / "host"),
            capacity=4,
        )
        host.start()
        try:
            host.arm_kill("req-1")
            responses = MappingService().map_batch(
                requests,
                config=EngineConfig(
                    hosts=["%s:%d" % host.address],
                    store_remote=remote,
                    retry=RetryPolicy(max_attempts=3, backoff=0.01),
                    on_error="partial",
                ),
            )
        finally:
            host.stop()
            store_srv.stop()
        assert [r.error for r in responses] == [None] * len(requests)
        assert _fingerprints(responses) == _fingerprints(serial_responses)

    def test_all_hosts_dead_drains_locally(self, cluster, requests, serial_responses):
        """Zero survivors: the coordinator finishes the batch in-process."""
        store_srv, hosts, addresses = cluster
        for h in hosts:
            h.stop()
        responses = MappingService().map_batch(
            requests,
            config=EngineConfig(
                hosts=addresses,
                store_remote="%s:%d" % store_srv.address,
                retry=RetryPolicy(max_attempts=2, backoff=0.01),
            ),
        )
        assert all(r.error is None for r in responses)
        assert _fingerprints(responses) == _fingerprints(serial_responses)
