"""Property tests for the shared incremental congestion subsystem.

The contract of :class:`repro.kernels.congestion.CongestionModel`
(see its module docstring):

* the route table and the per-link load arrays are **never stale** —
  after any sequence of committed swaps they equal a from-scratch
  rebuild on the current Γ (both metrics, batched and scalar candidate
  kernels);
* the ``commTasks`` CSR refresh derives from the delta-updated route
  table without re-enumeration, and always equals the reference
  ``routes_bulk`` rebuild (content *and* task pop order);
* the batched Δ-candidate kernel returns exactly the scalar
  ``swap_improves`` verdicts, so both refiner paths commit identical
  swap sequences, and both equal an independent oracle of the accept
  rule that rebuilds the loads from scratch;
* the pair-route memo holds exactly the routes ``routes_bulk`` gives
  each pair alone (detours on degraded tori included), and once a pair
  is memoized no probe or commit routes it again;
* the refiner never probes a task twice between two commits.
"""

import numpy as np
import pytest

from repro.graph.task_graph import TaskGraph
from repro.kernels.congestion import CongestionModel
from repro.mapping.base import Mapping
from repro.mapping.refine_mc import MCRefiner
from repro.metrics.mapping import evaluate_mapping
from repro.topology.allocation import AllocationSpec, SparseAllocator
from repro.topology.routing import RouteTable, routes_bulk
from repro.topology.torus import Torus3D


def make_instance(seed, n=None, integer_volumes=True):
    """Random (task_graph, machine, gamma) on a random small torus."""
    rng = np.random.default_rng(seed)
    torus = Torus3D(tuple(int(x) for x in rng.integers(2, 5, 3)))
    if n is None:
        n = int(rng.integers(8, min(30, torus.num_nodes) + 1))
    machine = SparseAllocator(torus).allocate(
        AllocationSpec(num_nodes=n, procs_per_node=1, fragmentation=0.4, seed=seed)
    )
    m = 6 * n
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    keep = src != dst
    if integer_volumes:
        vol = rng.integers(1, 9, keep.sum()).astype(np.float64)
    else:
        vol = rng.uniform(0.5, 5.0, keep.sum())
    tg = TaskGraph.from_edges(n, src[keep], dst[keep], vol)
    gamma = rng.permutation(machine.alloc_nodes)[:n].copy()
    return tg, machine, gamma


def model_for(tg, machine, gamma, metric, **kw):
    src_t, dst_t, vol = tg.graph.edge_list()
    return CongestionModel(
        machine.torus, src_t, dst_t, vol, gamma.copy(), metric=metric, **kw
    )


def make_degraded_instance(seed, dead=4):
    """``make_instance`` with *dead* failed links on the initial routes."""
    tg, machine, gamma = make_instance(seed)
    src, dst, _ = tg.graph.edge_list()
    used = np.unique(
        RouteTable.build(
            machine.torus, gamma[src.astype(np.int64)], gamma[dst.astype(np.int64)]
        ).links
    )
    rng = np.random.default_rng(seed + 10_000)
    dead_links = rng.choice(used, size=min(dead, used.size), replace=False)
    return tg, machine.degrade(dead_links=dead_links.tolist()), gamma


def memoize_all_pairs(model):
    """Put every ordered pair of Γ's distinct nodes in the model's memo."""
    a, b = np.meshgrid(model.gamma, model.gamma, indexing="ij")
    off = a != b
    src, dst = a[off].astype(np.int64), b[off].astype(np.int64)
    model._pair_routes(src, dst)
    return src, dst


def random_swaps(model, n_tasks, rng, count):
    for _ in range(count):
        t1, t2 = (int(x) for x in rng.choice(n_tasks, size=2, replace=False))
        model.commit_swap(t1, t2)


class TestDeltaUpdates:
    @pytest.mark.parametrize("metric", ["volume", "message"])
    @pytest.mark.parametrize("integer_volumes", [True, False])
    def test_loads_and_routes_match_rebuild(self, metric, integer_volumes):
        """After random swap sequences, state == from-scratch rebuild."""
        for seed in range(6):
            tg, machine, gamma = make_instance(
                seed, integer_volumes=integer_volumes
            )
            model = model_for(tg, machine, gamma, metric)
            rng = np.random.default_rng(seed + 500)
            # 24 commits = a multiple of the refresh interval: the last
            # refresh re-accumulated the loads from the (exact) route
            # table, so even float volumes compare bit-for-bit here.
            random_swaps(model, tg.num_tasks, rng, 24)
            fresh = model_for(tg, machine, model.gamma, metric)
            assert np.array_equal(model.msgs, fresh.msgs)
            assert np.array_equal(model.vols, fresh.vols)
            # One more commit sits between refreshes: exact for integer
            # volumes, bounded round-off otherwise.
            random_swaps(model, tg.num_tasks, rng, 1)
            fresh = model_for(tg, machine, model.gamma, metric)
            if integer_volumes:
                assert np.array_equal(model.msgs, fresh.msgs)
                assert np.array_equal(model.vols, fresh.vols)
            else:
                assert np.allclose(model.msgs, fresh.msgs, atol=1e-9)
                assert np.allclose(model.vols, fresh.vols, atol=1e-9)
            # The route table is never stale: spliced == re-enumerated.
            assert np.array_equal(model.routes.ptr, fresh.routes.ptr)
            assert np.array_equal(model.routes.links, fresh.routes.links)
            # host stays the inverse of gamma
            assert np.array_equal(
                model.host[model.gamma], np.arange(tg.num_tasks)
            )

    def test_route_table_replace_matches_build(self):
        """RouteTable.replace_routes == a fresh build on the new pairs."""
        rng = np.random.default_rng(3)
        torus = Torus3D((4, 3, 3))
        m = 60
        src = rng.integers(0, torus.num_nodes, m)
        dst = rng.integers(0, torus.num_nodes, m)
        table = RouteTable.build(torus, src, dst)
        for round_ in range(10):
            pairs = np.unique(rng.integers(0, m, rng.integers(1, 8)))
            src[pairs] = rng.integers(0, torus.num_nodes, pairs.size)
            dst[pairs] = rng.integers(0, torus.num_nodes, pairs.size)
            links, msg = routes_bulk(torus, src[pairs], dst[pairs])
            order = np.argsort(msg, kind="stable")
            counts = np.bincount(msg, minlength=pairs.size)
            table.replace_routes(pairs, links[order], counts)
            fresh = RouteTable.build(torus, src, dst)
            assert np.array_equal(table.ptr, fresh.ptr)
            assert np.array_equal(table.links, fresh.links)


class TestCommIndex:
    @staticmethod
    def reference_comm_tasks(model):
        """The legacy rebuild: dict link -> ordered distinct task list."""
        src_n = model.gamma[model.src_t]
        dst_n = model.gamma[model.dst_t]
        keep = src_n != dst_n
        links, msg = routes_bulk(model.torus, src_n[keep], dst_n[keep])
        comm = {}
        edge_ids = np.flatnonzero(keep)[msg]
        for link, e in zip(links.tolist(), edge_ids.tolist()):
            bucket = comm.setdefault(link, [])
            bucket.append(int(model.src_t[e]))
            bucket.append(int(model.dst_t[e]))
        out = {}
        for link, tasks in comm.items():
            seen, ordered = set(), []
            for t in tasks:
                if t not in seen:
                    seen.add(t)
                    ordered.append(t)
            out[link] = ordered
        return out

    @pytest.mark.parametrize("metric", ["volume", "message"])
    def test_csr_maintenance_never_goes_stale(self, metric):
        """With per-commit refresh the CSR always equals the reference.

        The refresh derives from the delta-updated route table (no route
        enumeration); equality with the from-scratch ``routes_bulk``
        rebuild after *every* commit proves the maintenance can never
        drift from the ground truth.
        """
        for seed in range(5):
            tg, machine, gamma = make_instance(seed + 20)
            model = model_for(tg, machine, gamma, metric, refresh_interval=1)
            rng = np.random.default_rng(seed + 900)
            for _ in range(15):
                t1, t2 = (
                    int(x) for x in rng.choice(tg.num_tasks, 2, replace=False)
                )
                model.commit_swap(t1, t2)
                ref = self.reference_comm_tasks(model)
                for link in np.flatnonzero(model.msgs > 0).tolist():
                    assert model.tasks_through(link) == ref.get(link, []), (
                        f"stale commTasks for link {link} (seed {seed})"
                    )
                # links without load expose empty task lists
                empty = np.flatnonzero(model.msgs == 0)[:5]
                for link in empty.tolist():
                    assert model.tasks_through(int(link)) == []

    def test_initial_index_matches_reference(self):
        tg, machine, gamma = make_instance(42)
        model = model_for(tg, machine, gamma, "volume")
        ref = self.reference_comm_tasks(model)
        for link in np.flatnonzero(model.msgs > 0).tolist():
            assert model.tasks_through(link) == ref[link]

    def test_default_cadence_matches_legacy_refresh_points(self):
        """On the paper cadence the index lags — and snaps back exactly."""
        tg, machine, gamma = make_instance(7)
        model = model_for(tg, machine, gamma, "volume", refresh_interval=8)
        rng = np.random.default_rng(77)
        for commit in range(1, 17):
            t1, t2 = (int(x) for x in rng.choice(tg.num_tasks, 2, replace=False))
            model.commit_swap(t1, t2)
            if commit % 8 == 0:
                ref = self.reference_comm_tasks(model)
                for link in np.flatnonzero(model.msgs > 0).tolist():
                    assert model.tasks_through(link) == ref[link]


class TestBatchedKernel:
    @pytest.mark.parametrize("metric", ["volume", "message"])
    def test_verdicts_match_scalar(self, metric):
        """evaluate_swaps(t, cands) == [swap_improves(t, c) for c]."""
        for seed in range(6):
            tg, machine, gamma = make_instance(seed + 60)
            model = model_for(tg, machine, gamma, metric)
            rng = np.random.default_rng(seed + 1300)
            for _ in range(12):
                t1 = int(rng.integers(0, tg.num_tasks))
                others = np.setdiff1d(np.arange(tg.num_tasks), [t1])
                cands = rng.choice(
                    others, size=min(8, others.size), replace=False
                ).astype(np.int64)
                batched = model.evaluate_swaps(t1, cands)
                scalar = np.array(
                    [model.swap_improves(t1, int(c)) for c in cands]
                )
                assert np.array_equal(batched, scalar)
                # mutate between probes to vary the state
                a, b = (int(x) for x in rng.choice(tg.num_tasks, 2, replace=False))
                model.commit_swap(a, b)

    def test_empty_candidate_set(self):
        tg, machine, gamma = make_instance(1)
        model = model_for(tg, machine, gamma, "volume")
        assert model.evaluate_swaps(0, np.empty(0, dtype=np.int64)).size == 0

    @pytest.mark.parametrize("metric", ["volume", "message"])
    def test_refiner_batched_equals_scalar_path(self, metric):
        """Both MCRefiner candidate paths commit identical swap sequences."""
        for seed in range(5):
            tg, machine, gamma = make_instance(seed + 200)
            work = tg if metric == "volume" else tg.unit_cost()
            start = Mapping(gamma.copy(), machine)
            g_batched = MCRefiner(metric=metric).refine(work, start).gamma
            g_scalar = (
                MCRefiner(metric=metric, batch_candidates=False)
                .refine(work, start)
                .gamma
            )
            assert np.array_equal(g_batched, g_scalar)


class TestNoReprobe:
    @pytest.mark.parametrize("metric", ["volume", "message"])
    def test_no_task_probed_twice_between_commits(self, monkeypatch, metric):
        """A task that found no partner is not probed again before a commit."""
        events = []
        real_eval = CongestionModel.evaluate_swaps
        real_commit = CongestionModel.commit_swap

        def evaluate(self, t1, cands):
            events.append(("probe", int(t1)))
            return real_eval(self, t1, cands)

        def commit(self, t1, t2):
            events.append(("commit", None))
            return real_commit(self, t1, t2)

        monkeypatch.setattr(CongestionModel, "evaluate_swaps", evaluate)
        monkeypatch.setattr(CongestionModel, "commit_swap", commit)
        commits = 0
        for seed in range(5):
            tg, machine, gamma = make_instance(seed + 200)
            work = tg if metric == "volume" else tg.unit_cost()
            events.clear()
            MCRefiner(metric=metric).refine(work, Mapping(gamma.copy(), machine))
            probed = set()
            for kind, task in events:
                if kind == "commit":
                    commits += 1
                    probed = set()
                else:
                    assert task not in probed
                    probed.add(task)
        assert commits > 0


class TestCommitReusesEvaluatedDeltas:
    """commit_swap reads the routes ``evaluate_swaps`` put in the memo."""

    @pytest.mark.parametrize("metric", ["volume", "message"])
    def test_commit_after_evaluate_matches_rebuild(self, metric):
        """Commits after batched probes leave state == a from-scratch rebuild."""
        for seed in range(5):
            tg, machine, gamma = make_instance(seed + 70)
            model = model_for(tg, machine, gamma, metric)
            rng = np.random.default_rng(seed + 5000)
            for _ in range(12):
                t1 = int(rng.integers(0, tg.num_tasks))
                others = np.setdiff1d(np.arange(tg.num_tasks), [t1])
                cands = rng.choice(
                    others, size=min(8, others.size), replace=False
                ).astype(np.int64)
                model.evaluate_swaps(t1, cands)
                model.commit_swap(t1, int(cands[rng.integers(0, cands.size)]))
            fresh = model_for(tg, machine, model.gamma, metric)
            assert np.array_equal(model.msgs, fresh.msgs)
            assert np.array_equal(model.vols, fresh.vols)
            assert np.array_equal(model.routes.ptr, fresh.routes.ptr)
            assert np.array_equal(model.routes.links, fresh.routes.links)

    def test_commit_after_evaluate_enumerates_no_routes(self, monkeypatch):
        """With every pair memoized, probes and commits route nothing.

        Holds for batched probes, the scalar probe, the batch winner's
        commit and a foreign commit, on a healthy and a degraded torus.
        """
        import repro.kernels.congestion as congestion_mod

        calls = []
        real = congestion_mod.routes_bulk

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for tg, machine, gamma in (make_instance(90), make_degraded_instance(90)):
            model = model_for(tg, machine, gamma, "volume")
            memoize_all_pairs(model)
            monkeypatch.setattr(congestion_mod, "routes_bulk", counting)
            rng = np.random.default_rng(900)
            for _ in range(6):
                t1 = int(rng.integers(0, tg.num_tasks))
                others = np.setdiff1d(np.arange(tg.num_tasks), [t1])
                cands = rng.choice(others, size=6, replace=False).astype(np.int64)
                model.evaluate_swaps(t1, cands)
                model.swap_improves(t1, int(cands[0]))
                model.commit_swap(t1, int(cands[2]))
                a, b = (int(x) for x in rng.choice(tg.num_tasks, 2, replace=False))
                model.commit_swap(a, b)
            monkeypatch.setattr(congestion_mod, "routes_bulk", real)
            assert calls == []
            fresh = model_for(tg, machine, model.gamma, "volume")
            assert np.array_equal(model.routes.links, fresh.routes.links)


class TestPairRouteMemo:
    def test_memo_routes_equal_single_pair_routes_on_faulted_torus(self):
        """Every memoized route == ``routes_bulk`` of that pair alone."""
        detours = 0
        for seed in range(4):
            tg, machine, gamma = make_degraded_instance(seed + 30)
            model = model_for(tg, machine, gamma, "volume")
            src, dst = memoize_all_pairs(model)
            links, counts = model._pair_routes(src, dst)
            starts = np.cumsum(counts) - counts
            healthy = Torus3D(machine.torus.dims)
            for i in range(src.size):
                a = np.asarray([src[i]], dtype=np.int64)
                b = np.asarray([dst[i]], dtype=np.int64)
                alone, _ = routes_bulk(machine.torus, a, b)
                got = links[starts[i] : starts[i] + counts[i]]
                assert np.array_equal(got, alone)
                detours += not np.array_equal(got, routes_bulk(healthy, a, b)[0])
        assert detours > 0  # the faults really reroute some memoized pairs

    def test_memo_fills_only_missing_pairs(self, monkeypatch):
        import repro.kernels.congestion as congestion_mod

        tg, machine, gamma = make_instance(5)
        model = model_for(tg, machine, gamma, "volume")
        routed = []
        real = congestion_mod.routes_bulk

        def recording(torus, src, dst):
            routed.append(np.asarray(src).size)
            return real(torus, src, dst)

        monkeypatch.setattr(congestion_mod, "routes_bulk", recording)
        u = model.gamma
        model._pair_routes(u[[0, 1, 0]], u[[1, 2, 1]])
        model._pair_routes(u[[1, 0, 2]], u[[2, 1, 3]])
        assert routed == [2, 1]  # duplicates routed once, hits never


class TestAcceptRuleOracle:
    """evaluate_swaps against the paper's definitions, computed from scratch."""

    @staticmethod
    def mc_ac(machine, tg, gamma, metric):
        """MC and AC of Γ: max and mean over used links of a fresh rebuild."""
        src, dst, vol = tg.graph.edge_list()
        src, dst = src.astype(np.int64), dst.astype(np.int64)
        table = RouteTable.build(machine.torus, gamma[src], gamma[dst])
        msgs, vols = table.accumulate(vol)
        load = vols
        if metric == "volume":
            bw = machine.torus.link_bandwidths()
            load = np.divide(vols, bw, out=np.zeros_like(vols), where=bw > 0)
        used = msgs > 0
        if not used.any():
            return 0.0, 0.0
        return float(load.max()), float(load[used].mean())

    def oracle(self, machine, tg, gamma, metric, t1, t2):
        """Algorithm 3's rule: MC improves, or AC improves at equal MC."""
        eps = 1e-9
        mc, ac = self.mc_ac(machine, tg, gamma, metric)
        swapped = gamma.copy()
        swapped[[t1, t2]] = gamma[[t2, t1]]
        new_mc, new_ac = self.mc_ac(machine, tg, swapped, metric)
        return new_mc < mc - eps or (abs(new_mc - mc) <= eps and new_ac < ac - eps)

    @pytest.mark.parametrize("metric", ["volume", "message"])
    @pytest.mark.parametrize("degraded", [False, True])
    def test_evaluate_swaps_matches_oracle(self, metric, degraded):
        accepted = 0
        for seed in range(5):
            maker = make_degraded_instance if degraded else make_instance
            tg, machine, gamma = maker(seed + 110)
            model = model_for(tg, machine, gamma, metric)
            rng = np.random.default_rng(seed + 1100)
            for _ in range(8):
                t1 = int(rng.integers(0, tg.num_tasks))
                others = np.setdiff1d(np.arange(tg.num_tasks), [t1])
                cands = rng.choice(
                    others, size=min(8, others.size), replace=False
                ).astype(np.int64)
                got = model.evaluate_swaps(t1, cands).tolist()
                want = [
                    self.oracle(machine, tg, model.gamma, metric, t1, int(c))
                    for c in cands
                ]
                assert got == want
                accepted += sum(want)
                a, b = (int(x) for x in rng.choice(tg.num_tasks, 2, replace=False))
                model.commit_swap(a, b)
        assert accepted > 0  # the rule's accepting branch is exercised


class TestSharedRouteTable:
    def test_model_copies_external_table(self):
        """A cached table handed to the model must stay pristine."""
        tg, machine, gamma = make_instance(11)
        src_t, dst_t, _ = tg.graph.edge_list()
        table = RouteTable.build(
            machine.torus, gamma[src_t.astype(np.int64)], gamma[dst_t.astype(np.int64)]
        )
        ptr0, links0 = table.ptr.copy(), table.links.copy()
        model = model_for(tg, machine, gamma, "volume")
        model2 = model_for(tg, machine, gamma, "volume", route_table=table)
        # seeding from the table reproduces the from-scratch state
        assert np.array_equal(model.msgs, model2.msgs)
        assert np.array_equal(model.vols, model2.vols)
        rng = np.random.default_rng(13)
        random_swaps(model2, tg.num_tasks, rng, 10)
        assert np.array_equal(table.ptr, ptr0)
        assert np.array_equal(table.links, links0)

    def test_refiner_shares_table_through_cache(self):
        from repro.api.cache import ArtifactCache

        tg, machine, gamma = make_instance(17)
        start = Mapping(gamma.copy(), machine)
        cache = ArtifactCache()
        plain = MCRefiner().refine(tg, start).gamma
        first = MCRefiner().refine(tg, start, cache=cache).gamma
        stats = cache.stats("route_table")
        assert stats.misses == 1 and stats.hits == 0
        second = MCRefiner(metric="message").refine(tg, start, cache=cache).gamma
        assert cache.stats("route_table").hits == 1
        assert np.array_equal(plain, first)
        # message-metric refinement on the same endpoints reuses the
        # table; its own result must equal the uncached run too.
        assert np.array_equal(
            second, MCRefiner(metric="message").refine(tg, start).gamma
        )

    def test_facade_keeps_legacy_signature(self):
        """The model as ``MCRefiner.refine`` builds it from a task graph."""
        tg, machine, gamma = make_instance(23)
        state = model_for(tg, machine, gamma, "volume")
        mc, ac = state.current_mc_ac()
        ref = evaluate_mapping(tg, machine, gamma)
        assert mc == pytest.approx(ref.mc) and ac == pytest.approx(ref.ac)
