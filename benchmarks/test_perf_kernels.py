"""Microbenchmarks for the vectorized kernel layer.

Tracks the primitives the mapping hot paths are built from:

* the allocation's ring-hop matrix (``Machine.ring_hops``): its build,
  and a row gather over allocated node pairs vs the coordinate formula
  ``Torus3D.hop_distance`` on the same pairs;
* one ``Machine.bfs_order`` call, the BFS order of the allocated nodes
  that GETBESTNODE and the swap-partner searches read;
* Algorithm 2's inner step on a ``SwapCostTable``, Δ=8 gains plus one
  committed swap, vs Δ scalar ``_swap_gain`` invocations;
* one ``CongestionModel.evaluate_swaps`` call (Δ=8 candidates) vs Δ
  scalar ``swap_improves`` probes — Algorithm 3's inner loop — and a
  model's construction plus its first, cold probe (the pair-route
  memo's fill cost);
* ``RouteTable.accumulate`` / ``replace_routes`` — the congestion
  model's per-commit route maintenance;
* the partitioner in the regime the mapping pipeline drives it: a
  grouping-shaped ``partition_graph`` (64 unit-weight tasks → 16 four-proc
  nodes) and a batch of 4-vertex ``multilevel_bisect`` calls, the median
  size recursive bisection reaches during a sweep.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_perf_kernels.py``;
pytest-benchmark prints the comparison table.
"""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.task_graph import TaskGraph
from repro.kernels import SwapCostTable
from repro.kernels.congestion import CongestionModel
from repro.mapping.refine_wh import _swap_gain
from repro.partition.driver import PartitionConfig, multilevel_bisect, partition_graph
from repro.topology.machine import Machine
from repro.topology.routing import RouteTable, routes_bulk
from repro.topology.torus import Torus3D

N_PAIRS = 10_000


@pytest.fixture(scope="module")
def torus():
    return Torus3D((12, 10, 8))  # 960 nodes, Hopper-job scale


@pytest.fixture(scope="module")
def alloc_nodes(torus):
    """256 allocated nodes of the torus (a 4096-proc job at ppn 16)."""
    return np.random.default_rng(5).choice(torus.num_nodes, 256, replace=False)


@pytest.fixture(scope="module")
def pairs(alloc_nodes):
    rng = np.random.default_rng(7)
    a = rng.choice(alloc_nodes, size=N_PAIRS)
    b = rng.choice(alloc_nodes, size=N_PAIRS)
    return a, b


def test_hop_formula_baseline(benchmark, torus, pairs):
    a, b = pairs
    benchmark(lambda: torus.hop_distance(a, b))


def test_ring_hops_build(benchmark, torus, alloc_nodes):
    hops = benchmark(lambda: Machine(torus, alloc_nodes, 4).ring_hops())
    nodes = np.sort(alloc_nodes)
    np.testing.assert_array_equal(
        hops, torus.hop_distance(nodes[:, None], nodes[None, :])
    )


def test_ring_hops_gather(benchmark, torus, alloc_nodes, pairs):
    a, b = pairs
    machine = Machine(torus, alloc_nodes, 4)
    hops = machine.ring_hops()  # the one-off build is not what this times
    _, row = machine.sorted_alloc()
    got = benchmark(lambda: hops[row[a], row[b]])
    np.testing.assert_array_equal(got, torus.hop_distance(a, b))


def test_bfs_order(benchmark, torus, alloc_nodes):
    machine = Machine(torus, alloc_nodes, 4)
    machine.alloc_hops()  # the one-off build is not what this times
    seeds = alloc_nodes[:8]
    order, _ = benchmark(lambda: machine.bfs_order(seeds))
    assert order.size == 256


@pytest.fixture(scope="module")
def swap_workload(torus):
    rng = np.random.default_rng(11)
    n = 256
    src = rng.integers(0, n, size=2500)
    dst = rng.integers(0, n, size=2500)
    keep = src != dst
    vol = rng.integers(1, 20, size=2500).astype(np.float64)
    tg = TaskGraph.from_edges(n, src[keep], dst[keep], vol[keep])
    gamma = rng.choice(torus.num_nodes, size=n, replace=False).astype(np.int64)
    partners = np.asarray([3, 17, 42, 88, 101, 150, 199, 230], dtype=np.int64)
    return tg.symmetrized(), gamma, partners


def test_swap_gain_scalar_baseline(benchmark, torus, swap_workload):
    sym, gamma, partners = swap_workload

    def scalar():
        return [_swap_gain(0, int(t), sym, torus, gamma) for t in partners]

    benchmark(scalar)


def test_swap_gain_table(benchmark, torus, swap_workload):
    sym, gamma, partners = swap_workload
    machine = Machine(torus, gamma, 4)  # the 256 tasks' nodes are the allocation
    table = SwapCostTable(sym, machine.ring_hops(), machine.alloc_rows(gamma))
    want = [_swap_gain(0, int(t), sym, torus, gamma) for t in partners]
    np.testing.assert_array_equal(table.gains(0, partners), want)

    def gains_and_commit():
        gains = table.gains(0, partners)
        table.commit(0, int(partners[0]))  # a second round swaps back
        return gains

    benchmark(gains_and_commit)


@pytest.fixture(scope="module")
def congestion_inputs(torus):
    rng = np.random.default_rng(13)
    n = 256
    src = rng.integers(0, n, size=2500)
    dst = rng.integers(0, n, size=2500)
    keep = src != dst
    vol = rng.integers(1, 20, size=2500).astype(np.float64)
    tg = TaskGraph.from_edges(n, src[keep], dst[keep], vol[keep])
    gamma = rng.choice(torus.num_nodes, size=n, replace=False).astype(np.int64)
    src_t, dst_t, vols = tg.graph.edge_list()
    partners = np.asarray([3, 17, 42, 88, 101, 150, 199, 230], dtype=np.int64)
    return (src_t, dst_t, vols, gamma), partners


@pytest.fixture(scope="module")
def congestion_workload(torus, congestion_inputs):
    (src_t, dst_t, vols, gamma), partners = congestion_inputs
    return CongestionModel(torus, src_t, dst_t, vols, gamma), partners


def test_congestion_build_and_first_probe(benchmark, torus, congestion_inputs):
    """Model construction plus one cold probe: the pair-route memo's fill cost."""
    (src_t, dst_t, vols, gamma), partners = congestion_inputs

    def cold():
        model = CongestionModel(torus, src_t, dst_t, vols, gamma.copy())
        return model.evaluate_swaps(0, partners)

    got = benchmark(cold)
    warm = CongestionModel(torus, src_t, dst_t, vols, gamma.copy())
    assert got.tolist() == [warm.swap_improves(0, int(t)) for t in partners]


def test_congestion_probe_scalar_baseline(benchmark, congestion_workload):
    model, partners = congestion_workload

    def scalar():
        return [model.swap_improves(0, int(t)) for t in partners]

    benchmark(scalar)


def test_congestion_probe_batched(benchmark, congestion_workload):
    model, partners = congestion_workload

    def batched():
        return model.evaluate_swaps(0, partners)

    got = benchmark(batched)
    want = [model.swap_improves(0, int(t)) for t in partners]
    assert got.tolist() == want


@pytest.fixture(scope="module")
def route_workload(torus):
    rng = np.random.default_rng(17)
    m = 2500
    src = rng.integers(0, torus.num_nodes, size=m)
    dst = rng.integers(0, torus.num_nodes, size=m)
    table = RouteTable.build(torus, src, dst)
    volumes = rng.integers(1, 20, size=m).astype(np.float64)
    pairs = np.unique(rng.integers(0, m, size=64))
    links, msg = routes_bulk(torus, dst[pairs], src[pairs])  # reversed routes
    order = np.argsort(msg, kind="stable")
    counts = np.bincount(msg, minlength=pairs.size)
    return table, volumes, pairs, links[order], counts


def test_route_accumulate(benchmark, route_workload):
    table, volumes, _, _, _ = route_workload
    benchmark(lambda: table.accumulate(volumes))


def test_route_splice(benchmark, route_workload):
    table, _, pairs, new_links, new_counts = route_workload

    def splice():
        table.replace_routes(pairs, new_links, new_counts)

    benchmark(splice)


@pytest.fixture(scope="module")
def grouping_graph():
    """A 64-task communication graph with unit task weights (the input
    ``prepare_groups`` hands the partitioner for a 64-proc job)."""
    rng = np.random.default_rng(17)
    n = 64
    src = rng.integers(0, n, size=400)
    dst = rng.integers(0, n, size=400)
    keep = src != dst
    vol = rng.integers(1, 20, size=400).astype(np.float64)
    sym = TaskGraph.from_edges(n, src[keep], dst[keep], vol[keep]).symmetrized()
    return CSRGraph(sym.indptr, sym.indices, sym.weights, np.ones(n), sorted_indices=True)


def test_partition_grouping_64_to_16(benchmark, grouping_graph):
    targets = np.full(16, 4.0)
    config = PartitionConfig(fm_passes=3, initial_attempts=4)

    def group():
        return partition_graph(
            grouping_graph, 16, target_weights=targets, seed=3, config=config
        ).part

    part = benchmark(group)
    assert part.shape == (64,) and set(part.tolist()) == set(range(16))


@pytest.fixture(scope="module")
def tiny_bisections():
    """200 four-vertex graphs with tie-prone weights, as recursion leaves see."""
    rng = np.random.default_rng(19)
    out = []
    for _ in range(200):
        iu, ju = np.triu_indices(4, k=1)
        keep = rng.random(iu.size) < 0.7
        keep[0] = True
        w = rng.choice([1.0, 2.0, 3.0, 5.0], size=int(keep.sum()))
        s, d = iu[keep], ju[keep]
        g = CSRGraph.from_edges(4, np.r_[s, d], np.r_[d, s], np.r_[w, w])
        out.append(g)
    return out


def test_multilevel_bisect_tiny_batch(benchmark, tiny_bisections):
    def batch():
        return [
            multilevel_bisect(g, 2.0, seed=i, slack=0.5)
            for i, g in enumerate(tiny_bisections)
        ]

    sides = benchmark(batch)
    assert all(side.shape == (4,) and set(side.tolist()) <= {0, 1} for side in sides)
