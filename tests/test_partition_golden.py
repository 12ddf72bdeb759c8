"""Golden-equivalence tests for the multilevel partitioner.

Every mapper behind grouping, SMAP, TMAP and HIER, and every partitioner
personality, runs through ``repro.partition``: FM bisection refinement,
greedy graph growing, the multilevel V-cycle, the recursive k-way driver
and the objective-driven k-way refinement.  Rewrites of those inner
loops must keep every partition vector bit-identical.

The goldens in ``tests/data/golden_partition.json`` were generated from
the reference implementation that predates the heap and adjacency-list
rewrite.  ``python tests/test_partition_golden.py`` only *adds* the
vector of every case the file lacks; when an existing key's vector
would change it writes nothing, lists those keys and exits 1.  Generate
new keys with the code before the change they are meant to pin.  The
``tiny/``, ``group/``, ``hem/`` and ``sub/`` keys pin the regime the
mapping pipeline actually runs in — bisections of 2–16 vertices, a
64-task → 16-node grouping — plus the heavy-edge matching and
induced-subgraph steps on their own; they were generated from the code
before the list-view / row-gather rewrite.  The ``inthub320`` keys (an
integral-weight hub graph) were generated from the FM that re-summed
every gain, before it kept integral gains current by ±2w updates.

Unlike the mapping goldens, most graphs here carry *non-integral* edge
weights drawn from a small value set, so FM gains tie often and their
floating-point sums depend on summation order — a change in either the
heap's tie order or the order gains are summed shows up as a diff.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.generators import cage_like, rgg_like
from repro.hypergraph.model import Hypergraph
from repro.partition.coarsen import heavy_edge_matching
from repro.partition.driver import PartitionConfig, multilevel_bisect, partition_graph
from repro.partition import fm as fm_module
from repro.partition.fm import _exact_sum, _integral_weights, balance_fixup, fm_bisection_refine
from repro.partition.initial import best_bisection, greedy_grow_bisection
from repro.partition.kway_refine import OBJECTIVES, refine_kway
from repro.partition.toolbox import PARTITIONER_NAMES, get_partitioner
from repro.util.rng import seeded_rng

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_partition.json")

#: Non-integral edge weights: few distinct values (ties) whose sums are
#: not associative in binary floating point (0.1 + 0.2 != 0.3).
TIE_WEIGHTS = np.array([0.1, 0.2, 0.3, 0.7, 1.1])


def _sym_graph(n, src, dst, w, vw=None) -> CSRGraph:
    """Symmetric graph from one direction of each edge (no self loops)."""
    src, dst, w = np.asarray(src), np.asarray(dst), np.asarray(w, dtype=np.float64)
    keep = src != dst
    src, dst, w = src[keep], dst[keep], w[keep]
    return CSRGraph.from_edges(
        n, np.concatenate([src, dst]), np.concatenate([dst, src]), np.concatenate([w, w]), vw
    )


def _tie_graph(n: int, m: int, seed: int) -> CSRGraph:
    """Random graph, tie-prone non-integral weights, mixed vertex weights."""
    rng = np.random.default_rng(seed)
    src, dst = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
    vw = rng.choice([1.0, 1.5, 2.0], size=n)
    return _sym_graph(n, src, dst, rng.choice(TIE_WEIGHTS, size=m), vw)


def _continuous_graph(n: int, m: int, seed: int) -> CSRGraph:
    """Random graph with log-uniform weights spanning 1e-3..1e3."""
    rng = np.random.default_rng(seed)
    src, dst = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
    return _sym_graph(n, src, dst, 10.0 ** rng.uniform(-3, 3, size=m))


def _hub_graph(n: int, seed: int, weights: np.ndarray = TIE_WEIGHTS) -> CSRGraph:
    """Sparse ring plus three hubs of degree > 128 (numpy's pairwise-sum
    regime), all with edge weights drawn from *weights* (by default the
    tie-prone non-integral ones)."""
    rng = np.random.default_rng(seed)
    ring = np.arange(n)
    src, dst = [ring], [(ring + 1) % n]
    for hub in (0, n // 3, 2 * n // 3):
        spokes = rng.choice(n, size=200, replace=False)
        src.append(np.full(spokes.size, hub))
        dst.append(spokes)
    src, dst = np.concatenate(src), np.concatenate(dst)
    # Duplicate (hub, spoke) pairs accumulate in from_edges; dedupe first
    # so the adjacency keeps one entry per neighbour.
    pairs = np.unique(np.stack([np.minimum(src, dst), np.maximum(src, dst)]), axis=1)
    return _sym_graph(n, pairs[0], pairs[1], rng.choice(weights, size=pairs.shape[1]))


def _grid_graph(side: int, w: float) -> CSRGraph:
    """side×side grid with one uniform weight (maximal gain ties)."""
    idx = np.arange(side * side).reshape(side, side)
    src = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    dst = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    return _sym_graph(side * side, src, dst, np.full(src.size, w))


def graphs():
    """(name, graph) pairs the bisection-level goldens run on."""
    return [
        ("ties90", _tie_graph(90, 260, seed=1)),
        ("ties400", _tie_graph(400, 1300, seed=2)),
        ("cont150", _continuous_graph(150, 500, seed=3)),
        ("hub320", _hub_graph(320, seed=4)),
        ("grid12", _grid_graph(12, 0.3)),
        ("int120", _sym_graph(
            120,
            *np.random.default_rng(5).integers(0, 120, size=(2, 400)),
            np.random.default_rng(6).integers(1, 9, size=400),
        )),
    ]


def _dense_tie_graph(n: int, seed: int) -> CSRGraph:
    """Tiny graph keeping each vertex pair with probability 0.6; tie-prone
    non-integral weights and mixed vertex weights (the sizes most
    recursive-bisection calls of a mapping run see)."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < 0.6
    vw = rng.choice([1.0, 1.5, 2.0], size=n)
    return _sym_graph(n, iu[keep], ju[keep], rng.choice(TIE_WEIGHTS, size=int(keep.sum())), vw)


def _task_graph64(weights: np.ndarray) -> CSRGraph:
    """64 unit-weight tasks with ring, stride-8 and random edges — the
    shape of a 64-proc task graph before grouping onto 16 four-proc nodes."""
    rng = np.random.default_rng(12)
    ring = np.arange(64)
    src = np.concatenate([ring, ring, rng.integers(0, 64, size=60)])
    dst = np.concatenate([(ring + 1) % 64, (ring + 8) % 64, rng.integers(0, 64, size=60)])
    pairs = np.unique(np.stack([np.minimum(src, dst), np.maximum(src, dst)]), axis=1)
    pairs = pairs[:, pairs[0] != pairs[1]]
    return _sym_graph(64, pairs[0], pairs[1], rng.choice(weights, size=pairs.shape[1]))


def _graph_words(g: CSRGraph) -> np.ndarray:
    """A graph's four arrays as one int64 vector (floats by their bits)."""
    return np.concatenate([
        g.indptr, g.indices.astype(np.int64),
        g.weights.view(np.int64), g.vertex_weights.view(np.int64),
    ])


def _big_graph() -> CSRGraph:
    """Above the engine's strict-FM limit, so every level type runs."""
    return _tie_graph(900, 2700, seed=7)


def _matrix():
    return cage_like(240, seed=8)


def _weighted_hypergraph(seed: int) -> Hypergraph:
    """Column-net model of an rgg matrix with non-integral net costs."""
    h = Hypergraph.from_matrix(rgg_like(200, seed=seed))
    costs = np.random.default_rng(seed).choice(TIE_WEIGHTS, size=h.num_nets)
    return Hypergraph(h.num_vertices, h.pin_ptr, h.pin_ids, h.loads, costs)


def _side(graph: CSRGraph, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, size=graph.num_vertices)


def _cases():
    """Yield ``(key, thunk)``; each thunk returns a partition vector."""
    for name, g in graphs():
        total = float(g.vertex_weights.sum())
        n = g.num_vertices
        for frac in (0.5, 0.35):
            t0 = total * frac
            yield f"fm/{name}/{frac}/random", lambda g=g, t0=t0: fm_bisection_refine(
                g, _side(g, 11), t0, max_passes=4
            )
            yield f"fm/{name}/{frac}/grown", lambda g=g, t0=t0: fm_bisection_refine(
                g, greedy_grow_bisection(g, t0, 0), t0, slack=0.01 * total, max_passes=3
            )
            for s in (0, n // 2):
                yield f"grow/{name}/{frac}/{s}", lambda g=g, t0=t0, s=s: (
                    greedy_grow_bisection(g, t0, s)
                )
            yield f"best/{name}/{frac}", lambda g=g, t0=t0: best_bisection(
                g, t0, attempts=4, seed=5
            )
            yield f"ml/{name}/{frac}", lambda g=g, t0=t0: multilevel_bisect(g, t0, seed=9)
    # Integral hub weights: FM keeps gains current by ±2w updates here
    # instead of re-summing rows, so these keys pin that path on hubs.
    g = _hub_graph(320, seed=4, weights=np.arange(1.0, 9.0))
    total = float(g.vertex_weights.sum())
    for frac in (0.5, 0.35):
        t0 = total * frac
        yield f"fm/inthub320/{frac}/random", lambda t0=t0: fm_bisection_refine(
            g, _side(g, 11), t0, max_passes=4
        )
        yield f"fm/inthub320/{frac}/grown", lambda t0=t0: fm_bisection_refine(
            g, greedy_grow_bisection(g, t0, 0), t0, slack=0.01 * total, max_passes=3
        )
        yield f"ml/inthub320/{frac}", lambda t0=t0: multilevel_bisect(g, t0, seed=9)
    big = _big_graph()
    half = 0.5 * float(big.vertex_weights.sum())
    yield "ml/big900", lambda: multilevel_bisect(big, half, seed=2)
    tie = _tie_graph(400, 1300, seed=2)
    matrix = _matrix()
    for tool in PARTITIONER_NAMES:
        p = get_partitioner(tool)
        yield f"pg/{tool}/ties400", lambda p=p: partition_graph(
            tie, 6, seed=4, config=p.engine
        ).part
        yield f"tool/{tool}/cage240", lambda p=p: p.partition(matrix, 7, seed=3).part
    for hseed in (21, 22):
        h = _weighted_hypergraph(hseed)
        start = np.random.default_rng(hseed).integers(0, 5, size=h.num_vertices)
        for objective in sorted(OBJECTIVES):
            yield f"kway/{objective}/h{hseed}", lambda h=h, start=start, o=objective: (
                refine_kway(h, start, 5, o, passes=2, tolerance=0.15, candidate_limit=6)
            )
    yield from _small_cases()


def _small_cases():
    """Tiny bisections, a grouping-shaped k-way run, matching, subgraphs."""
    for n in range(2, 17):
        g = _dense_tie_graph(n, seed=100 + n)
        total = float(g.vertex_weights.sum())
        for frac in (0.5, 0.35):
            yield f"tiny/ml/n{n}/{frac}", lambda g=g, t0=total * frac, n=n: (
                multilevel_bisect(g, t0, seed=n)
            )
        for k in (2, 3, 4):
            yield f"tiny/pg/n{n}/k{k}", lambda g=g, k=k, n=n: partition_graph(
                g, k, seed=n + k
            ).part
    config = PartitionConfig(fm_passes=3, initial_attempts=4)
    uniform = np.full(16, 4.0)
    mixed = np.array([4.0] * 12 + [2.0, 6.0, 3.0, 5.0])  # heterogeneous nodes
    for name, weights, targets in (
        ("int64", np.arange(1.0, 9.0), uniform),
        ("ties64", TIE_WEIGHTS, mixed),
    ):
        g = _task_graph64(weights)
        yield f"group/{name}/pg", lambda g=g, targets=targets: partition_graph(
            g, 16, target_weights=targets, seed=6, config=config
        ).part
        yield f"group/{name}/fixup", lambda g=g, targets=targets: balance_fixup(
            g,
            partition_graph(g, 16, target_weights=targets, seed=6, config=config).part,
            16,
            targets,
        )
    for name, g in graphs():
        cap = 1.5 * float(g.vertex_weights.sum()) / 48
        yield f"hem/{name}/free", lambda g=g: heavy_edge_matching(g, seeded_rng(3))
        yield f"hem/{name}/cap", lambda g=g, cap=cap: heavy_edge_matching(
            g, seeded_rng(4), max_vertex_weight=cap
        )
        rng = np.random.default_rng(13)
        ids = rng.permutation(g.num_vertices)[: (3 * g.num_vertices) // 5]
        yield f"sub/{name}/sorted", lambda g=g, ids=np.sort(ids): _graph_words(
            g.subgraph(ids)[0]
        )
        yield f"sub/{name}/shuffled", lambda g=g, ids=ids: _graph_words(g.subgraph(ids)[0])


def _run_all(cases=None):
    return {
        key: np.asarray(thunk(), dtype=np.int64).tolist()
        for key, thunk in (_cases() if cases is None else cases)
    }


def add_missing_goldens(path=GOLDEN_PATH, cases=None):
    """Add the golden vector of every case *path* lacks; rewrite nothing.

    Returns ``(added, changed)``.  When some existing key's vector would
    change, *changed* lists those keys and the file is left untouched, so
    adding cases can never silently rewrite a reference.
    """
    existing = {}
    if os.path.exists(path):
        with open(path) as fh:
            existing = json.load(fh)
    fresh = _run_all(cases)
    changed = sorted(k for k in fresh if k in existing and existing[k] != fresh[k])
    added = sorted(k for k in fresh if k not in existing)
    if changed or not added:
        return added, changed
    existing.update((k, fresh[k]) for k in added)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(existing, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    return added, changed


@pytest.fixture(scope="module")
def golden():
    if not os.path.exists(GOLDEN_PATH):
        pytest.fail(
            "golden file missing; run `python tests/test_partition_golden.py` "
            "on the reference implementation to generate it"
        )
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(key for key, _ in _cases())


@pytest.mark.parametrize(
    "prefix",
    ["fm/", "grow/", "best/", "ml/", "pg/", "tool/", "kway/", "tiny/", "group/", "hem/", "sub/"],
)
def test_partition_golden(golden, prefix):
    for key, thunk in _cases():
        if not key.startswith(prefix):
            continue
        np.testing.assert_array_equal(
            np.asarray(thunk(), dtype=np.int64),
            np.asarray(golden[key], dtype=np.int64),
            err_msg=f"partition vector diverged from the reference for {key}",
        )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False),
        min_size=0,
        max_size=300,
    )
)
def test_exact_sum_matches_numpy_bit_for_bit(values):
    """FM's gain sums reproduce ``ndarray.sum()``'s pairwise order exactly."""
    assert _exact_sum(values).hex() == float(np.asarray(values, dtype=np.float64).sum()).hex()


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 300])
def test_exact_sum_block_boundaries(n):
    values = (10.0 ** np.random.default_rng(n).uniform(-3, 3, size=n)).tolist()
    assert _exact_sum(values).hex() == float(np.asarray(values, dtype=np.float64).sum()).hex()


def _scaled(g: CSRGraph, factor: float) -> CSRGraph:
    return CSRGraph(g.indptr, g.indices, g.weights * factor, g.vertex_weights, sorted_indices=True)


#: A power of two: scaling by it keeps every sum exact, and it makes
#: small integral weights non-integral, so FM takes the fresh-sum path.
SCALE = 2.0**-10


@st.composite
def _integral_fm_case(draw):
    """(graph, side, target0, slack) with integral, signed edge weights;
    with ``hub`` one vertex has degree > 128 (NumPy's pairwise regime)."""
    hub = draw(st.booleans())
    n = draw(st.integers(140, 200) if hub else st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = int(rng.integers(1, 3 * n + 1))
    src, dst = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
    if hub:
        spokes = rng.choice(np.arange(1, n), size=130, replace=False)
        src, dst = np.concatenate([src, np.zeros(130, dtype=np.int64)]), np.concatenate([dst, spokes])
    pairs = np.unique(np.stack([np.minimum(src, dst), np.maximum(src, dst)]), axis=1)
    w = rng.integers(1, 10, size=pairs.shape[1]) * rng.choice([-1, 1], size=pairs.shape[1], p=[0.2, 0.8])
    g = _sym_graph(n, pairs[0], pairs[1], w.astype(np.float64), rng.choice([1.0, 2.0, 3.0], size=n))
    total = float(g.vertex_weights.sum())
    frac = draw(st.sampled_from([0.5, 0.35]))
    slack = draw(st.sampled_from([None, 0.01 * total]))
    return g, rng.integers(0, 2, size=n), total * frac, slack


@settings(max_examples=60, deadline=None)
@given(_integral_fm_case())
def test_fm_integral_path_matches_fresh_sums(case):
    """Gains kept current by ±2w updates (integral weights) pick the same
    moves as gains re-summed from rows (the same graph scaled by 2**-10)."""
    g, side, t0, slack = case
    scaled = _scaled(g, SCALE)
    if g.num_edges:
        assert _integral_weights(g.weights) and not _integral_weights(scaled.weights)
    np.testing.assert_array_equal(
        fm_bisection_refine(g, side, t0, slack=slack),
        fm_bisection_refine(scaled, side, t0, slack=slack),
    )


def _heavy_graph(heavy: float) -> CSRGraph:
    """The integral hub graph with one edge reweighted to *heavy*."""
    g = _hub_graph(320, seed=4, weights=np.arange(1.0, 9.0))
    w = g.weights.copy()
    i = int(g.indptr[1])  # vertex 1's first edge (1, u) and its mirror (u, 1)
    u = int(g.indices[i])
    j = int(g.indptr[u]) + int(np.flatnonzero(g.indices[g.indptr[u] : g.indptr[u + 1]] == 1)[0])
    w[i] = w[j] = heavy
    return CSRGraph(g.indptr, g.indices, w, g.vertex_weights, sorted_indices=True)


def _heavy_at_limit() -> float:
    """The heavy weight that makes the graph's Σ|w| exactly 2**52."""
    return (2.0**52 - float(np.abs(_heavy_graph(0.0).weights).sum())) / 2


def test_integral_guard_boundary():
    """Σ|w| ≤ 2**52 of integers admits the ±2w path; one unit past it, a
    fraction, NaN or ±inf does not."""
    at = np.array([2.0**51, 2.0**51])
    assert _integral_weights(at)
    assert not _integral_weights(at + np.array([0.0, 1.0]))
    for bad in (0.5, np.nan, np.inf, -np.inf):
        assert not _integral_weights(np.array([1.0, bad]))
    assert _integral_weights(_heavy_graph(_heavy_at_limit()).weights)
    assert not _integral_weights(_heavy_graph(_heavy_at_limit() + 1).weights)


@pytest.mark.parametrize("heavy", ["at", "above", "inf", "-inf"])
def test_fm_guard_edges_match_scaled(heavy):
    """At the guard's limit, one unit past it and at ±inf, FM on the graph
    and on its ×2**-10 copy agree."""
    limit = _heavy_at_limit()
    g = _heavy_graph({"at": limit, "above": limit + 1, "inf": np.inf, "-inf": -np.inf}[heavy])
    t0 = 0.5 * float(g.vertex_weights.sum())
    side = _side(g, 11)
    np.testing.assert_array_equal(
        fm_bisection_refine(g, side, t0), fm_bisection_refine(_scaled(g, SCALE), side, t0)
    )


def test_fresh_sums_run_only_on_non_integral_weights(monkeypatch):
    calls = []

    def counting(values):
        calls.append(len(values))
        return _exact_sum(values)

    monkeypatch.setattr(fm_module, "_exact_sum", counting)
    g = _hub_graph(320, seed=4, weights=np.arange(1.0, 9.0))
    t0 = 0.5 * float(g.vertex_weights.sum())
    fm_bisection_refine(g, _side(g, 11), t0)
    assert calls == []
    fm_bisection_refine(_scaled(g, SCALE), _side(g, 11), t0)
    assert calls


def test_add_missing_goldens_adds_but_never_rewrites(tmp_path):
    cases = [("a", lambda: [0, 1]), ("b", lambda: [1, 0])]
    path = str(tmp_path / "golden.json")
    with open(path, "w") as fh:
        json.dump({"a": [0, 1]}, fh)
    assert add_missing_goldens(path, cases) == (["b"], [])
    with open(path) as fh:
        assert json.load(fh) == {"a": [0, 1], "b": [1, 0]}
    with open(path, "w") as fh:
        json.dump({"a": [1, 1]}, fh)
    assert add_missing_goldens(path, cases) == (["b"], ["a"])
    with open(path) as fh:
        assert json.load(fh) == {"a": [1, 1]}


if __name__ == "__main__":
    added, changed = add_missing_goldens()
    if changed:
        print(f"refusing to write {GOLDEN_PATH}: {len(changed)} existing key(s) would change:")
        for key in changed:
            print(f"  {key}")
        sys.exit(1)
    print(f"added {len(added)} golden entries to {GOLDEN_PATH}")
    for key in added:
        print(f"  {key}")
