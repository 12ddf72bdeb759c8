"""Compressed-sparse-row graph kernel.

A single CSR structure backs every graph in the library: task graphs,
topology graphs, partitioner working graphs and coarse quotient graphs.
The layout is three NumPy arrays::

    indptr  : int64[n+1]   row pointer
    indices : int32[m]     column (neighbour) ids
    weights : float64[m]   edge weights (1.0 when unweighted)

following the "contiguous arrays, vectorized hot loops" idiom of the
hpc-parallel guides.  Instances are immutable after construction; all
transformations (symmetrization, coarsening, subgraphs) return new objects.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

__all__ = ["CSRGraph"]


class CSRGraph:
    """Directed weighted graph in CSR form.

    Parameters
    ----------
    indptr, indices, weights:
        Standard CSR arrays.  ``weights`` may be ``None`` for an unweighted
        graph (ones are materialized).
    vertex_weights:
        Optional float64[n] vertex weights (task loads / node capacities).
    sorted_indices:
        Set to True if each row's ``indices`` are already sorted; otherwise
        rows are sorted on construction (binary search and deterministic
        iteration both rely on it).

    Notes
    -----
    Self-loops are permitted at this level (some intermediate quotient
    graphs create them); :meth:`without_self_loops` strips them.  Parallel
    edges are *not* permitted -- builders accumulate duplicates.
    """

    __slots__ = (
        "indptr",
        "indices",
        "weights",
        "vertex_weights",
        "_undirected_cache",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
        vertex_weights: Optional[np.ndarray] = None,
        *,
        sorted_indices: bool = False,
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int32)
        if self.indptr.ndim != 1 or self.indptr[0] != 0:
            raise ValueError("indptr must be 1-D and start at 0")
        if int(self.indptr[-1]) != self.indices.shape[0]:
            raise ValueError(
                f"indptr[-1]={int(self.indptr[-1])} != len(indices)={self.indices.shape[0]}"
            )
        if (self.indptr[1:] < self.indptr[:-1]).any():
            raise ValueError("indptr must be non-decreasing")
        if weights is None:
            weights = np.ones(self.indices.shape[0], dtype=np.float64)
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.shape != self.indices.shape:
            raise ValueError("weights must align with indices")
        n = self.num_vertices
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= n):
            raise ValueError("indices out of range")
        if vertex_weights is None:
            vertex_weights = np.ones(n, dtype=np.float64)
        self.vertex_weights = np.asarray(vertex_weights, dtype=np.float64)
        if self.vertex_weights.shape[0] != n:
            raise ValueError("vertex_weights must have one entry per vertex")
        if not sorted_indices:
            self._sort_rows()
        self._undirected_cache: Optional["CSRGraph"] = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        src: Iterable[int],
        dst: Iterable[int],
        weights: Optional[Iterable[float]] = None,
        vertex_weights: Optional[np.ndarray] = None,
        *,
        accumulate: bool = True,
    ) -> "CSRGraph":
        """Build from parallel edge arrays, accumulating duplicate edges.

        Duplicate ``(src, dst)`` pairs have their weights summed (matching
        how communication volumes combine when multiple messages share a
        task pair).
        """
        s = np.asarray(list(src) if not isinstance(src, np.ndarray) else src, dtype=np.int64)
        d = np.asarray(list(dst) if not isinstance(dst, np.ndarray) else dst, dtype=np.int64)
        if s.shape != d.shape:
            raise ValueError("src and dst must have equal length")
        if weights is None:
            w = np.ones(s.shape[0], dtype=np.float64)
        else:
            w = np.asarray(
                list(weights) if not isinstance(weights, np.ndarray) else weights,
                dtype=np.float64,
            )
        if w.shape != s.shape:
            raise ValueError("weights must align with edges")
        n = int(num_vertices)
        if s.size and (min(s.min(), d.min()) < 0 or max(s.max(), d.max()) >= n):
            raise ValueError("edge endpoints out of range")

        if accumulate and s.size:
            # Encode (src, dst) into a single key; unique+bincount
            # accumulates duplicates without a Python loop.
            key = s * n + d
            uniq, inv = np.unique(key, return_inverse=True)
            wsum = np.bincount(inv, weights=w, minlength=uniq.shape[0])
            s = (uniq // n).astype(np.int64)
            d = (uniq % n).astype(np.int64)
            w = wsum

        counts = np.bincount(s, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        order = np.lexsort((d, s))
        indices = d[order].astype(np.int32)
        weights_out = w[order]
        return cls(
            indptr,
            indices,
            weights_out,
            vertex_weights,
            sorted_indices=True,
        )

    @classmethod
    def empty(cls, num_vertices: int) -> "CSRGraph":
        """Graph with *num_vertices* vertices and no edges."""
        return cls(
            np.zeros(num_vertices + 1, dtype=np.int64),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.float64),
            sorted_indices=True,
        )

    def _sort_rows(self) -> None:
        indices = self.indices
        if indices.shape[0] <= 1:
            return
        rows = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr)
        )
        # Already sorted iff no within-row adjacent pair decreases.
        same_row = rows[:-1] == rows[1:]
        if not np.any(indices[1:][same_row] < indices[:-1][same_row]):
            return
        order = np.lexsort((indices, rows))
        self.indices = indices[order]
        self.weights = self.weights[order]

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def num_edges(self) -> int:
        """Number of stored (directed) edges."""
        return self.indices.shape[0]

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.num_vertices}, m={self.num_edges})"

    def neighbors(self, v: int) -> np.ndarray:
        """View of the neighbour ids of vertex *v* (do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """View of the edge weights out of vertex *v*."""
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def out_degree(self) -> np.ndarray:
        """int64[n] out-degrees."""
        return np.diff(self.indptr)

    def out_volume(self) -> np.ndarray:
        """float64[n] total outgoing edge weight per vertex."""
        return np.add.reduceat(
            np.append(self.weights, 0.0),
            self.indptr[:-1],
        ) * (np.diff(self.indptr) > 0)

    def in_volume(self) -> np.ndarray:
        """float64[n] total incoming edge weight per vertex."""
        vol = np.zeros(self.num_vertices, dtype=np.float64)
        np.add.at(vol, self.indices, self.weights)
        return vol

    def has_edge(self, u: int, v: int) -> bool:
        """O(log deg) membership test (rows are sorted)."""
        lo, hi = self.indptr[u], self.indptr[u + 1]
        i = np.searchsorted(self.indices[lo:hi], v)
        return bool(i < hi - lo and self.indices[lo + i] == v)

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``(u, v)`` or 0.0 if absent."""
        lo, hi = self.indptr[u], self.indptr[u + 1]
        i = np.searchsorted(self.indices[lo:hi], v)
        if i < hi - lo and self.indices[lo + i] == v:
            return float(self.weights[lo + i])
        return 0.0

    def edge_list(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(src, dst, weight)`` arrays of all stored edges."""
        src = np.repeat(
            np.arange(self.num_vertices, dtype=np.int32), np.diff(self.indptr)
        )
        return src, self.indices.copy(), self.weights.copy()

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def symmetrized(self) -> "CSRGraph":
        """Undirected view: weight(u,v) = w(u->v) + w(v->u), cached.

        Algorithm 1 of the paper "assumes a symmetric Gt while finding the
        neighbors of a given task since WH is an undirected metric"; this is
        the corresponding transformation.
        """
        if self._undirected_cache is None:
            s, d, w = self.edge_list()
            both_s = np.concatenate([s, d])
            both_d = np.concatenate([d, s])
            both_w = np.concatenate([w, w])
            keep = both_s != both_d
            g = CSRGraph.from_edges(
                self.num_vertices,
                both_s[keep],
                both_d[keep],
                both_w[keep],
                self.vertex_weights.copy(),
            )
            self._undirected_cache = g
        return self._undirected_cache

    def without_self_loops(self) -> "CSRGraph":
        """Copy with self-loop edges removed."""
        s, d, w = self.edge_list()
        keep = s != d
        return CSRGraph.from_edges(
            self.num_vertices, s[keep], d[keep], w[keep], self.vertex_weights.copy()
        )

    def quotient(self, part: np.ndarray, num_parts: Optional[int] = None) -> "CSRGraph":
        """Contract vertices by the partition vector *part*.

        Edge weights between parts accumulate; self-edges of the quotient
        (intra-part communication) are dropped.  Vertex weights accumulate
        into part weights.  This is how the coarse task graph used by the
        mapping algorithms is produced from a METIS-style partition.
        """
        part = np.asarray(part, dtype=np.int64)
        if part.shape[0] != self.num_vertices:
            raise ValueError("part vector length mismatch")
        k = int(num_parts if num_parts is not None else part.max() + 1)
        if part.size and (part.min() < 0 or part.max() >= k):
            raise ValueError("part ids out of range")
        s, d, w = self.edge_list()
        ps, pd = part[s], part[d]
        keep = ps != pd
        pw = np.bincount(part, weights=self.vertex_weights, minlength=k)
        return CSRGraph.from_edges(k, ps[keep], pd[keep], w[keep], pw)

    def subgraph(self, vertices: np.ndarray) -> Tuple["CSRGraph", np.ndarray]:
        """Induced subgraph on *vertices*.

        *vertices* must be unique, non-negative ids, in any order; new
        vertex ``i`` is ``vertices[i]``.  Returns ``(graph, mapping)`` where
        ``mapping[i]`` is the original id of new vertex ``i``.  The selected rows are
        gathered directly: an induced subgraph of a graph without parallel
        edges has none either, so nothing is re-accumulated, and the
        constructor re-sorts the rows when the ids were not ascending.

        Raises :class:`ValueError` on a repeated or negative id.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        k = vertices.shape[0]
        new_id = np.full(self.num_vertices, -1, dtype=np.int64)
        positions = np.arange(k, dtype=np.int64)
        new_id[vertices] = positions
        if (k and vertices.min() < 0) or not np.array_equal(new_id[vertices], positions):
            raise ValueError("subgraph vertex ids must be unique and non-negative")
        starts = self.indptr[vertices]
        counts = self.indptr[vertices + 1] - starts
        gather = np.repeat(starts, counts) + _ranges(counts)
        dst = new_id[self.indices[gather]]
        keep = dst >= 0
        indptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(np.repeat(positions, counts)[keep], minlength=k), out=indptr[1:]
        )
        g = CSRGraph(
            indptr,
            dst[keep],
            self.weights[gather[keep]],
            self.vertex_weights[vertices],
        )
        return g, vertices

    def reversed(self) -> "CSRGraph":
        """Graph with all edge directions flipped."""
        s, d, w = self.edge_list()
        return CSRGraph.from_edges(self.num_vertices, d, s, w, self.vertex_weights.copy())

    # ------------------------------------------------------------------
    # traversals
    # ------------------------------------------------------------------
    def bfs_levels(
        self,
        sources: Sequence[int],
        *,
        max_level: Optional[int] = None,
    ) -> np.ndarray:
        """Multi-source BFS levels (int64[n]; unreached = -1).

        All *sources* start at level 0, matching the paper's convention
        ("all the mapped tasks are assumed to be at level 0 of the BFS").
        The frontier sweep is vectorized over the CSR arrays.
        """
        n = self.num_vertices
        level = np.full(n, -1, dtype=np.int64)
        frontier = np.asarray(list(sources), dtype=np.int64)
        if frontier.size == 0:
            return level
        level[frontier] = 0
        depth = 0
        indptr, indices = self.indptr, self.indices
        while frontier.size and (max_level is None or depth < max_level):
            depth += 1
            # Gather all neighbours of the frontier in one shot.
            starts = indptr[frontier]
            ends = indptr[frontier + 1]
            counts = ends - starts
            if counts.sum() == 0:
                break
            gather = np.repeat(starts, counts) + _ranges(counts)
            nbrs = indices[gather]
            fresh = nbrs[level[nbrs] < 0]
            if fresh.size == 0:
                break
            fresh = np.unique(fresh)
            level[fresh] = depth
            frontier = fresh
        return level

    def bfs_order(self, sources: Sequence[int]) -> np.ndarray:
        """Vertices in BFS order from *sources* (unreached omitted).

        Within a level, vertices appear in ascending id order, which makes
        candidate enumeration in the mapping algorithms deterministic.
        """
        level = self.bfs_levels(sources)
        reached = np.flatnonzero(level >= 0)
        order = np.lexsort((reached, level[reached]))
        return reached[order]

    def connected_components(self) -> np.ndarray:
        """Component labels of the *undirected* graph (int64[n]).

        BFS from each yet-unlabelled vertex; in an undirected graph that
        reaches exactly one whole component, so a single assignment per
        component suffices.
        """
        g = self.symmetrized()
        n = g.num_vertices
        comp = np.full(n, -1, dtype=np.int64)
        label = 0
        for v in range(n):
            if comp[v] >= 0:
                continue
            level = g.bfs_levels([v])
            comp[np.flatnonzero(level >= 0)] = label
            label += 1
        return comp

    def is_connected(self) -> bool:
        """True if the undirected version of the graph is connected."""
        if self.num_vertices == 0:
            return True
        level = self.symmetrized().bfs_levels([0])
        return bool(np.all(level >= 0))

    def total_edge_weight(self) -> float:
        return float(self.weights.sum())


def _ranges(counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(c)`` for each c in *counts* (vectorized).

    ``_ranges([2, 0, 3]) == [0, 1, 0, 1, 2]``.  Implemented as a global
    arange minus each element's block start, which is robust to zero-length
    blocks (unlike subtract-at-block-boundary tricks).
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    block_starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(block_starts, counts)
