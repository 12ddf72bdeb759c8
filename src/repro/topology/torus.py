"""3-D torus geometry (Cray Gemini-like).

Node ids are linearized as ``id = x + nx * (y + ny * z)``.  Every node has
up to six outgoing *directed* links, identified as::

    link_id = node * 6 + dim * 2 + direction      # direction: 0 = +, 1 = -

so congestion can be tracked per directed link with plain array indexing
(the paper counts "the number of messages sent across a link"; with full-
duplex torus links the two directions are independent channels).

Dimensions of size 1 have no links in that dimension; dimensions of size 2
keep both the ``+`` and ``-`` links, modelling them as the two independent
cables Gemini actually wires between adjacent router pairs.

Link bandwidths are per-dimension, defaulting to the Gemini-like values
``(9.38, 4.68, 9.38)`` GB/s — the paper reports Hopper's links span
4.68–9.38 GB/s with different values per dimension.

Degraded machines carry **failure masks**: :meth:`Torus3D.with_failures`
derives a torus with dead links and/or dead nodes (a dead node takes all
its incident links down with it).  Every consumer that holds the torus
sees the degradation without code changes — :meth:`graph` omits dead
links (so mapping BFS avoids dead regions), :meth:`link_bandwidths`
zeroes them, and :func:`repro.topology.routing.routes_bulk` detours
routes around them.  A healthy torus takes none of those code paths, so
healthy-machine results stay byte-identical.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["Torus3D", "GEMINI_BANDWIDTHS"]

#: Per-dimension link bandwidths in GB/s mirroring Hopper's Gemini torus.
GEMINI_BANDWIDTHS: Tuple[float, float, float] = (9.38, 4.68, 9.38)

#: Per-hop latency (seconds); calibrated so nearest/farthest Hopper pairs
#: land in the paper's measured 1.27–3.88 µs window.
HOP_LATENCY_S: float = 0.13e-6
BASE_LATENCY_S: float = 1.14e-6


class Torus3D:
    """A 3-D torus with wrap-around links and per-dimension bandwidths.

    Parameters
    ----------
    dims:
        ``(nx, ny, nz)`` router counts per dimension (each >= 1).
    bandwidths:
        Per-dimension link bandwidth in GB/s.
    dead_links:
        Directed link ids that have failed (both directions of a cable
        fail independently; pass both ids to take the cable down).
    dead_nodes:
        Node ids that have failed; all links into and out of a dead
        node are dead too.
    """

    __slots__ = (
        "dims",
        "bandwidths",
        "num_nodes",
        "dead_links",
        "dead_nodes",
        "_coords",
        "_graph",
        "_link_bw",
        "_link_valid",
        "_link_alive",
    )

    def __init__(
        self,
        dims: Tuple[int, int, int],
        bandwidths: Tuple[float, float, float] = GEMINI_BANDWIDTHS,
        *,
        dead_links=(),
        dead_nodes=(),
    ) -> None:
        dims = tuple(int(d) for d in dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValueError(f"dims must be three integers >= 1, got {dims}")
        if any(b <= 0 for b in bandwidths):
            raise ValueError(f"bandwidths must be positive, got {bandwidths}")
        self.dims = dims
        self.bandwidths = tuple(float(b) for b in bandwidths)
        self.num_nodes = dims[0] * dims[1] * dims[2]
        self.dead_links = np.unique(np.asarray(list(dead_links), dtype=np.int64))
        self.dead_nodes = np.unique(np.asarray(list(dead_nodes), dtype=np.int64))
        if self.dead_links.size and (
            self.dead_links.min() < 0 or self.dead_links.max() >= self.num_nodes * 6
        ):
            raise ValueError("dead link id outside the torus link id space")
        if self.dead_nodes.size and (
            self.dead_nodes.min() < 0 or self.dead_nodes.max() >= self.num_nodes
        ):
            raise ValueError("dead node id outside the torus")
        self._coords: Optional[np.ndarray] = None
        self._graph: Optional[CSRGraph] = None
        self._link_bw: Optional[np.ndarray] = None
        self._link_valid: Optional[np.ndarray] = None
        self._link_alive: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # failure masks
    # ------------------------------------------------------------------
    @property
    def has_faults(self) -> bool:
        """True when any link or node failure is masked in."""
        return bool(self.dead_links.size or self.dead_nodes.size)

    def with_failures(self, *, dead_links=(), dead_nodes=()) -> "Torus3D":
        """A torus with the given failures merged into the existing mask.

        Returns a fresh instance (existing per-instance caches — graph,
        link arrays, route tables — key on identity or content and stay
        valid for the healthy original).
        """
        links = np.concatenate(
            [self.dead_links, np.asarray(list(dead_links), dtype=np.int64)]
        )
        nodes = np.concatenate(
            [self.dead_nodes, np.asarray(list(dead_nodes), dtype=np.int64)]
        )
        return Torus3D(
            self.dims, self.bandwidths, dead_links=links, dead_nodes=nodes
        )

    def node_alive(self) -> np.ndarray:
        """bool[num_nodes]: which nodes have not failed."""
        alive = np.ones(self.num_nodes, dtype=bool)
        alive[self.dead_nodes] = False
        return alive

    def link_alive(self) -> np.ndarray:
        """bool[num_links]: valid links that have not failed (cached).

        A link is dead when explicitly masked, or when either of its
        endpoints is a dead node.  On a healthy torus this is exactly
        :meth:`link_valid`.
        """
        if self._link_alive is None:
            alive = self.link_valid().copy()
            if self.dead_links.size:
                alive[self.dead_links] = False
            if self.dead_nodes.size:
                lids = np.flatnonzero(alive)
                src, dst = self.link_endpoints(lids)
                node_ok = self.node_alive()
                alive[lids[~(node_ok[src] & node_ok[dst])]] = False
            self._link_alive = alive
        return self._link_alive

    def fault_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(dead_links, dead_nodes)`` — the content of the failure mask.

        Content-key helpers (``machine_key``, ``route_table_key``)
        fingerprint these so degraded and healthy machines never share
        cached artifacts.
        """
        return self.dead_links, self.dead_nodes

    # ------------------------------------------------------------------
    # coordinates
    # ------------------------------------------------------------------
    def coords(self) -> np.ndarray:
        """int64[num_nodes, 3] coordinates of every node (cached)."""
        if self._coords is None:
            nx, ny, _ = self.dims
            ids = np.arange(self.num_nodes, dtype=np.int64)
            self._coords = np.stack(
                [ids % nx, (ids // nx) % ny, ids // (nx * ny)], axis=1
            )
        return self._coords

    def node_id(self, x: int, y: int, z: int) -> int:
        nx, ny, nz = self.dims
        if not (0 <= x < nx and 0 <= y < ny and 0 <= z < nz):
            raise ValueError(f"coordinate ({x},{y},{z}) outside dims {self.dims}")
        return x + nx * (y + ny * z)

    # ------------------------------------------------------------------
    # distances
    # ------------------------------------------------------------------
    def hop_distance(self, u, v) -> np.ndarray:
        """Shortest-path hops between node ids *u* and *v* (vectorized).

        Torus distance: per-dimension ``min(|d|, size - |d|)`` summed.
        O(1) per pair — this is what lets the mapping algorithms evaluate
        WH deltas cheaply ("the hop count between two arbitrary nodes can
        be found in O(1), since Gm's are regular graphs").
        """
        cu = self.coords()[np.asarray(u, dtype=np.int64)]
        cv = self.coords()[np.asarray(v, dtype=np.int64)]
        sizes = np.asarray(self.dims, dtype=np.int64)
        diff = np.abs(cu - cv)
        per_dim = np.minimum(diff, sizes - diff)
        return per_dim.sum(axis=-1)

    @property
    def diameter(self) -> int:
        """Maximum hop distance between any node pair."""
        return sum(d // 2 for d in self.dims)

    def latency(self, u, v) -> np.ndarray:
        """Node-pair latency in seconds: base + per-hop cost."""
        return BASE_LATENCY_S + HOP_LATENCY_S * self.hop_distance(u, v)

    # ------------------------------------------------------------------
    # links
    # ------------------------------------------------------------------
    @property
    def num_links(self) -> int:
        """Size of the directed-link id namespace (includes invalid slots)."""
        return self.num_nodes * 6

    def link_id(self, node, dim, direction) -> np.ndarray:
        """Directed link id for (*node*, *dim*, *direction*) (vectorized)."""
        return (
            np.asarray(node, dtype=np.int64) * 6
            + np.asarray(dim, dtype=np.int64) * 2
            + np.asarray(direction, dtype=np.int64)
        )

    def link_endpoints(self, link_id) -> Tuple[np.ndarray, np.ndarray]:
        """``(src_node, dst_node)`` of directed link ids (vectorized)."""
        lid = np.asarray(link_id, dtype=np.int64)
        node = lid // 6
        dim = (lid % 6) // 2
        direction = lid % 2
        step = np.where(direction == 0, 1, -1)
        return node, self._neighbor(node, dim, step)

    def _neighbor(self, node: np.ndarray, dim: np.ndarray, step: np.ndarray) -> np.ndarray:
        """Neighbour of *node* moving *step* (+1/-1) along *dim* with wrap."""
        nx, ny, nz = self.dims
        c = self.coords()[node].copy()
        sizes = np.asarray(self.dims, dtype=np.int64)
        sel = np.asarray(dim, dtype=np.int64)
        rows = np.arange(c.shape[0]) if c.ndim == 2 else None
        if c.ndim == 1:
            c[sel] = (c[sel] + step) % sizes[sel]
            return c[0] + nx * (c[1] + ny * c[2])
        c[rows, sel] = (c[rows, sel] + step) % sizes[sel]
        return c[:, 0] + nx * (c[:, 1] + ny * c[:, 2])

    def link_valid(self) -> np.ndarray:
        """bool[num_links]: which directed link ids physically exist.

        A ``+``/``-`` pair exists in a dimension of size >= 2 (size-1
        dimensions have no links).
        """
        if self._link_valid is None:
            lids = np.arange(self.num_links, dtype=np.int64)
            dim = (lids % 6) // 2
            sizes = np.asarray(self.dims, dtype=np.int64)
            self._link_valid = sizes[dim] >= 2
        return self._link_valid

    def link_bandwidths(self) -> np.ndarray:
        """float64[num_links] GB/s per directed link (0 for invalid or dead)."""
        if self._link_bw is None:
            lids = np.arange(self.num_links, dtype=np.int64)
            dim = (lids % 6) // 2
            bw = np.asarray(self.bandwidths, dtype=np.float64)[dim]
            bw[~self.link_alive()] = 0.0
            self._link_bw = bw
        return self._link_bw

    # ------------------------------------------------------------------
    # graph view
    # ------------------------------------------------------------------
    def graph(self) -> CSRGraph:
        """Topology graph ``Gm`` as an undirected CSR graph (cached).

        Edge weights are link bandwidths (useful for weighted BFS-style
        heuristics); the mapping algorithms primarily need adjacency for
        their BFS traversals.  Dead links and dead nodes are omitted,
        so BFS-driven placement naturally avoids failed regions.
        """
        if self._graph is None:
            srcs = []
            dsts = []
            wts = []
            nodes = np.arange(self.num_nodes, dtype=np.int64)
            alive = self.link_alive() if self.has_faults else None
            for dim in range(3):
                size = self.dims[dim]
                if size < 2:
                    continue
                for step, direction in ((1, 0), (-1, 1)):
                    nbr = self._neighbor(
                        nodes,
                        np.full(self.num_nodes, dim, dtype=np.int64),
                        np.full(self.num_nodes, step, dtype=np.int64),
                    )
                    use_src, use_nbr = nodes, nbr
                    if alive is not None:
                        keep = alive[nodes * 6 + dim * 2 + direction]
                        use_src, use_nbr = nodes[keep], nbr[keep]
                    srcs.append(use_src)
                    dsts.append(use_nbr)
                    wts.append(
                        np.full(
                            use_src.shape[0], self.bandwidths[dim], dtype=np.float64
                        )
                    )
            if srcs:
                src = np.concatenate(srcs)
                dst = np.concatenate(dsts)
                wt = np.concatenate(wts)
                # accumulate=False would keep parallel edges; from_edges
                # accumulates, which merges the two directions of size-2
                # dimensions into a single adjacency entry -- correct for
                # BFS purposes.
                self._graph = CSRGraph.from_edges(self.num_nodes, src, dst, wt)
            else:
                self._graph = CSRGraph.empty(self.num_nodes)
        return self._graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        faults = (
            f", dead_links={self.dead_links.size}, dead_nodes={self.dead_nodes.size}"
            if self.has_faults
            else ""
        )
        return f"Torus3D(dims={self.dims}, bw={self.bandwidths}{faults})"
