"""Machine abstraction: topology graph plus a processor allocation.

``Machine`` bundles what the paper calls ``Gm`` together with the job's
allocated node set ``Va ⊆ Vm`` and per-node computation capacities
``w(m)`` (the number of allocated processors on each node; zero for nodes
outside the allocation).  Mapping algorithms receive a ``Machine`` and
never look at raw torus internals beyond distances, routes and BFS.

The paper's searches (GETBESTNODE, the swap-partner loops of Algorithms
2 and 3) visit nodes "in BFS order from Γ[nghbor(t)]" but only ever
pick allocated nodes, and their seeds are allocated too.  So the
machine keeps one matrix of ``Gm`` BFS hops between allocated nodes
(:meth:`Machine.alloc_hops`), and :meth:`Machine.bfs_order` turns it into
the allocated subsequence of a multi-source BFS: a node's level is its
fewest hops from any seed, and a level lists its nodes by id.  A
search then costs O(seeds × |Va|), whatever the torus size.

The WH/TH metrics and the mappers' gains likewise ask only for hops
between allocated nodes, because Γ maps into ``Va``.  They read the
ring distance of :meth:`Torus3D.hop_distance` from one cached
``[|Va|, |Va|]`` matrix (:meth:`Machine.ring_hops`), indexed by
allocation row (:meth:`Machine.alloc_rows`).  On a healthy torus BFS
hops are ring hops, and the two matrices are one array.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.topology.torus import Torus3D

__all__ = ["Machine"]


class Machine:
    """A torus with an allocation.

    Parameters
    ----------
    torus:
        The underlying :class:`Torus3D`.
    alloc_nodes:
        Node ids reserved for the application (``Va``), in allocation
        order — the order the scheduler hands them out, which the DEF
        mapping follows rank by rank.
    procs_per_node:
        Either a scalar (uniform capacity) or an array aligned with
        *alloc_nodes*.
    """

    __slots__ = (
        "torus",
        "alloc_nodes",
        "capacities",
        "_alloc_mask",
        "_alloc_index",
        "_by_id",
        "_ring_hops",
        "_alloc_hops",
    )

    def __init__(
        self,
        torus: Torus3D,
        alloc_nodes: Sequence[int],
        procs_per_node=16,
    ) -> None:
        self.torus = torus
        nodes = np.asarray(list(alloc_nodes), dtype=np.int64)
        if nodes.size == 0:
            raise ValueError("allocation must contain at least one node")
        if nodes.min() < 0 or nodes.max() >= torus.num_nodes:
            raise ValueError("allocated node id outside the torus")
        if np.unique(nodes).shape[0] != nodes.shape[0]:
            raise ValueError("allocation contains duplicate nodes")
        if torus.has_faults and not torus.node_alive()[nodes].all():
            raise ValueError(
                "allocation contains dead nodes; use Machine.degrade() to "
                "drop failed nodes from an existing allocation"
            )
        self.alloc_nodes = nodes
        caps = np.asarray(procs_per_node, dtype=np.int64)
        if caps.ndim == 0:
            caps = np.full(nodes.shape[0], int(caps), dtype=np.int64)
        if caps.shape[0] != nodes.shape[0]:
            raise ValueError("procs_per_node must align with alloc_nodes")
        if np.any(caps <= 0):
            raise ValueError("per-node capacities must be positive")
        self.capacities = caps
        self._alloc_mask: Optional[np.ndarray] = None
        self._alloc_index: Optional[np.ndarray] = None
        self._by_id: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._ring_hops: Optional[np.ndarray] = None
        self._alloc_hops: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def num_alloc_nodes(self) -> int:
        return self.alloc_nodes.shape[0]

    @property
    def total_procs(self) -> int:
        return int(self.capacities.sum())

    def alloc_mask(self) -> np.ndarray:
        """bool[num_nodes]: membership in ``Va`` (cached)."""
        if self._alloc_mask is None:
            mask = np.zeros(self.torus.num_nodes, dtype=bool)
            mask[self.alloc_nodes] = True
            self._alloc_mask = mask
        return self._alloc_mask

    def alloc_index(self) -> np.ndarray:
        """int64[num_nodes]: index into *alloc_nodes* (-1 if unallocated)."""
        if self._alloc_index is None:
            idx = np.full(self.torus.num_nodes, -1, dtype=np.int64)
            idx[self.alloc_nodes] = np.arange(self.num_alloc_nodes)
            self._alloc_index = idx
        return self._alloc_index

    def node_capacities(self) -> np.ndarray:
        """int64[num_nodes]: ``w(m)`` — zero for nodes outside ``Va``."""
        caps = np.zeros(self.torus.num_nodes, dtype=np.int64)
        caps[self.alloc_nodes] = self.capacities
        return caps

    # ------------------------------------------------------------------
    def graph(self) -> CSRGraph:
        """The topology graph ``Gm`` (all torus nodes, not just ``Va``).

        Mapping BFS traversals must cross unallocated nodes — two allocated
        nodes can be topologically close *through* someone else's job.
        """
        return self.torus.graph()

    def hop_distance(self, u, v) -> np.ndarray:
        return self.torus.hop_distance(u, v)

    def sorted_alloc(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(nodes, row)``: *alloc_nodes* by id, and each node's position there."""
        if self._by_id is None:
            nodes = np.sort(self.alloc_nodes)
            row = np.full(self.torus.num_nodes, -1, dtype=np.int64)
            row[nodes] = np.arange(nodes.shape[0])
            self._by_id = (nodes, row)
        return self._by_id

    def alloc_rows(self, nodes) -> np.ndarray:
        """Rows of :meth:`sorted_alloc` of the allocated node ids *nodes*.

        Raises ``ValueError`` if any node lies outside ``Va``.
        """
        rows = self.sorted_alloc()[1][nodes]
        if rows.size and rows.min() < 0:
            raise ValueError("node outside the allocation")
        return rows

    def ring_hops(self) -> np.ndarray:
        """``[|Va|, |Va|]`` ring hops between allocated nodes (cached).

        Entry ``[i, j]`` is :meth:`Torus3D.hop_distance` between the
        allocated nodes on rows ``i`` and ``j`` of :meth:`sorted_alloc`:
        the WH metric's distance, which failures do not change.  The
        dtype is the smallest unsigned integer holding the torus diameter
        plus one.  The matrix is summed one dimension at a time from that
        dimension's ring table, so no wider ``|Va|²`` array is made.
        """
        if self._ring_hops is None:
            nodes, _ = self.sorted_alloc()
            coords = self.torus.coords()[nodes]
            dtype = np.min_scalar_type(self.torus.diameter + 1)
            out = np.zeros((nodes.size, nodes.size), dtype=dtype)
            for d, size in enumerate(self.torus.dims):
                k = np.arange(size)
                diff = np.abs(k[:, None] - k[None, :])
                ring = np.minimum(diff, size - diff).astype(dtype)
                out += ring[np.ix_(coords[:, d], coords[:, d])]
            self._ring_hops = out
        return self._ring_hops

    def alloc_hops(self) -> np.ndarray:
        """``[|Va|, |Va|]`` ``Gm`` BFS hops between allocated nodes (cached).

        Rows are sources and columns targets, both in ascending node id.
        The dtype is the smallest unsigned integer holding every hop
        count, and its maximum marks a pair with no path.  On a healthy
        torus BFS hops equal the ring distance, so this is
        :meth:`ring_hops` itself.  With faults it comes from one BFS of
        ``Gm`` per allocated node: a dead link can fail in one direction
        only, and some pairs may be cut off entirely.
        """
        if not self.has_faults:
            return self.ring_hops()
        if self._alloc_hops is None:
            nodes, _ = self.sorted_alloc()
            gm = self.torus.graph()
            hops = np.stack([gm.bfs_levels([int(s)])[nodes] for s in nodes])
            dtype = np.min_scalar_type(int(hops.max()) + 1)
            out = hops.astype(dtype)
            out[hops < 0] = np.iinfo(dtype).max
            self._alloc_hops = out
        return self._alloc_hops

    def bfs_order(self, seeds) -> Tuple[np.ndarray, np.ndarray]:
        """Allocated nodes in ``Gm`` BFS order from *seeds*: ``(nodes, levels)``.

        *seeds* is an array of allocated node ids.  Nodes come
        sorted by level (fewest hops from any seed; the seeds themselves
        are level 0), then by id; nodes no seed reaches are left out.
        This is exactly the allocated part of :meth:`CSRGraph.bfs_levels`
        from the same seeds, in (level, id) order.
        """
        nodes, row = self.sorted_alloc()
        rows, level = self.bfs_rows(row[seeds])
        return nodes[rows], level

    def bfs_rows(self, seed_rows) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`bfs_order` over rows of :meth:`sorted_alloc`: ``(rows, levels)``."""
        hops = self.alloc_hops()
        unreached = np.iinfo(hops.dtype).max
        level = hops[seed_rows].min(axis=0, initial=unreached)
        order = np.argsort(level, kind="stable")
        level = level[order]
        reached = np.searchsorted(level, unreached)
        return order[:reached], level[:reached]

    def uniform_capacity(self) -> bool:
        """True if every allocated node offers the same processor count."""
        return bool(np.all(self.capacities == self.capacities[0]))

    # ------------------------------------------------------------------
    # degraded machines
    # ------------------------------------------------------------------
    @property
    def has_faults(self) -> bool:
        """True when the underlying torus carries a failure mask."""
        return self.torus.has_faults

    def degrade(self, *, dead_links=(), dead_nodes=()) -> "Machine":
        """This machine with additional failures masked in.

        Dead nodes are dropped from the allocation (the job lost those
        processors); routes and mapping BFS on the returned machine
        detour around every masked link and node.  The original machine
        is untouched — degraded and healthy machines fingerprint to
        different content keys, so cached artifacts never cross over.
        """
        torus = self.torus.with_failures(
            dead_links=dead_links, dead_nodes=dead_nodes
        )
        keep = torus.node_alive()[self.alloc_nodes]
        if not keep.any():
            raise ValueError("failure mask removes every allocated node")
        return Machine(
            torus, self.alloc_nodes[keep], self.capacities[keep]
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Machine(torus={self.torus.dims}, nodes={self.num_alloc_nodes}, "
            f"procs={self.total_procs})"
        )
