"""Cached hop-distance tables for the 3-D torus.

``Torus3D.hop_distance`` recomputes per-dimension ring distances from the
coordinate arrays on every call — correct, but the mapping algorithms'
hot loops call it thousands of times with tiny operands, so the
coordinate gathers and ``min``/``abs`` temporaries dominate.  The paper's
complexity argument ("the hop count between two arbitrary nodes can be
found in O(1)") deserves O(1) with a small constant:

* per-dimension *ring tables* ``ring[d][k] = min(k, size_d - k)`` turn
  the distance into three gathers and two adds;
* below :data:`DEFAULT_MATRIX_MAX_NODES` nodes, a full ``int16[n, n]``
  pairwise hop matrix makes every lookup a single fancy-index gather —
  32 MB at the 4096-node cap, far beyond the torus sizes the paper's
  16384-processor runs need.

The produced hop values are exactly the integers ``hop_distance``
returns, so kernels built on either path yield bit-identical metrics.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["HopTable", "hop_table_for", "DEFAULT_MATRIX_MAX_NODES"]

#: Largest node count for which the dense pairwise matrix is built
#: (``n^2`` int16 entries: 4096 nodes = 32 MB).
DEFAULT_MATRIX_MAX_NODES = 4096


class HopTable:
    """Precomputed hop-distance lookups for one torus.

    Parameters
    ----------
    torus:
        Any object with ``dims``, ``num_nodes`` and ``coords()`` — in
        practice a :class:`repro.topology.torus.Torus3D`.
    matrix_max_nodes:
        Build the dense pairwise matrix only when ``num_nodes`` does not
        exceed this threshold; above it the per-dimension ring tables
        serve every query.
    """

    __slots__ = ("dims", "num_nodes", "_coords", "_ring", "_matrix")

    def __init__(self, torus, matrix_max_nodes: int = DEFAULT_MATRIX_MAX_NODES) -> None:
        self.dims = tuple(int(d) for d in torus.dims)
        self.num_nodes = int(torus.num_nodes)
        self._coords = torus.coords()
        max_size = max(self.dims)
        ring = np.zeros((3, max_size), dtype=np.int64)
        for d, size in enumerate(self.dims):
            k = np.arange(size, dtype=np.int64)
            ring[d, :size] = np.minimum(k, size - k)
        self._ring = ring
        self._matrix: Optional[np.ndarray] = None
        if self.num_nodes <= int(matrix_max_nodes):
            self._matrix = self._build_matrix()

    # ------------------------------------------------------------------
    def _build_matrix(self) -> np.ndarray:
        """Dense ``int16[n, n]`` hop matrix from the per-dim ring tables.

        Assembled dimension by dimension through small per-coordinate
        matrices so no int64 ``n x n`` temporary is ever materialized.
        """
        c = self._coords
        out: Optional[np.ndarray] = None
        for d, size in enumerate(self.dims):
            k = np.arange(size, dtype=np.int64)
            diff = np.abs(k[:, None] - k[None, :])
            per_coord = np.minimum(diff, size - diff).astype(np.int16)
            block = per_coord[np.ix_(c[:, d], c[:, d])]
            if out is None:
                out = block
            else:
                out += block
        assert out is not None
        return out

    @property
    def has_matrix(self) -> bool:
        """True when lookups go through the dense pairwise matrix."""
        return self._matrix is not None

    # ------------------------------------------------------------------
    # batched lookups
    # ------------------------------------------------------------------
    def pairwise_hops(self, a, b) -> np.ndarray:
        """Elementwise hop counts between node-id arrays *a* and *b*.

        Drop-in for ``torus.hop_distance`` (same integer values).
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self._matrix is not None:
            return self._matrix[a, b]
        ca = self._coords[a]
        cb = self._coords[b]
        ring = self._ring
        sizes = self.dims
        return (
            ring[0][(ca[..., 0] - cb[..., 0]) % sizes[0]]
            + ring[1][(ca[..., 1] - cb[..., 1]) % sizes[1]]
            + ring[2][(ca[..., 2] - cb[..., 2]) % sizes[2]]
        )

    def hops_to_many(self, node: int, others) -> np.ndarray:
        """Hop counts from one *node* to every id in *others* (1-D)."""
        others = np.asarray(others, dtype=np.int64)
        if self._matrix is not None:
            return self._matrix[int(node)][others]
        return self.pairwise_hops(np.int64(node), others)

    def cross_hops(self, a, b) -> np.ndarray:
        """Hop matrix ``[len(a), len(b)]`` between two node-id arrays.

        Replaces the ``repeat``/``tile``/``reshape`` dance of the scalar
        call sites with one gather (matrix path) or one broadcast.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self._matrix is not None:
            return self._matrix[a[:, None], b[None, :]]
        return self.pairwise_hops(a[:, None], b[None, :])


def hop_table_for(torus, matrix_max_nodes: int = DEFAULT_MATRIX_MAX_NODES) -> HopTable:
    """The (cached) :class:`HopTable` of *torus*.

    The table is stored on the torus instance so every mapper, refiner
    and metric evaluation working on the same machine shares one build.
    Only default-threshold tables go through the cache — a custom
    *matrix_max_nodes* always builds (and returns) a fresh table, so an
    explicit threshold is never silently overridden by a cache hit.
    Objects without the cache slot just get a fresh table.
    """
    if matrix_max_nodes != DEFAULT_MATRIX_MAX_NODES:
        return HopTable(torus, matrix_max_nodes=matrix_max_nodes)
    cached = getattr(torus, "_hop_table", None)
    if cached is not None:
        return cached
    table = HopTable(torus)
    try:
        torus._hop_table = table
    except AttributeError:
        pass
    return table
