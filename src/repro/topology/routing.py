"""Static dimension-ordered routing on the 3-D torus.

Gemini routes packets with static dimension-ordered routing: a message
first resolves its X offset, then Y, then Z, always taking the shorter way
around the torus ring (ties broken toward the ``+`` direction, which pins
the routing function down deterministically — the paper's congestion
metrics assume "the messages are not split and sent through only a single
path via static routing").

The module exposes a scalar route enumerator (:func:`route`), the bulk,
fully vectorized :func:`routes_bulk` (for ``|Et|`` messages the output
has at most ``|Et| * D`` entries, D = torus diameter, matching the
paper's complexity accounting), and :class:`RouteTable` — the CSR
``pair -> directed link ids`` view of many routes that the congestion
subsystem (:class:`repro.kernels.congestion.CongestionModel`), the
mapping metrics and the flow simulator all share: routes are enumerated
once per (endpoints, torus) content key and then read (or delta-updated)
in place instead of re-enumerated per consumer.

Fault-avoiding rerouting
------------------------
On a torus carrying a failure mask (``Torus3D.with_failures``), routes
whose static dimension-ordered path would cross a dead link detour
around it: the affected messages are re-routed over the *healthy*
directed link graph by a deterministic BFS (FIFO frontier, links
explored in ``x+ x- y+ y- z+ z-`` order), which yields a shortest
healthy path with a pinned tie-break.  Unaffected messages keep their
byte-identical dimension-ordered routes, and a healthy torus never
enters the detour path at all — ``RouteTable.build`` and every
congestion consumer pick the mask up for free because they route
through this module.  Routing to or from a dead node raises
:class:`DeadEndpointError`; a mask that disconnects a live pair raises
:class:`UnroutableError`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.graph.csr import _ranges
from repro.topology.torus import Torus3D

__all__ = [
    "route",
    "routes_bulk",
    "route_lengths",
    "link_loads",
    "RouteTable",
    "route_table_key",
    "shared_route_table",
    "DeadEndpointError",
    "UnroutableError",
]


class DeadEndpointError(ValueError):
    """A message endpoint is a dead node — no route can exist."""


class UnroutableError(RuntimeError):
    """The failure mask disconnects a live (src, dst) pair."""


def _dim_plan(
    torus: Torus3D, cu: np.ndarray, cv: np.ndarray, dim: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-message (steps, direction) along *dim*.

    direction 0 = increasing coordinate (with wrap), 1 = decreasing.
    Ties (both ways equal) go to direction 0.
    """
    size = torus.dims[dim]
    fwd = (cv[:, dim] - cu[:, dim]) % size
    bwd = size - fwd
    take_fwd = fwd <= bwd
    steps = np.where(take_fwd, fwd, bwd)
    # A zero-offset message takes no steps; direction is irrelevant then.
    steps = np.where(fwd == 0, 0, steps)
    direction = np.where(take_fwd, 0, 1)
    return steps.astype(np.int64), direction.astype(np.int64)


def route(torus: Torus3D, u: int, v: int) -> List[int]:
    """Directed link ids of the static route from node *u* to node *v*.

    The length of the returned list equals ``torus.hop_distance(u, v)``.
    """
    links, _ = routes_bulk(
        torus, np.asarray([u], dtype=np.int64), np.asarray([v], dtype=np.int64)
    )
    return [int(l) for l in links]


def route_lengths(torus: Torus3D, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Hop count of each route.

    On a healthy torus this equals ``torus.hop_distance``; with a
    failure mask, detoured routes may be longer than the geometric
    distance, so the actual enumerated routes are measured.
    """
    if not torus.has_faults:
        return torus.hop_distance(src, dst)
    src = np.asarray(src, dtype=np.int64).reshape(-1)
    dst = np.asarray(dst, dtype=np.int64).reshape(-1)
    _, msg = routes_bulk(torus, src, dst)
    return np.bincount(msg, minlength=src.shape[0])


def routes_bulk(
    torus: Torus3D, src: np.ndarray, dst: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Enumerate the static routes of many messages at once.

    Parameters
    ----------
    torus:
        The torus to route on.
    src, dst:
        int64[M] node ids of the message endpoints.

    Returns
    -------
    (links, msg):
        ``links`` is an int64 array of directed link ids; ``msg[i]`` tells
        which input message traverses ``links[i]``.  Entries appear in
        dimension order (X segments of all messages, then Y, then Z), with
        each message's segment ordered hop by hop.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("src and dst must have equal length")
    m = src.shape[0]
    if m == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if torus.has_faults:
        return _routes_bulk_faulty(torus, src, dst)
    return _routes_bulk_default(torus, src, dst)


def _routes_bulk_default(
    torus: Torus3D, src: np.ndarray, dst: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The vectorized dimension-ordered enumeration (fault-blind)."""
    m = src.shape[0]
    coords = torus.coords()
    cu = coords[src]
    cv = coords[dst]
    nx, ny, _ = torus.dims

    all_links = []
    all_msgs = []
    # Current coordinates resolve dimension by dimension: after the X
    # segment the x coordinate equals the destination's, etc.
    cur = cu.copy()
    for dim in range(3):
        size = torus.dims[dim]
        steps, direction = _dim_plan(torus, cur, cv, dim)
        total = int(steps.sum())
        if total:
            msg = np.repeat(np.arange(m, dtype=np.int64), steps)
            t = _ranges(steps)
            sign = np.where(direction == 0, 1, -1)[msg]
            coord_t = (cur[msg, dim] + sign * t) % size
            # Rebuild the id of the node the packet occupies at step t.
            # (``cur[msg]`` fancy-indexes a fresh copy, so the column
            # assignment cannot leak back into ``cur``.)
            c = cur[msg]
            c[:, dim] = coord_t
            node_t = c[:, 0] + nx * (c[:, 1] + ny * c[:, 2])
            link = node_t * 6 + dim * 2 + np.where(sign[...] == 1, 0, 1)
            all_links.append(link)
            all_msgs.append(msg)
        # The packet has now fully resolved this dimension.
        cur[:, dim] = cv[:, dim]

    if not all_links:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(all_links), np.concatenate(all_msgs)


# ---------------------------------------------------------------------------
# Fault-avoiding rerouting (degraded machines only).
# ---------------------------------------------------------------------------


def _routes_bulk_faulty(
    torus: Torus3D, src: np.ndarray, dst: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Dimension-ordered routes with BFS detours around dead links.

    Messages whose default route stays on healthy links keep it
    unchanged (bit-identical to the healthy enumeration); only the
    affected messages are re-routed.  Output stays per-message
    traversal-ordered, which is the only order contract
    :meth:`RouteTable.from_bulk` and the congestion delta machinery
    rely on (they stable-sort by message).
    """
    node_ok = torus.node_alive()
    bad_src = ~node_ok[src]
    bad_dst = ~node_ok[dst]
    if bad_src.any() or bad_dst.any():
        which = int(src[bad_src][0]) if bad_src.any() else int(dst[bad_dst][0])
        raise DeadEndpointError(
            f"message endpoint {which} is a dead node; allocate around the "
            "failure mask (Machine.degrade drops dead nodes)"
        )
    links, msg = _routes_bulk_default(torus, src, dst)
    alive = torus.link_alive()
    dead_entries = ~alive[links] if links.size else np.zeros(0, dtype=bool)
    if not dead_entries.any():
        return links, msg
    affected = np.unique(msg[dead_entries])
    keep = ~np.isin(msg, affected)
    out_links = [links[keep]]
    out_msgs = [msg[keep]]

    nbr, nbr_alive = _healthy_adjacency(torus)
    by_source: dict = {}
    for i in affected.tolist():
        by_source.setdefault(int(src[i]), []).append(i)
    for source, messages in sorted(by_source.items()):
        parent_link = _bfs_parents(
            torus, source, nbr, nbr_alive, {int(dst[i]) for i in messages}
        )
        for i in messages:
            target = int(dst[i])
            if parent_link[target] < 0:
                raise UnroutableError(
                    f"no healthy route from node {source} to node {target}: "
                    "the failure mask disconnects them"
                )
            path: List[int] = []
            node = target
            while node != source:
                lid = int(parent_link[node])
                path.append(lid)
                node = int(lid // 6)
            path.reverse()
            out_links.append(np.asarray(path, dtype=np.int64))
            out_msgs.append(np.full(len(path), i, dtype=np.int64))
    return np.concatenate(out_links), np.concatenate(out_msgs)


def _healthy_adjacency(torus: Torus3D) -> Tuple[np.ndarray, np.ndarray]:
    """``(neighbor, alive)`` int64/bool ``[num_nodes, 6]`` tables.

    Column order is the deterministic exploration order of the detour
    BFS: ``x+ x- y+ y- z+ z-`` (slot = dim * 2 + direction), matching
    the directed link id layout.
    """
    n = torus.num_nodes
    nodes = np.arange(n, dtype=np.int64)
    nbr = np.empty((n, 6), dtype=np.int64)
    for dim in range(3):
        for direction, step in ((0, 1), (1, -1)):
            nbr[:, dim * 2 + direction] = torus._neighbor(
                nodes,
                np.full(n, dim, dtype=np.int64),
                np.full(n, step, dtype=np.int64),
            )
    alive = torus.link_alive().reshape(n, 6)
    return nbr, alive


def _bfs_parents(
    torus: Torus3D,
    source: int,
    nbr: np.ndarray,
    nbr_alive: np.ndarray,
    targets: set,
) -> np.ndarray:
    """Parent directed-link ids of a BFS over the healthy link graph.

    ``parent_link[v]`` is the link whose traversal first reached *v*
    (-1 = unreached); walking parents back from a target yields a
    shortest healthy path.  FIFO frontier + fixed slot order make the
    tie-break deterministic.  Stops early once every target is reached.
    """
    parent_link = np.full(torus.num_nodes, -1, dtype=np.int64)
    seen = np.zeros(torus.num_nodes, dtype=bool)
    seen[source] = True
    remaining = set(targets) - {source}
    queue = [source]
    head = 0
    while head < len(queue) and remaining:
        node = queue[head]
        head += 1
        for slot in range(6):
            if not nbr_alive[node, slot]:
                continue
            nxt = int(nbr[node, slot])
            if seen[nxt]:
                continue
            seen[nxt] = True
            parent_link[nxt] = node * 6 + slot
            remaining.discard(nxt)
            queue.append(nxt)
    return parent_link


def link_loads(
    torus: Torus3D,
    src: np.ndarray,
    dst: np.ndarray,
    volumes: np.ndarray,
) -> np.ndarray:
    """Accumulate per-link traffic for many messages (float64[num_links]).

    This realizes Eq. (1) of the paper, summed in one vectorized pass:
    ``Congestion(e) = Σ inSP(e, Γ(t1), Γ(t2)) · c(t1, t2)`` (pass unit
    volumes for the message-count variant).
    """
    volumes = np.asarray(volumes, dtype=np.float64)
    links, msg = routes_bulk(torus, src, dst)
    loads = np.zeros(torus.num_links, dtype=np.float64)
    if links.size:
        np.add.at(loads, links, volumes[msg])
    return loads


# ---------------------------------------------------------------------------
# RouteTable — the shared CSR view of many static routes.
# ---------------------------------------------------------------------------


class RouteTable:
    """CSR routes of ``M`` (src, dst) pairs: ``ptr`` int64[M+1], ``links``.

    ``links[ptr[i]:ptr[i+1]]`` are the directed link ids of pair *i*'s
    static route in traversal order (X hops, then Y, then Z, hop by hop);
    intra-node pairs own an empty segment, so a table can index a full
    edge list without filtering.  The table is the single route store
    shared by the congestion model (which delta-updates it in place via
    :meth:`replace_routes`), the congestion metrics and the flow
    simulator — and, through the API's artifact cache, across algorithms
    of one ``map_batch``.
    """

    __slots__ = ("num_links", "ptr", "links")

    def __init__(self, ptr: np.ndarray, links: np.ndarray, num_links: int) -> None:
        self.ptr = np.asarray(ptr, dtype=np.int64)
        self.links = np.asarray(links, dtype=np.int64)
        self.num_links = int(num_links)

    # -- construction --------------------------------------------------
    @classmethod
    def build(cls, torus: Torus3D, src: np.ndarray, dst: np.ndarray) -> "RouteTable":
        """Enumerate and index the routes of many pairs (one bulk pass)."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        links, msg = routes_bulk(torus, src, dst)
        return cls.from_bulk(src.shape[0], links, msg, torus.num_links)

    @classmethod
    def from_bulk(
        cls, num_pairs: int, links: np.ndarray, msg: np.ndarray, num_links: int
    ) -> "RouteTable":
        """Reorder a ``routes_bulk`` result (dimension-major) into CSR.

        The stable sort by pair preserves each route's traversal order.
        """
        order = np.argsort(msg, kind="stable")
        counts = np.bincount(msg, minlength=num_pairs)
        ptr = np.zeros(num_pairs + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        return cls(ptr, links[order], num_links)

    # -- views ---------------------------------------------------------
    @property
    def num_pairs(self) -> int:
        return self.ptr.shape[0] - 1

    @property
    def num_entries(self) -> int:
        return self.links.shape[0]

    def counts(self) -> np.ndarray:
        """int64[M]: hop count of each pair's route."""
        return np.diff(self.ptr)

    def links_of(self, pair: int) -> np.ndarray:
        """Directed link ids of pair *pair*'s route (view, do not write)."""
        return self.links[self.ptr[pair] : self.ptr[pair + 1]]

    def pair_of_entry(self) -> np.ndarray:
        """int64[num_entries]: owning pair of each CSR entry."""
        return np.repeat(np.arange(self.num_pairs, dtype=np.int64), self.counts())

    def gather(self, pairs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(links, counts)`` of the requested pairs' segments, concatenated."""
        pairs = np.asarray(pairs, dtype=np.int64)
        lo = self.ptr[pairs]
        counts = self.ptr[pairs + 1] - lo
        idx = np.repeat(lo, counts) + _ranges(counts)
        return self.links[idx], counts

    def accumulate(self, volumes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-link ``(message_count, volume)`` over all routed pairs.

        Realizes Eq. (1) of the paper for every directed link at once —
        the congestion metrics' and the congestion model's load arrays.
        """
        volumes = np.asarray(volumes, dtype=np.float64)
        msgs = np.bincount(self.links, minlength=self.num_links).astype(np.float64)
        vols = np.zeros(self.num_links, dtype=np.float64)
        if self.links.size:
            np.add.at(vols, self.links, np.repeat(volumes, self.counts()))
        return msgs, vols

    def copy(self) -> "RouteTable":
        """Independent copy (mutation via :meth:`replace_routes` is in place)."""
        return RouteTable(self.ptr.copy(), self.links.copy(), self.num_links)

    # -- delta updates -------------------------------------------------
    def replace_routes(
        self, pairs: np.ndarray, new_links: np.ndarray, new_counts: np.ndarray
    ) -> None:
        """Splice new route segments for *pairs* into the CSR arrays.

        ``new_links`` holds the replacement segments concatenated in
        *pairs* order (traversal order within each pair); ``new_counts``
        aligns with *pairs*.  Cost is O(num_entries) array copies — no
        route enumeration — which is what keeps congestion-model commits
        at O(deg·D) routing work.
        """
        pairs = np.asarray(pairs, dtype=np.int64)
        new_counts = np.asarray(new_counts, dtype=np.int64)
        counts = np.diff(self.ptr)
        moved = np.zeros(self.num_pairs, dtype=bool)
        moved[pairs] = True
        keep_entries = ~np.repeat(moved, counts)

        next_counts = counts.copy()
        next_counts[pairs] = new_counts
        next_ptr = np.zeros(self.num_pairs + 1, dtype=np.int64)
        np.cumsum(next_counts, out=next_ptr[1:])
        out = np.empty(int(next_ptr[-1]), dtype=np.int64)

        kept_pairs_of_entry = np.repeat(
            np.arange(self.num_pairs, dtype=np.int64), counts
        )[keep_entries]
        offsets = _ranges(counts)[keep_entries]
        out[next_ptr[kept_pairs_of_entry] + offsets] = self.links[keep_entries]

        dest_pairs = np.repeat(pairs, new_counts)
        out[next_ptr[dest_pairs] + _ranges(new_counts)] = np.asarray(
            new_links, dtype=np.int64
        )
        self.ptr = next_ptr
        self.links = out


def shared_route_table(
    torus: Torus3D, src: np.ndarray, dst: np.ndarray, cache=None
) -> RouteTable:
    """Build the endpoints' route table, through a cache when given.

    *cache* is an :class:`~repro.api.cache.ArtifactCache` (duck-typed:
    anything with ``get_or_compute``); the single ``route_table``
    namespace and :func:`route_table_key` keying live here so every
    consumer — the MC/MMC refiners, the congestion metrics, the flow
    simulator — shares one entry per (torus, endpoints).  Callers that
    mutate the table (the congestion model) must copy it first.
    """
    if cache is None:
        return RouteTable.build(torus, src, dst)
    return cache.get_or_compute(
        "route_table",
        route_table_key(torus, src, dst),
        lambda: RouteTable.build(torus, src, dst),
    )


def route_table_key(torus: Torus3D, src: np.ndarray, dst: np.ndarray) -> int:
    """Content cache key of a :class:`RouteTable` build.

    Static dimension-ordered routes depend only on the torus dimensions
    and the endpoint pairs, so the key fingerprints exactly those — two
    algorithms routing the same endpoints on the same torus share one
    table regardless of which graph or mapping produced the pairs.  A
    failure mask changes the routes, so a degraded torus additionally
    fingerprints its dead links/nodes (healthy keys are unchanged).
    """
    from repro.util.fingerprint import fingerprint_arrays

    dims = np.asarray(torus.dims, dtype=np.int64)
    arrays = [dims, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)]
    if torus.has_faults:
        arrays.extend(torus.fault_arrays())
    return fingerprint_arrays(*arrays)

