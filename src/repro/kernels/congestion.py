"""Incremental congestion model — the shared route/congestion subsystem.

One :class:`CongestionModel` owns everything Algorithm 3 (and every
other congestion consumer) needs about the network state of a mapping:

* the static routes of all task-graph edges, held as a
  :class:`~repro.topology.routing.RouteTable` (CSR ``edge -> directed
  link ids``) and **delta-updated** on every committed swap — only the
  O(deg) edges incident to the swapped tasks are re-routed, everything
  else is spliced from cached segments;
* the per-link ``msgs``/``vols`` load arrays, updated by exact sparse
  deltas in O(deg·D) per commit (D = torus diameter) — never rebuilt;
* the ``commTasks`` search index (link → tasks routed through it) as a
  CSR pair, re-derived from the cached route segments on the paper's
  refresh cadence instead of re-enumerating every route;
* a **pair-route memo**.  A swap permutes Γ but never changes the set U
  of nodes Γ uses, so every route a probe or a commit can need joins two
  nodes of U.  The memo keeps those routes keyed by their node pair and
  fills lazily: the pairs a call needs that are not memoized yet are
  routed together in one ``routes_bulk`` call.  After the first few
  probes neither probes nor commits enumerate a route.  A route depends
  only on its own endpoints, detours on a degraded torus included, so
  the memo is exact; its memory is bounded by the pairs actually probed.

The batched-candidate kernel :meth:`CongestionModel.evaluate_swaps`
scores all ≤Δ BFS-ordered swap partners of a task in one shot: old-route
deltas gathered from the table, new routes gathered from the memo, the
per-(candidate, link) deltas summed by one ``bincount`` over dense
keys, and the accept rule decided for all candidates by array
operations (:meth:`CongestionModel._verdicts`).  The verdicts reproduce
the scalar :meth:`swap_improves` arithmetic exactly (same unique-link
deltas, same MC/AC comparisons, same epsilons), so refinement
trajectories are unchanged; with the repo's integer communication
volumes the equality is bit-exact.

Staleness contract: the route table and the load arrays are *never*
stale — they are updated on every commit.  The ``commTasks`` index is
deliberately refreshed only every ``refresh_interval`` commits, exactly
like the reference implementation's periodic rebuild (it is a search
index, not a correctness structure, and the paper's pop order depends
on that cadence); the refresh itself costs a sort over cached segments,
not a route enumeration.  ``tests/test_congestion_model.py`` pins both
halves of the contract.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.graph.csr import _ranges
from repro.topology.routing import RouteTable, routes_bulk
from repro.topology.torus import Torus3D

__all__ = ["CongestionModel"]

_EPS = 1e-9


def _gather_segments(
    data: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Concatenate ``data[starts[i]:starts[i]+counts[i]]`` segments."""
    return data[np.repeat(starts, counts) + _ranges(counts)]


class CongestionModel:
    """Delta-updated per-link congestion state of one mapping.

    Parameters
    ----------
    torus:
        The machine network (routes, bandwidths, link id space).
    src_t, dst_t, vol:
        Edge list of the (directed) task communication graph.
    gamma:
        Task → node mapping; the model owns (and mutates) this array.
    metric:
        ``'volume'`` tracks volume congestion VC (``UMC``), ``'message'``
        tracks message counts (``UMMC`` hands in multiplicity weights).
    route_table:
        Optional pre-built :class:`RouteTable` for ``gamma``'s endpoint
        pairs (e.g. shared through the API's artifact cache).  The model
        copies it, so cached tables stay pristine.
    refresh_interval:
        Commits between ``commTasks`` index refreshes (the reference
        implementation's rebuild cadence; the pop order of Algorithm 3
        depends on it, so changing it changes refinement trajectories).
    """

    def __init__(
        self,
        torus: Torus3D,
        src_t: np.ndarray,
        dst_t: np.ndarray,
        vol: np.ndarray,
        gamma: np.ndarray,
        *,
        metric: str = "volume",
        route_table: RouteTable | None = None,
        refresh_interval: int = 8,
    ) -> None:
        if metric not in ("volume", "message"):
            raise ValueError("metric must be 'volume' or 'message'")
        self.torus = torus
        self.metric = metric
        self.refresh_interval = int(refresh_interval)
        self.gamma = np.asarray(gamma, dtype=np.int64)
        self.src_t = np.asarray(src_t, dtype=np.int64)
        self.dst_t = np.asarray(dst_t, dtype=np.int64)
        self.vol = np.asarray(vol, dtype=np.float64)

        bw = torus.link_bandwidths()
        self._inv_bw = np.zeros_like(bw)
        np.divide(1.0, bw, out=self._inv_bw, where=bw > 0)

        n = self.gamma.shape[0]
        self.host = np.full(torus.num_nodes, -1, dtype=np.int64)
        self.host[self.gamma] = np.arange(n)

        # Pair-route memo: sorted node-pair keys (a·num_nodes + b) with
        # each route's segment in ``_memo_links``.
        empty = np.empty(0, dtype=np.int64)
        self._memo_keys = self._memo_start = self._memo_count = empty
        self._memo_links = empty

        # Per-task incident edge ids (both directions), precomputed once:
        # swap evaluation is then O(deg·D) instead of scanning all edges.
        m = self.src_t.shape[0]
        ends = np.concatenate([self.src_t, self.dst_t])
        eids = np.concatenate([np.arange(m, dtype=np.int64)] * 2)
        order = np.argsort(ends, kind="stable")
        counts = np.bincount(ends, minlength=n)
        self._inc_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self._inc_ptr[1:])
        self._inc_ids = eids[order]

        if route_table is None:
            route_table = RouteTable.build(
                torus, self.gamma[self.src_t], self.gamma[self.dst_t]
            )
        else:
            route_table = route_table.copy()
        self.routes = route_table
        self._refresh_comm_index()  # also accumulates msgs/vols

    # ------------------------------------------------------------------
    # commTasks search index (CSR link -> tasks, paper refresh cadence)
    # ------------------------------------------------------------------
    def _refresh_comm_index(self) -> None:
        """Re-derive the link → tasks CSR from the cached route segments.

        Bucket order matches a fresh ``routes_bulk`` rebuild bit for
        bit: within one link's bucket every entry shares that link's
        dimension and a static route crosses a link at most once, so
        both the reference (dimension-major over edges) and a stable
        sort of the edge-major CSR order the bucket by edge id.

        The load arrays are re-accumulated from the table on the same
        cadence: a no-op for integer volumes (the deltas are exact) but
        it bounds float round-off drift to one refresh interval, like
        the reference implementation's periodic rebuild did — still
        with zero route enumeration.
        """
        self._commits_since_refresh = 0
        self.msgs, self.vols = self.routes.accumulate(self.vol)
        edge_of_entry = self.routes.pair_of_entry()
        links = self.routes.links
        order = np.argsort(links, kind="stable")
        links_final = links[order]
        edges_final = edge_of_entry[order]

        nl = self.torus.num_links
        per_link = np.bincount(links_final, minlength=nl)
        self._comm_ptr = np.zeros(nl + 1, dtype=np.int64)
        np.cumsum(per_link * 2, out=self._comm_ptr[1:])
        tasks = np.empty(2 * links_final.shape[0], dtype=np.int64)
        tasks[0::2] = self.src_t[edges_final]
        tasks[1::2] = self.dst_t[edges_final]
        self._comm_tasks = tasks

    def tasks_through(self, link: int) -> List[int]:
        """Distinct tasks routed through *link*, in route-traversal order.

        (Both endpoints of a message can move its route, so each crossing
        contributes its sender and receiver.)  Reads the refreshed index,
        which intentionally lags commits by up to ``refresh_interval``.
        """
        link = int(link)
        seg = self._comm_tasks[self._comm_ptr[link] : self._comm_ptr[link + 1]]
        if seg.size == 0:
            return []
        uniq, first = np.unique(seg, return_index=True)
        return uniq[np.argsort(first, kind="stable")].tolist()

    # ------------------------------------------------------------------
    # pair-route memo
    # ------------------------------------------------------------------
    def _pair_routes(
        self, src: np.ndarray, dst: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(links, counts)`` of the routes ``src[i] → dst[i]``.

        ``links`` concatenates the routes in pair order, each in
        traversal order — what a stable sort by message of
        ``routes_bulk(torus, src, dst)`` yields.  Pairs missing from the
        memo are routed in one ``routes_bulk`` call and memoized first.
        """
        size = self.torus.num_nodes
        keys = src * size + dst
        pos = np.searchsorted(self._memo_keys, keys)
        hit = pos < self._memo_keys.shape[0]
        hit[hit] = self._memo_keys[pos[hit]] == keys[hit]
        if not hit.all():
            new = np.unique(keys[~hit])
            links, msg = routes_bulk(self.torus, new // size, new % size)
            counts = np.bincount(msg, minlength=new.shape[0])
            starts = self._memo_links.shape[0] + np.cumsum(counts) - counts
            self._memo_links = np.concatenate(
                [self._memo_links, links[np.argsort(msg, kind="stable")]]
            )
            keys_all = np.concatenate([self._memo_keys, new])
            order = np.argsort(keys_all)
            self._memo_keys = keys_all[order]
            self._memo_start = np.concatenate([self._memo_start, starts])[order]
            self._memo_count = np.concatenate([self._memo_count, counts])[order]
            pos = np.searchsorted(self._memo_keys, keys)
        counts = self._memo_count[pos]
        return _gather_segments(self._memo_links, self._memo_start[pos], counts), counts

    # ------------------------------------------------------------------
    # metric views
    # ------------------------------------------------------------------
    def _load(self) -> np.ndarray:
        """The per-link congestion the refiner optimizes (VC or messages).

        ``message`` mode reads ``self.vols`` too: the pipeline hands the
        message variant a graph whose edge *weights* are fine message
        multiplicities, so the tracked maximum is exactly the rank-level
        MMC (a coarse edge aggregates many rank pairs).
        """
        if self.metric == "volume":
            return self.vols * self._inv_bw
        return self.vols

    def current_mc_ac(self) -> Tuple[float, float]:
        mc, ac, _ = self._probe_context()
        return mc, ac

    # ------------------------------------------------------------------
    # swap machinery
    # ------------------------------------------------------------------
    def _incident_edges(self, t1: int, t2: int) -> np.ndarray:
        """Distinct edge ids touching either task."""
        a = self._inc_ids[self._inc_ptr[t1] : self._inc_ptr[t1 + 1]]
        b = self._inc_ids[self._inc_ptr[t2] : self._inc_ptr[t2 + 1]]
        return np.unique(np.concatenate([a, b]))

    def _swap_route_delta(self, t1: int, t2: int):
        """Deltas and replacement segments of swapping ``Γ[t1] ↔ Γ[t2]``.

        Returns ``(links, d_msgs, d_vols, edges, new_links, new_counts)``
        where the first three are the unique-link sparse load deltas and
        the last three feed :meth:`RouteTable.replace_routes`.  Old
        routes come from the cached table, new ones from the pair-route
        memo.
        """
        edges = self._incident_edges(t1, t2)
        n1, n2 = int(self.gamma[t1]), int(self.gamma[t2])

        lo = self.routes.ptr[edges]
        old_counts = self.routes.ptr[edges + 1] - lo
        old_links = _gather_segments(self.routes.links, lo, old_counts)
        old_vol = np.repeat(self.vol[edges], old_counts)

        src_tasks = self.src_t[edges]
        dst_tasks = self.dst_t[edges]

        def translate(task_ids: np.ndarray) -> np.ndarray:
            out = self.gamma[task_ids].copy()
            moved = (task_ids == t1) | (task_ids == t2)
            out[moved] = np.where(task_ids[moved] == t1, n2, n1)
            return out

        new_src = translate(src_tasks)
        new_dst = translate(dst_tasks)
        keep_new = new_src != new_dst
        new_links, kept_counts = self._pair_routes(new_src[keep_new], new_dst[keep_new])
        new_counts = np.zeros(edges.shape[0], dtype=np.int64)
        new_counts[keep_new] = kept_counts

        d_msg = np.concatenate(
            [
                -np.ones_like(old_links, dtype=np.float64),
                np.ones_like(new_links, dtype=np.float64),
            ]
        )
        d_vol = np.concatenate(
            [-old_vol, np.repeat(self.vol[edges][keep_new], kept_counts)]
        )
        # Per-link sums: each bin adds its entries in input order, as
        # the batched kernel's bincount does, so both derive equal deltas.
        keys = np.concatenate([old_links, new_links])
        nl = self.torus.num_links
        links = np.flatnonzero(np.bincount(keys, minlength=nl))
        dm = np.bincount(keys, weights=d_msg, minlength=nl)[links]
        dv = np.bincount(keys, weights=d_vol, minlength=nl)[links]
        return links, dm, dv, edges, new_links, new_counts

    def _swap_deltas(
        self, t1: int, t2: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sparse per-link ``(links, d_msgs, d_vols)`` of swapping t1 ↔ t2."""
        links, dm, dv, _, _, _ = self._swap_route_delta(t1, t2)
        return links, dm, dv

    def _probe_context(self) -> Tuple[float, float, float]:
        """``(mc, ac, total)`` of the current loads, once per probe.

        ``total`` is ``load.sum()``, the AC numerator (``load`` *is*
        ``vols * inv_bw`` in volume mode and plain ``vols`` in message
        mode).
        """
        load = self._load()
        n_used = int(np.count_nonzero(self.msgs > 0))
        total = load.sum()
        mc = float(load.max()) if n_used else 0.0
        ac = float(total / n_used) if n_used else 0.0
        return mc, ac, float(total)

    def swap_improves(self, t1: int, t2: int) -> bool:
        """Virtual swap: does MC improve — or AC at equal MC?"""
        links, dm, dv = self._swap_deltas(t1, t2)
        return bool(self._verdicts(links, dm, dv, 1)[0])

    def _verdicts(
        self, keys: np.ndarray, d_msg: np.ndarray, d_vol: np.ndarray, K: int
    ) -> np.ndarray:
        """Accept verdicts (Algorithm 3) of K candidates at once.

        Entry *i* changes link ``keys[i] % L`` of candidate
        ``keys[i] // L`` (L = number of links) by ``d_msg[i]`` messages
        and ``d_vol[i]`` volume.  The deltas are summed per (candidate,
        link) by a ``bincount`` over the dense ``K·L`` key range, which
        adds each bin's entries in input order, and each candidate's
        new loads become one row of a ``K × L`` array.  A candidate
        changing no link is rejected.

        * New MC is the row max: the unchanged loads are reproduced
          exactly (``vols + 0.0``) and max is order-free.
        * At equal MC the candidate is accepted on AC improvement.  The
          used-link count is a row count; the AC total needs a float
          sum, taken per tied candidate over its changed links in link
          order, the same ``.sum()`` a one-candidate probe takes.

        The scalar probe (:meth:`swap_improves`, K=1) and the batched
        Δ-kernel (:meth:`evaluate_swaps`) both land here.
        """
        size = K * self.torus.num_links
        changed = np.bincount(keys, minlength=size).reshape(K, -1) > 0
        dm = np.bincount(keys, weights=d_msg, minlength=size).reshape(K, -1)
        dv = np.bincount(keys, weights=d_vol, minlength=size).reshape(K, -1)
        new_load = self.vols + dv
        if self.metric == "volume":
            dv = dv * self._inv_bw
            new_load *= self._inv_bw
        new_mc = new_load.max(axis=1)
        mc, ac, total = self._probe_context()
        live = changed.any(axis=1)
        out = live & (new_mc < mc - _EPS)
        tied = np.flatnonzero(live & ~out & ~(new_mc > mc + _EPS))
        if tied.size:
            used = np.count_nonzero(self.msgs + dm[tied] > _EPS, axis=1)
            for k, used_new in zip(tied.tolist(), used.tolist()):
                total_new = total + float(dv[k][changed[k]].sum())
                new_ac = total_new / used_new if used_new else 0.0
                out[k] = new_ac < ac - _EPS
        return out

    # ------------------------------------------------------------------
    # batched candidate evaluation (the Δ-kernel)
    # ------------------------------------------------------------------
    def evaluate_swaps(self, t1: int, cands: np.ndarray) -> np.ndarray:
        """Score swapping *t1* against every candidate in one shot.

        Returns ``bool[K]`` — candidate *k*'s verdict equals
        ``swap_improves(t1, cands[k])``.  Old-route deltas are gathered
        from the cached table and new routes from the pair-route memo,
        which the following :meth:`commit_swap` of any candidate reads
        too (zero routing work per commit).
        """
        cands = np.asarray(cands, dtype=np.int64)
        K = cands.shape[0]
        if K == 0:
            return np.zeros(0, dtype=bool)
        m = self.src_t.shape[0]
        nl = self.torus.num_links

        # -- per-candidate unique incident edge sets (dense k·m keys) --
        e1 = self._inc_ids[self._inc_ptr[t1] : self._inc_ptr[t1 + 1]]
        lo2 = self._inc_ptr[cands]
        cnt2 = self._inc_ptr[cands + 1] - lo2
        e2 = _gather_segments(self._inc_ids, lo2, cnt2)
        ks = np.arange(K, dtype=np.int64)
        comp = np.concatenate(
            [
                (ks[:, None] * m + e1[None, :]).ravel(),
                np.repeat(ks, cnt2) * m + e2,
            ]
        )
        comp = np.flatnonzero(np.bincount(comp, minlength=K * m))
        k_of = comp // m
        e_of = comp % m

        # -- old-route deltas from the cached segments -----------------
        r_lo = self.routes.ptr[e_of]
        r_cnt = self.routes.ptr[e_of + 1] - r_lo
        old_links = _gather_segments(self.routes.links, r_lo, r_cnt)
        old_k = np.repeat(k_of, r_cnt)
        old_vol = np.repeat(self.vol[e_of], r_cnt)

        # -- new routes, gathered from the pair-route memo -------------
        n1 = int(self.gamma[t1])
        n2 = self.gamma[cands]  # per candidate
        s_tasks = self.src_t[e_of]
        d_tasks = self.dst_t[e_of]
        c_k = cands[k_of]
        new_src = np.where(
            s_tasks == t1, n2[k_of], np.where(s_tasks == c_k, n1, self.gamma[s_tasks])
        )
        new_dst = np.where(
            d_tasks == t1, n2[k_of], np.where(d_tasks == c_k, n1, self.gamma[d_tasks])
        )
        keep = new_src != new_dst
        new_links, new_counts = self._pair_routes(new_src[keep], new_dst[keep])
        new_k = np.repeat(k_of[keep], new_counts)
        new_vol = np.repeat(self.vol[e_of][keep], new_counts)

        # -- per-(candidate, link) deltas, keyed k·L + link ------------
        keys = np.concatenate([old_k * nl + old_links, new_k * nl + new_links])
        d_msg = np.concatenate(
            [
                -np.ones_like(old_links, dtype=np.float64),
                np.ones_like(new_links, dtype=np.float64),
            ]
        )
        d_vol = np.concatenate([-old_vol, new_vol])
        return self._verdicts(keys, d_msg, d_vol, K)

    # ------------------------------------------------------------------
    # commits
    # ------------------------------------------------------------------
    def commit_swap(self, t1: int, t2: int) -> None:
        """Apply the swap: exact sparse load deltas + route-table splice.

        The per-link deltas are exact (see the delta-vs-rebuild property
        test), so the load arrays update in O(deg·D); the incident
        edges' new routes come from the pair-route memo (a swap scored
        by :meth:`evaluate_swaps` finds them all there) and are spliced
        into the shared table, and the ``commTasks`` index refreshes on
        its cadence — nothing is ever re-enumerated from scratch.
        """
        links, dm, dv, edges, new_links, new_counts = self._swap_route_delta(t1, t2)
        if links.size:
            self.msgs[links] += dm
            self.vols[links] += dv
            np.maximum(self.msgs, 0.0, out=self.msgs)
            np.maximum(self.vols, 0.0, out=self.vols)
        n1, n2 = int(self.gamma[t1]), int(self.gamma[t2])
        self.gamma[t1] = n2
        self.gamma[t2] = n1
        self.host[n1] = t2
        self.host[n2] = t1
        self.routes.replace_routes(edges, new_links, new_counts)
        self._commits_since_refresh += 1
        if self._commits_since_refresh >= self.refresh_interval:
            self._refresh_comm_index()
