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
  refresh cadence instead of re-enumerating every route.

The batched-candidate kernel :meth:`CongestionModel.evaluate_swaps` is
the performance headline: it scores all ≤Δ BFS-ordered swap partners of
a task in one shot — old-route deltas gathered from the table, new
routes for *all* candidates enumerated in a single ``routes_bulk``
call — instead of two route enumerations per candidate.  The accept /
reject verdicts reproduce the scalar :meth:`swap_improves` arithmetic
exactly (same unique-link deltas, same MC/AC comparisons, same
epsilons), so refinement trajectories are unchanged; with the repo's
integer communication volumes the equality is bit-exact.

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

from repro.topology.routing import RouteTable, _ranges, routes_bulk
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
        #: Per-candidate deltas stashed by the last ``evaluate_swaps``
        #: batch so the winning candidate's commit can reuse them
        #: instead of re-deriving (one ``routes_bulk`` saved per
        #: commit); invalidated by every committed swap.
        self._eval_stash = None
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

    def most_congested_link(self) -> int:
        load = self._load()
        top = int(np.argmax(load))
        return top if load[top] > _EPS else -1

    def current_mc_ac(self) -> Tuple[float, float]:
        _, mc, ac, _, _, _ = self._probe_context()
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
        routes come from the cached table; only the new positions of the
        incident edges are enumerated.
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
        links_n, msg_n = routes_bulk(self.torus, new_src[keep_new], new_dst[keep_new])

        # Replacement CSR segments, pair-major (stable sort keeps the
        # traversal order within each route).
        order = np.argsort(msg_n, kind="stable")
        new_links = links_n[order]
        kept_counts = np.bincount(msg_n, minlength=int(keep_new.sum()))
        new_counts = np.zeros(edges.shape[0], dtype=np.int64)
        new_counts[keep_new] = kept_counts

        all_links = np.concatenate([old_links, links_n])
        if all_links.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, edges, new_links, new_counts
        d_msg = np.concatenate(
            [
                -np.ones_like(old_links, dtype=np.float64),
                np.ones_like(links_n, dtype=np.float64),
            ]
        )
        d_vol = np.concatenate([-old_vol, self.vol[edges][keep_new][msg_n]])
        uniq, inv = np.unique(all_links, return_inverse=True)
        dm = np.bincount(inv, weights=d_msg, minlength=uniq.shape[0])
        dv = np.bincount(inv, weights=d_vol, minlength=uniq.shape[0])
        return uniq, dm, dv, edges, new_links, new_counts

    def _swap_deltas(
        self, t1: int, t2: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sparse per-link ``(links, d_msgs, d_vols)`` of swapping t1 ↔ t2."""
        links, dm, dv, _, _, _ = self._swap_route_delta(t1, t2)
        return links, dm, dv

    def _probe_context(self):
        """Per-probe global state, computed once per candidate batch.

        One pass over the load array serves every comparison the accept
        rule makes: ``load.sum()`` doubles as the AC numerator and the
        volume-metric base total (``load`` *is* ``vols * inv_bw`` there,
        and plain ``vols`` in message mode).
        """
        load = self._load()
        n_used = int(np.count_nonzero(self.msgs > 0))
        total_base = load.sum()
        mc = float(load.max()) if n_used else 0.0
        ac = float(total_base / n_used) if n_used else 0.0
        top = int(np.argmax(load))
        base_used = int(np.count_nonzero(self.msgs > _EPS))
        return load, mc, ac, top, float(total_base), base_used

    def swap_improves(self, t1: int, t2: int) -> bool:
        """Virtual swap: does MC improve — or AC at equal MC?"""
        links, dm, dv = self._swap_deltas(t1, t2)
        if links.size == 0:
            return False
        load, mc, ac, top, total_base, base_used = self._probe_context()
        bounds = np.asarray([0, links.shape[0]], dtype=np.int64)
        return bool(
            self._verdicts(
                links, dm, dv, bounds, load, mc, ac, top, total_base, base_used
            )[0]
        )

    def _verdict(
        self,
        links: np.ndarray,
        dm: np.ndarray,
        dv: np.ndarray,
        load: np.ndarray,
        mc: float,
        ac: float,
        top: int,
        total_base: float,
        base_used: int,
    ) -> bool:
        """The scalar accept rule on precomputed deltas (Algorithm 3)."""
        if links.size == 0:
            return False
        new_changed = (
            (self.vols[links] + dv) * self._inv_bw[links]
            if self.metric == "volume"
            else self.vols[links] + dv
        )
        # Max over unchanged links: cheap when the argmax is untouched.
        if top in set(links.tolist()):
            mask = np.ones(load.shape[0], dtype=bool)
            mask[links] = False
            max_unchanged = float(load[mask].max()) if mask.any() else 0.0
        else:
            max_unchanged = float(load[top])
        new_mc = max(
            max_unchanged, float(new_changed.max()) if new_changed.size else 0.0
        )
        if new_mc < mc - _EPS:
            return True
        if new_mc > mc + _EPS:
            return False
        # Equal MC: accept on AC improvement.  The used-link count only
        # changes on the touched links, so adjust the global count by
        # their before/after difference.
        seg = self.msgs[links]
        used_new = base_used + int(
            np.count_nonzero(seg + dm > _EPS) - np.count_nonzero(seg > _EPS)
        )
        if self.metric == "volume":
            total_new = total_base + float((dv * self._inv_bw[links]).sum())
        else:
            total_new = total_base + float(dv.sum())
        new_ac = total_new / used_new if used_new else 0.0
        return new_ac < ac - _EPS

    def _verdicts(
        self,
        ul: np.ndarray,
        dm: np.ndarray,
        dv: np.ndarray,
        bounds: np.ndarray,
        load: np.ndarray,
        mc: float,
        ac: float,
        top: int,
        total_base: float,
        base_used: int,
    ) -> np.ndarray:
        """Accept verdicts of many candidates (``bounds`` slices ul/dm/dv).

        The single dispatch point of the accept rule: the scalar probe
        (:meth:`swap_improves`, K=1) and the batched Δ-kernel
        (:meth:`evaluate_swaps`) both land here, so the two paths
        always share the exact same arithmetic: the per-candidate
        :meth:`_verdict` rule.
        """
        K = bounds.shape[0] - 1
        out = np.zeros(K, dtype=bool)
        for k in range(K):
            s, e = bounds[k], bounds[k + 1]
            out[k] = self._verdict(
                ul[s:e], dm[s:e], dv[s:e], load, mc, ac, top, total_base, base_used
            )
        return out

    # ------------------------------------------------------------------
    # batched candidate evaluation (the Δ-kernel)
    # ------------------------------------------------------------------
    def evaluate_swaps(self, t1: int, cands: np.ndarray) -> np.ndarray:
        """Score swapping *t1* against every candidate in one shot.

        Returns ``bool[K]`` — candidate *k*'s verdict equals
        ``swap_improves(t1, cands[k])`` — with one ``routes_bulk`` call
        for all candidates' moved edges (old-route deltas are gathered
        from the cached table) instead of two enumerations per
        candidate.  The per-candidate deltas and replacement segments
        are stashed so a following :meth:`commit_swap` of any candidate
        reuses them instead of re-deriving (zero routing work per
        commit).
        """
        self._eval_stash = None
        cands = np.asarray(cands, dtype=np.int64)
        K = cands.shape[0]
        out = np.zeros(K, dtype=bool)
        if K == 0:
            return out
        m = self.src_t.shape[0]
        nl = self.torus.num_links

        # -- per-candidate unique incident edge sets (composite keys) --
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
        comp = np.unique(comp)
        k_of = comp // m
        e_of = comp % m

        # -- old-route deltas from the cached segments -----------------
        r_lo = self.routes.ptr[e_of]
        r_cnt = self.routes.ptr[e_of + 1] - r_lo
        old_links = _gather_segments(self.routes.links, r_lo, r_cnt)
        old_k = np.repeat(k_of, r_cnt)
        old_vol = np.repeat(self.vol[e_of], r_cnt)

        # -- new routes: one bulk enumeration over all candidates ------
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
        links_n, msg_n = routes_bulk(self.torus, new_src[keep], new_dst[keep])
        new_k = k_of[keep][msg_n]
        new_vol = self.vol[e_of][keep][msg_n]

        # -- per-(candidate, link) sparse deltas -----------------------
        comp_links = np.concatenate([old_k * nl + old_links, new_k * nl + links_n])
        if comp_links.size == 0:
            return out
        d_msg = np.concatenate(
            [
                -np.ones_like(old_links, dtype=np.float64),
                np.ones_like(links_n, dtype=np.float64),
            ]
        )
        d_vol = np.concatenate([-old_vol, new_vol])
        uniq, inv = np.unique(comp_links, return_inverse=True)
        dm = np.bincount(inv, weights=d_msg, minlength=uniq.shape[0])
        dv = np.bincount(inv, weights=d_vol, minlength=uniq.shape[0])
        uk = uniq // nl
        ul = uniq % nl
        bounds = np.searchsorted(uk, np.arange(K + 1))

        # -- stash per-candidate commit payloads -----------------------
        # Everything a commit needs is already here: the unique-link
        # deltas per candidate (``ul``/``dm``/``dv`` sliced by
        # ``bounds``) and the replacement CSR segments, reordered
        # pair-major exactly like ``_swap_route_delta`` builds them.
        # The slices reproduce the scalar derivation bit for bit — same
        # unique-link order, same bincount accumulation order.
        order_n = np.argsort(msg_n, kind="stable")
        kept_total = int(keep.sum())
        kept_counts = np.bincount(msg_n, minlength=kept_total)
        msg_ptr = np.zeros(kept_total + 1, dtype=np.int64)
        np.cumsum(kept_counts, out=msg_ptr[1:])
        kept_k = k_of[keep]
        self._eval_stash = {
            "t1": int(t1),
            "cands": cands,
            "ul": ul,
            "dm": dm,
            "dv": dv,
            "bounds": bounds,
            "e_of": e_of,
            "edge_bounds": np.searchsorted(k_of, np.arange(K + 1)),
            "kept_e": e_of[keep],
            "kept_counts": kept_counts,
            "msg_bounds": np.searchsorted(kept_k, np.arange(K + 1)),
            "msg_ptr": msg_ptr,
            "sorted_new_links": links_n[order_n],
        }

        # -- verdicts (accept rule per candidate; K ≤ Δ) ---------------
        load, mc, ac, top, total_base, base_used = self._probe_context()
        return self._verdicts(
            ul, dm, dv, bounds, load, mc, ac, top, total_base, base_used
        )

    # ------------------------------------------------------------------
    # commits
    # ------------------------------------------------------------------
    def _stashed_commit_payload(self, t1: int, t2: int):
        """The last ``evaluate_swaps`` batch's payload for (t1, t2), if any.

        Returns the same six-tuple ``_swap_route_delta`` derives —
        unique-link deltas plus replacement CSR segments — sliced out of
        the stashed batch, or ``None`` when the pair was not in the
        batch (the scalar probe path, or a foreign swap).
        """
        stash = self._eval_stash
        if stash is None or stash["t1"] != int(t1):
            return None
        hit = np.flatnonzero(stash["cands"] == int(t2))
        if hit.size == 0:
            return None
        k = int(hit[0])
        s, e = int(stash["bounds"][k]), int(stash["bounds"][k + 1])
        es, ee = int(stash["edge_bounds"][k]), int(stash["edge_bounds"][k + 1])
        edges = stash["e_of"][es:ee]
        ms, me = int(stash["msg_bounds"][k]), int(stash["msg_bounds"][k + 1])
        new_links = stash["sorted_new_links"][
            stash["msg_ptr"][ms] : stash["msg_ptr"][me]
        ]
        new_counts = np.zeros(edges.shape[0], dtype=np.int64)
        if me > ms:
            pos = np.searchsorted(edges, stash["kept_e"][ms:me])
            new_counts[pos] = stash["kept_counts"][ms:me]
        return (
            stash["ul"][s:e],
            stash["dm"][s:e],
            stash["dv"][s:e],
            edges,
            new_links,
            new_counts,
        )

    def commit_swap(self, t1: int, t2: int) -> None:
        """Apply the swap: exact sparse load deltas + route-table splice.

        The per-link deltas are exact (see the delta-vs-rebuild property
        test), so the load arrays update in O(deg·D); the incident
        edges' new routes are spliced into the shared table and the
        ``commTasks`` index refreshes on its cadence — nothing is ever
        re-enumerated from scratch.  When the swap was scored by the
        preceding :meth:`evaluate_swaps` batch, the winning candidate's
        deltas and replacement segments are reused verbatim, eliding
        even the single ``routes_bulk`` pass ``_swap_route_delta`` would
        spend.
        """
        payload = self._stashed_commit_payload(t1, t2)
        if payload is None:
            payload = self._swap_route_delta(t1, t2)
        links, dm, dv, edges, new_links, new_counts = payload
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
        self._eval_stash = None  # Γ changed: stale candidate deltas
        self._commits_since_refresh += 1
        if self._commits_since_refresh >= self.refresh_interval:
            self._refresh_comm_index()
