"""Direct k-way refinement on hypergraph communication metrics.

The seven partitioners of the paper differ in *what they minimize*
(Sec. IV-A): SCOTCH/KaFFPa the edge-cut, METIS/PaToH the total volume TV,
and the UMPA variants prioritized combinations — UMPA-MV (MSV, then TV),
UMPA-MM (MSM, TM, TV), UMPA-TM (TM, TV).  This module provides the
move-based k-way refinement those personalities run after the common
recursive-bisection engine, with *exact incremental maintenance* of:

* ``σ(j, p)`` — pins of net j in part p (hence λ_j and TV);
* ``sendvol[p]`` — Σ over nets owned by p of ``c_j (λ_j − 1)`` (MSV);
* ``cnt[p, q]`` — nets owned by p reaching part q (hence TM and MSM).

Owner semantics follow the column-net model: net ``j`` is owned by the
part of row ``j`` (its x-vector entry), and row ``j`` is always one of net
``j``'s pins, which guarantees the owner's part is never evacuated by a
move of a different vertex — the invariant the incremental updates rely on.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hypergraph.model import Hypergraph

__all__ = ["KWayState", "refine_kway", "Objective"]

# Objective components, in the order their deltas are packed.
_TV, _MSV, _TM, _MSM = 0, 1, 2, 3

#: Named priority lists (lexicographic) per partitioner personality.
Objective = Tuple[int, ...]
OBJECTIVES: Dict[str, Objective] = {
    "tv": (_TV,),
    "msv_tv": (_MSV, _TV),
    "msm_tm_tv": (_MSM, _TM, _TV),
    "tm_tv": (_TM, _TV),
}


class KWayState:
    """Incrementally maintained communication state of a k-way partition.

    Every per-vertex and per-part quantity the move loops read — ``part``,
    ``loads``, ``sendvol``, ``sendmsg``, ``cnt`` and each vertex's net
    list — is a plain Python list, so a move evaluation indexes no array.
    """

    def __init__(self, h: Hypergraph, part: np.ndarray, num_parts: int) -> None:
        self.h = h
        self.k = int(num_parts)
        part = np.asarray(part, dtype=np.int64)
        if part.shape[0] != h.num_vertices:
            raise ValueError("part vector length mismatch")
        if h.num_nets != h.num_vertices:
            raise ValueError(
                "owner-aware refinement requires a square column-net model "
                f"(nets={h.num_nets}, vertices={h.num_vertices})"
            )
        # The incremental updates rely on row j pinning net j (structural
        # diagonal); verify once, vectorized.
        net_ptr, net_ids = h.vertex_incidence()
        rows = np.repeat(np.arange(h.num_vertices), np.diff(net_ptr))
        if np.unique(rows[net_ids == rows]).size != h.num_vertices:
            raise ValueError("net j must pin vertex j (missing structural diagonal)")
        ids, ptr = net_ids.tolist(), net_ptr.tolist()
        self._nets: List[List[int]] = [ids[ptr[v] : ptr[v + 1]] for v in range(h.num_vertices)]
        self._costs: List[float] = h.net_costs.tolist()
        self._vloads: List[float] = h.loads.tolist()
        self.part: List[int] = part.tolist()
        # σ(j, ·) as one small dict per net.
        pin_parts = part[h.pin_ids].tolist()
        pin_ptr = h.pin_ptr.tolist()
        self.sigma: List[Dict[int, int]] = [
            Counter(pin_parts[pin_ptr[j] : pin_ptr[j + 1]]) for j in range(h.num_nets)
        ]
        self.lam: List[int] = [len(d) for d in self.sigma]
        lam = np.array(self.lam, dtype=np.int64)
        costs = h.net_costs
        self.tv = float(np.sum(costs * np.maximum(lam - 1, 0)))
        # Owner-side aggregates (net j is owned by row j's part).
        self.sendvol: List[float] = np.bincount(
            part, weights=costs * (lam - 1), minlength=self.k
        ).tolist()
        nets, parts = h.net_part_pairs(part, self.k)
        owners = part[nets]
        off = parts != owners
        cnt = np.bincount(owners[off] * self.k + parts[off], minlength=self.k * self.k)
        cnt = cnt.reshape(self.k, self.k)
        self.cnt: List[List[int]] = cnt.tolist()
        self.sendmsg: List[int] = (cnt > 0).sum(axis=1).tolist()
        self.tm = sum(self.sendmsg)
        self.loads: List[float] = np.bincount(part, weights=h.loads, minlength=self.k).tolist()

    # ------------------------------------------------------------------
    @property
    def msv(self) -> float:
        return float(max(self.sendvol)) if self.k else 0.0

    @property
    def msm(self) -> int:
        return int(max(self.sendmsg)) if self.k else 0

    def metrics(self) -> Dict[str, float]:
        return {"TV": self.tv, "MSV": self.msv, "TM": float(self.tm), "MSM": float(self.msm)}

    def candidate_parts(self, v: int, limit: int = 6) -> List[int]:
        """Parts connected to *v* through its nets, strongest first."""
        conn: Dict[int, float] = {}
        a = self.part[v]
        lam, sigma, costs = self.lam, self.sigma, self._costs
        for j in self._nets[v]:
            if lam[j] == 1:
                continue  # uncut: net j's only part is v's own
            c = costs[j]
            for p in sigma[j]:
                if p != a:
                    conn[p] = conn.get(p, 0.0) + c
        ranked = sorted([(-c, p) for p, c in conn.items()])
        return [p for _, p in ranked[:limit]]

    # ------------------------------------------------------------------
    def eval_move(
        self, v: int, b: int, priorities: Objective = (_TV, _MSV, _TM, _MSM)
    ) -> Tuple[float, float, int, int]:
        """Deltas ``(dTV, dMSV, dTM, dMSM)`` if *v* moved to part *b*.

        Pure evaluation — no state changes.  Only the components named in
        *priorities* are computed; the others are reported as 0.  Max-metric
        deltas compare the would-be maxima against the current ones using
        only the affected parts, then fall back to a full scan when the
        current argmax decreases (exactness over speed; K is at most ~1k).
        """
        part = self.part
        a = part[v]
        if b == a:
            return (0.0, 0.0, 0, 0)
        want_msv = _MSV in priorities
        want_cnt = _TM in priorities or _MSM in priorities
        d_tv = 0.0
        d_sendvol: Dict[int, float] = {}
        d_cnt: Dict[Tuple[int, int], int] = {}
        for j in self._nets[v]:
            c = self._costs[j]
            s = self.sigma[j]
            a_left = s[a] == 1
            b_new = b not in s
            if a_left:
                d_tv -= c
            if b_new:
                d_tv += c
            if not (want_msv or want_cnt):
                continue
            o = part[j]
            if j == v:
                # Owner relocation: retract a's contributions, grant b's.
                lam_new = self.lam[j] - (1 if a_left else 0) + (1 if b_new else 0)
                d_sendvol[a] = d_sendvol.get(a, 0.0) - c * (self.lam[j] - 1)
                d_sendvol[b] = d_sendvol.get(b, 0.0) + c * (lam_new - 1)
                new_parts = set(s)
                if a_left:
                    new_parts.discard(a)
                new_parts.add(b)
                for q in s:
                    if q != a:
                        d_cnt[(a, q)] = d_cnt.get((a, q), 0) - 1
                for q in new_parts:
                    if q != b:
                        d_cnt[(b, q)] = d_cnt.get((b, q), 0) + 1
            else:
                if a_left:
                    # o != a is structurally guaranteed (row j pins net j).
                    d_cnt[(o, a)] = d_cnt.get((o, a), 0) - 1
                    d_sendvol[o] = d_sendvol.get(o, 0.0) - c
                if b_new:
                    # b == o is impossible here: row j pins net j, so the
                    # owner's part always holds at least one pin.
                    d_cnt[(o, b)] = d_cnt.get((o, b), 0) + 1
                    d_sendvol[o] = d_sendvol.get(o, 0.0) + c
        d_msv = self._max_delta(self.sendvol, d_sendvol, float(self.msv)) if want_msv else 0.0
        if not want_cnt:
            return (d_tv, d_msv, 0, 0)

        # ΔTM / Δsendmsg from cnt transitions through zero.
        d_sendmsg: Dict[int, int] = {}
        d_tm = 0
        for (p, q), dv in d_cnt.items():
            if dv == 0:
                continue
            old = self.cnt[p][q]
            new = old + dv
            if old == 0 and new > 0:
                d_tm += 1
                d_sendmsg[p] = d_sendmsg.get(p, 0) + 1
            elif old > 0 and new == 0:
                d_tm -= 1
                d_sendmsg[p] = d_sendmsg.get(p, 0) - 1

        d_msm = self._max_delta(self.sendmsg, d_sendmsg, float(self.msm))
        return (d_tv, d_msv, d_tm, int(round(d_msm)))

    @staticmethod
    def _max_delta(values: List[float], deltas: Dict[int, float], cur_max: float) -> float:
        if not deltas:
            return 0.0
        affected_new = max(values[p] + dv for p, dv in deltas.items())
        # If some affected part now exceeds everything, that's the new max.
        if affected_new >= cur_max:
            return affected_new - cur_max
        # Otherwise the max can only drop if *all* current argmaxes were
        # affected; recompute exactly.
        floor = cur_max - 1e-12
        if not all(p in deltas for p, x in enumerate(values) if x >= floor):
            return 0.0
        tmp = list(values)
        for p, dv in deltas.items():
            tmp[p] += dv
        return float(max(tmp)) - cur_max

    # ------------------------------------------------------------------
    def apply_move(self, v: int, b: int) -> None:
        """Commit the move of *v* to part *b*, updating all aggregates."""
        part, sendvol = self.part, self.sendvol
        a = part[v]
        if b == a:
            return
        for j in self._nets[v]:
            c = self._costs[j]
            s = self.sigma[j]
            o = part[j]
            if j == v:
                sendvol[a] -= c * (self.lam[j] - 1)
                for q in s:
                    if q != a:
                        self._dec_cnt(a, q)
            s[a] -= 1
            a_left = s[a] == 0
            if a_left:
                del s[a]
                self.lam[j] -= 1
                self.tv -= c
            if b in s:
                s[b] += 1
                b_new = False
            else:
                s[b] = 1
                self.lam[j] += 1
                self.tv += c
                b_new = True
            if j == v:
                sendvol[b] += c * (self.lam[j] - 1)
                for q in s:
                    if q != b:
                        self._inc_cnt(b, q)
            else:
                if a_left:
                    self._dec_cnt(o, a)
                    sendvol[o] -= c
                if b_new and o != b:
                    self._inc_cnt(o, b)
                    sendvol[o] += c
        self.loads[a] -= self._vloads[v]
        self.loads[b] += self._vloads[v]
        part[v] = b

    def _inc_cnt(self, p: int, q: int) -> None:
        row = self.cnt[p]
        if row[q] == 0:
            self.sendmsg[p] += 1
            self.tm += 1
        row[q] += 1

    def _dec_cnt(self, p: int, q: int) -> None:
        row = self.cnt[p]
        row[q] -= 1
        if row[q] == 0:
            self.sendmsg[p] -= 1
            self.tm -= 1
        if row[q] < 0:  # pragma: no cover - invariant guard
            raise AssertionError("cnt went negative; incremental update bug")

    # ------------------------------------------------------------------
    def validate(self) -> bool:
        """Recompute everything from scratch and compare (for tests)."""
        fresh = KWayState(self.h, np.asarray(self.part), self.k)
        return (
            abs(fresh.tv - self.tv) < 1e-6
            and np.allclose(fresh.sendvol, self.sendvol)
            and fresh.cnt == self.cnt
            and fresh.tm == self.tm
            and fresh.sendmsg == self.sendmsg
            and np.allclose(fresh.loads, self.loads)
        )


def _lex_better(deltas: Sequence[float], priorities: Objective) -> bool:
    """True if the prioritized delta vector is lexicographically negative."""
    for idx in priorities:
        d = deltas[idx]
        if d < -1e-12:
            return True
        if d > 1e-12:
            return False
    return False


def refine_kway(
    h: Hypergraph,
    part: np.ndarray,
    num_parts: int,
    objective: str,
    *,
    passes: int = 2,
    tolerance: float = 0.05,
    targets: Optional[np.ndarray] = None,
    candidate_limit: int = 6,
) -> np.ndarray:
    """Move-based k-way refinement of *part* for a named *objective*.

    Each pass sweeps the boundary vertices in id order, moving a vertex to
    the candidate part with the lexicographically best improving delta,
    subject to the balance constraint ``load ≤ target·(1+tolerance)``.
    Stops early when a pass makes no move.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; use one of {sorted(OBJECTIVES)}")
    priorities = OBJECTIVES[objective]
    state = KWayState(h, part, num_parts)
    if targets is None:
        targets = np.full(num_parts, h.loads.sum() / num_parts)
    limits = (np.asarray(targets, dtype=np.float64) * (1.0 + tolerance)).tolist()
    loads, vloads = state.loads, state._vloads

    for _ in range(passes):
        moved = 0
        for v in range(h.num_vertices):
            # Only boundary vertices have candidate parts.
            best_b = -1
            best_deltas: Optional[Tuple[float, float, int, int]] = None
            for b in state.candidate_parts(v, candidate_limit):
                if loads[b] + vloads[v] > limits[b]:
                    continue
                deltas = state.eval_move(v, b, priorities)
                if not _lex_better(deltas, priorities):
                    continue
                if best_deltas is None or _lex_better(
                    tuple(d - bd for d, bd in zip(deltas, best_deltas)), priorities
                ):
                    best_deltas = deltas
                    best_b = b
            if best_b >= 0:
                state.apply_move(v, best_b)
                moved += 1
        if moved == 0:
            break
    return np.array(state.part, dtype=np.int64)
