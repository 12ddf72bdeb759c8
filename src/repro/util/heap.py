"""Addressable binary max-heap over dense integer ids.

Two of the paper's mapping algorithms rely on priority queues whose
entries must be *updated in place*:

* Algorithm 1 keeps a max-heap ``conn`` of the total connectivity of each
  unmapped task to the already-mapped tasks, and calls
  ``conn.update(t, c(t_best, t))`` whenever a neighbour is mapped
  (:mod:`repro.mapping.greedy`).
* Algorithm 2 keeps ``whHeap``, a max-heap of per-task weighted-hop
  contributions, updated after every swap (:mod:`repro.mapping.refine_wh`,
  :mod:`repro.mapping.refine_fine`).

The classic :mod:`heapq` module cannot update keys, so
:class:`IntKeyMaxHeap` keeps a position index over flat arrays.  Ties are
broken deterministically by a monotonically increasing insertion counter
so that runs are reproducible across platforms.  The partitioner's FM
refinement and greedy graph growing use :mod:`heapq` with lazy deletion
instead, which pops in the same order (max priority, then earliest
insertion).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = ["IntKeyMaxHeap"]


class IntKeyMaxHeap:
    """Array-backed addressable max-heap over a dense int id space.

    Items are integers in ``[0, capacity)`` — the case of ``conn`` (task
    ids) in Algorithm 1 and ``whHeap`` in Algorithm 2.  State lives in four flat arrays
    (float64 priorities, int64 tie-breaks, int32 positions, int32 heap
    order), so no per-entry tuples or dict buckets are allocated and a
    full heap can be bulk-built from a priority vector in O(n)
    (:meth:`from_priorities`).

    Among equal priorities the earliest-inserted item pops first.  Because
    ``(priority, tiebreak)`` is a total order, the pop sequence is
    independent of the internal array layout — bulk heapify and
    incremental inserts yield identical runs.
    """

    __slots__ = ("_prio", "_tie", "_pos", "_heap", "_size", "_counter")

    def __init__(self, capacity: int) -> None:
        capacity = int(capacity)
        self._prio = np.zeros(capacity, dtype=np.float64)
        self._tie = np.zeros(capacity, dtype=np.int64)
        self._pos = np.full(capacity, -1, dtype=np.int32)
        self._heap = np.empty(capacity, dtype=np.int32)
        self._size = 0
        self._counter = 0

    @classmethod
    def from_priorities(cls, priorities) -> "IntKeyMaxHeap":
        """Heap holding items ``0..n-1`` at the given priorities (O(n)).

        Equivalent to inserting the items in id order, so ties pop
        lowest-id first — the order every pass of Algorithm 2 uses.
        """
        p = np.asarray(priorities, dtype=np.float64)
        n = p.shape[0]
        h = cls(n)
        h._prio[:] = p
        h._tie[:] = -np.arange(1, n + 1, dtype=np.int64)
        h._counter = n
        h._heap[:] = np.arange(n, dtype=np.int32)
        h._pos[:] = np.arange(n, dtype=np.int32)
        h._size = n
        for i in range((n >> 1) - 1, -1, -1):
            h._sift_down(i)
        return h

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, item: int) -> bool:
        # Negative ids are never members (a bare _pos[item] would wrap
        # around and report some other item's membership).
        return item >= 0 and self._pos[item] >= 0

    def priority(self, item: int) -> float:
        if item < 0 or self._pos[item] < 0:
            raise KeyError(item)
        return float(self._prio[item])

    def peek(self) -> Tuple[int, float]:
        if self._size == 0:
            raise IndexError("peek from an empty heap")
        item = int(self._heap[0])
        return item, float(self._prio[item])

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, item: int, priority: float) -> None:
        if item < 0:
            raise IndexError(f"item ids must be non-negative, got {item}")
        if self._pos[item] >= 0:
            raise ValueError(f"item {item!r} already in heap")
        self._counter += 1
        self._prio[item] = priority
        self._tie[item] = -self._counter
        idx = self._size
        self._heap[idx] = item
        self._pos[item] = idx
        self._size += 1
        self._sift_up(idx)

    def pop(self) -> Tuple[int, float]:
        if self._size == 0:
            raise IndexError("pop from an empty heap")
        item = int(self._heap[0])
        prio = float(self._prio[item])
        self._remove_at(0)
        return item, prio

    def remove(self, item: int) -> float:
        if item < 0:
            raise KeyError(item)
        idx = int(self._pos[item])
        if idx < 0:
            raise KeyError(item)
        prio = float(self._prio[item])
        self._remove_at(idx)
        return prio

    def update(self, item: int, priority: float) -> None:
        idx = int(self._pos[item]) if item >= 0 else -1
        if idx < 0:
            self.insert(item, priority)  # raises IndexError for item < 0
            return
        old = float(self._prio[item])
        self._prio[item] = priority
        if priority > old:
            self._sift_up(idx)
        elif priority < old:
            self._sift_down(idx)

    def increase(self, item: int, delta: float) -> None:
        idx = int(self._pos[item]) if item >= 0 else -1
        if idx < 0:
            self.insert(item, delta)  # raises IndexError for item < 0
            return
        self._prio[item] += delta
        if delta > 0:
            self._sift_up(idx)
        elif delta < 0:
            self._sift_down(idx)

    def clear(self) -> None:
        self._pos[:] = -1
        self._size = 0

    def items(self) -> List[Tuple[int, float]]:
        """Snapshot of ``(item, priority)`` pairs in arbitrary order."""
        live = self._heap[: self._size]
        return [(int(i), float(self._prio[i])) for i in live]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _greater(self, a: int, b: int) -> bool:
        """Does item *a* outrank item *b* in pop order?"""
        pa = self._prio[a]
        pb = self._prio[b]
        if pa != pb:
            return pa > pb
        return self._tie[a] > self._tie[b]

    def _remove_at(self, idx: int) -> None:
        heap, pos = self._heap, self._pos
        pos[heap[idx]] = -1
        self._size -= 1
        last = heap[self._size]
        if idx < self._size:
            heap[idx] = last
            pos[last] = idx
            self._sift_up(idx)
            self._sift_down(idx)

    def _sift_up(self, idx: int) -> None:
        heap, pos = self._heap, self._pos
        item = int(heap[idx])
        while idx > 0:
            parent = (idx - 1) >> 1
            other = int(heap[parent])
            if self._greater(item, other):
                heap[idx] = other
                pos[other] = idx
                idx = parent
            else:
                break
        heap[idx] = item
        pos[item] = idx

    def _sift_down(self, idx: int) -> None:
        heap, pos = self._heap, self._pos
        n = self._size
        item = int(heap[idx])
        while True:
            left = 2 * idx + 1
            if left >= n:
                break
            best = left
            right = left + 1
            if right < n and self._greater(int(heap[right]), int(heap[left])):
                best = right
            child = int(heap[best])
            if self._greater(child, item):
                heap[idx] = child
                pos[child] = idx
                idx = best
            else:
                break
        heap[idx] = item
        pos[item] = idx

    def validate(self) -> bool:
        """Check the heap invariant and position index (for tests)."""
        for i in range(1, self._size):
            if self._greater(int(self._heap[i]), int(self._heap[(i - 1) >> 1])):
                return False
        live = set()
        for i in range(self._size):
            item = int(self._heap[i])
            if self._pos[item] != i:
                return False
            live.add(item)
        return int(np.count_nonzero(self._pos >= 0)) == len(live) == self._size
