"""Addressable binary heaps.

All three mapping algorithms of the paper rely on priority queues whose
entries must be *updated in place*:

* Algorithm 1 keeps a max-heap ``conn`` of the total connectivity of each
  unmapped task to the already-mapped tasks, and calls
  ``conn.update(t, c(t_best, t))`` whenever a neighbour is mapped.
* Algorithm 2 keeps ``whHeap``, a max-heap of per-task weighted-hop
  contributions, updated after every swap.
* Algorithm 3 keeps ``congHeap``, a max-heap of per-link congestions.

The classic :mod:`heapq` module cannot update keys, so we implement a small
addressable binary heap with a position index.  Keys are arbitrary hashable
items; priorities are floats.  Ties are broken deterministically by a
monotonically increasing insertion counter so that runs are reproducible
across platforms.

The heaps here are used on *coarse* graphs (one vertex per allocated node),
so they hold at most a few thousand entries; a pure-Python implementation is
more than fast enough and keeps the hot NumPy paths elsewhere uncluttered.

Who still needs an addressable heap:

* :class:`IntKeyMaxHeap` — Algorithm 1's ``conn``
  (:mod:`repro.mapping.greedy`) and Algorithm 2's ``whHeap``
  (:mod:`repro.mapping.refine_wh`, :mod:`repro.mapping.refine_fine`).
* :class:`AddressableMaxHeap` / :class:`AddressableMinHeap` — no mapping or
  partitioning code any more.  The partitioner's FM refinement and greedy
  graph growing use :mod:`heapq` with lazy deletion, which pops in the
  same order (max priority, then earliest insertion).  They stay as the
  hashable-key API exported by :mod:`repro.util` and as the reference
  the :class:`IntKeyMaxHeap` tests compare against.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

__all__ = ["AddressableMaxHeap", "AddressableMinHeap", "IntKeyMaxHeap"]


class AddressableMaxHeap:
    """Binary max-heap with O(log n) insert/pop/update and O(1) lookup.

    Entries are ``(priority, tiebreak, item)`` triples stored in an array
    ``_a`` with a companion ``item -> index`` map ``_pos``.  ``tiebreak`` is
    a sequence number: among equal priorities the *earliest inserted* item
    wins, which pins down the otherwise unspecified pop order of the paper's
    C++ heaps and makes every experiment deterministic.

    Examples
    --------
    >>> h = AddressableMaxHeap()
    >>> h.insert("a", 1.0); h.insert("b", 3.0); h.insert("c", 2.0)
    >>> h.pop()
    ('b', 3.0)
    >>> h.update("a", 10.0)        # absolute update
    >>> h.increase("c", 9.5)       # additive update
    >>> h.pop()
    ('c', 11.5)
    """

    __slots__ = ("_a", "_pos", "_counter")

    def __init__(self) -> None:
        self._a: List[Tuple[float, int, Any]] = []
        self._pos: Dict[Any, int] = {}
        self._counter = 0

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._a)

    def __bool__(self) -> bool:
        return bool(self._a)

    def __contains__(self, item: Any) -> bool:
        return item in self._pos

    def __iter__(self) -> Iterator[Any]:
        """Iterate over items in arbitrary (heap) order."""
        for _, _, item in self._a:
            yield item

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def priority(self, item: Any) -> float:
        """Return the current priority of *item* (KeyError if absent)."""
        return self._a[self._pos[item]][0]

    def peek(self) -> Tuple[Any, float]:
        """Return ``(item, priority)`` of the maximum without removing it."""
        if not self._a:
            raise IndexError("peek from an empty heap")
        prio, _, item = self._a[0]
        return item, prio

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, item: Any, priority: float) -> None:
        """Insert *item*; raises ValueError if it is already present."""
        if item in self._pos:
            raise ValueError(f"item {item!r} already in heap")
        self._counter += 1
        self._a.append((float(priority), -self._counter, item))
        self._pos[item] = len(self._a) - 1
        self._sift_up(len(self._a) - 1)

    def pop(self) -> Tuple[Any, float]:
        """Remove and return ``(item, priority)`` with the maximum priority."""
        if not self._a:
            raise IndexError("pop from an empty heap")
        prio, _, item = self._a[0]
        self._remove_at(0)
        return item, prio

    def remove(self, item: Any) -> float:
        """Remove *item*, returning its priority (KeyError if absent)."""
        idx = self._pos[item]
        prio = self._a[idx][0]
        self._remove_at(idx)
        return prio

    def update(self, item: Any, priority: float) -> None:
        """Set the priority of *item* to an absolute value (insert if new)."""
        if item not in self._pos:
            self.insert(item, priority)
            return
        idx = self._pos[item]
        old, tie, _ = self._a[idx]
        self._a[idx] = (float(priority), tie, item)
        if priority > old:
            self._sift_up(idx)
        elif priority < old:
            self._sift_down(idx)

    def increase(self, item: Any, delta: float) -> None:
        """Add *delta* to the priority of *item* (insert at *delta* if new).

        This is exactly the ``conn.update(tn, c(t0, tn))`` accumulation of
        Algorithm 1: connectivity is summed over mapped neighbours.
        """
        if item not in self._pos:
            self.insert(item, delta)
        else:
            self.update(item, self.priority(item) + delta)

    def clear(self) -> None:
        self._a.clear()
        self._pos.clear()

    def items(self) -> List[Tuple[Any, float]]:
        """Snapshot of ``(item, priority)`` pairs in arbitrary order."""
        return [(item, prio) for prio, _, item in self._a]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _remove_at(self, idx: int) -> None:
        a = self._a
        del self._pos[a[idx][2]]
        last = a.pop()
        if idx < len(a):
            a[idx] = last
            self._pos[last[2]] = idx
            # Restore invariant in whichever direction is needed.
            self._sift_up(idx)
            self._sift_down(idx)

    def _sift_up(self, idx: int) -> None:
        a, pos = self._a, self._pos
        entry = a[idx]
        while idx > 0:
            parent = (idx - 1) >> 1
            if a[parent] < entry:
                a[idx] = a[parent]
                pos[a[idx][2]] = idx
                idx = parent
            else:
                break
        a[idx] = entry
        pos[entry[2]] = idx

    def _sift_down(self, idx: int) -> None:
        a, pos = self._a, self._pos
        n = len(a)
        entry = a[idx]
        while True:
            left = 2 * idx + 1
            if left >= n:
                break
            best = left
            right = left + 1
            if right < n and a[right] > a[left]:
                best = right
            if a[best] > entry:
                a[idx] = a[best]
                pos[a[idx][2]] = idx
                idx = best
            else:
                break
        a[idx] = entry
        pos[entry[2]] = idx

    def validate(self) -> bool:
        """Check the heap invariant and position index (for tests)."""
        a = self._a
        for i in range(1, len(a)):
            if a[(i - 1) >> 1] < a[i]:
                return False
        for item, idx in self._pos.items():
            if a[idx][2] != item:
                return False
        return len(self._pos) == len(a)


class IntKeyMaxHeap:
    """Array-backed addressable max-heap over a dense int id space.

    Drop-in for :class:`AddressableMaxHeap` when items are integers in
    ``[0, capacity)`` — the case of ``conn`` (task ids) in Algorithm 1
    and ``whHeap`` in Algorithm 2.  State lives in four flat arrays
    (float64 priorities, int64 tie-breaks, int32 positions, int32 heap
    order), so no per-entry tuples or dict buckets are allocated and a
    full heap can be bulk-built from a priority vector in O(n)
    (:meth:`from_priorities`).

    Tie-breaking matches :class:`AddressableMaxHeap` exactly: among equal
    priorities the earliest-inserted item pops first.  Because
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


class AddressableMinHeap:
    """Min-heap facade over :class:`AddressableMaxHeap` (priority negation).

    Used where the smallest value must pop first (e.g. candidate-node
    selection by weighted-hop overhead in ``GETBESTNODE`` tie handling).
    """

    __slots__ = ("_h",)

    def __init__(self) -> None:
        self._h = AddressableMaxHeap()

    def __len__(self) -> int:
        return len(self._h)

    def __bool__(self) -> bool:
        return bool(self._h)

    def __contains__(self, item: Any) -> bool:
        return item in self._h

    def insert(self, item: Any, priority: float) -> None:
        self._h.insert(item, -float(priority))

    def pop(self) -> Tuple[Any, float]:
        item, prio = self._h.pop()
        return item, -prio

    def peek(self) -> Tuple[Any, float]:
        item, prio = self._h.peek()
        return item, -prio

    def priority(self, item: Any) -> float:
        return -self._h.priority(item)

    def update(self, item: Any, priority: float) -> None:
        self._h.update(item, -float(priority))

    def remove(self, item: Any) -> float:
        return -self._h.remove(item)

    def clear(self) -> None:
        self._h.clear()

    def items(self) -> List[Tuple[Any, float]]:
        return [(item, -prio) for item, prio in self._h.items()]

    def validate(self) -> bool:
        return self._h.validate()
