"""Bucketed timer wheel: the simulator's future-event store.

The legacy agenda was one global binary heap, which charges O(log n)
for *every* schedule and pop — including the huge population of timers
that never meaningfully fire: superseded fabric wakes, flow-retry
deadlines that the flow beats, jitter resamples racing departures.

The wheel replaces that with a two-level structure:

* future entries hash into fixed-width *buckets* keyed by the integer
  tick ``int(time / granularity)``; scheduling is an O(1) list append
  (plus one heap push per newly-occupied bucket, amortized over every
  entry that lands in it);
* the earliest bucket is *activated* on demand: sorted once by
  ``(time, seq)`` and drained through a cursor, so ordering work is
  paid per bucket, not per entry;
* cancellation is **lazy**: :meth:`TimerHandle.cancel` (and
  ``Timeout.cancel``) just flips a flag — the entry is purged when the
  drain cursor reaches it, without ever touching the structure.  A
  cancelled timer therefore costs O(1) total instead of O(log n) at
  schedule time plus a delivered no-op callback at fire time.

Determinism is identical to the heap: entries fire in ``(time, seq)``
order, where ``seq`` is the global scheduling sequence number.

Entries are ``(time, seq, obj)`` where ``obj`` is anything with a
``_cancelled`` flag (an :class:`~repro.simulation.event.Event` or a
bare :class:`TimerHandle`); the wheel itself never delivers — the
kernel pops batches and dispatches.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Any, List, Optional, Tuple

Entry = Tuple[float, int, Any]


class TimerHandle:
    """A bare scheduled callback — no Event allocation, no value.

    Returned by ``Simulator.call_at`` / ``call_later``; the hot paths
    (fabric departure timers, retry deadlines) use these instead of
    :class:`Timeout` events to skip the callback-list machinery.
    """

    __slots__ = ("fn", "_cancelled")

    def __init__(self, fn) -> None:
        self.fn = fn
        self._cancelled = False

    def cancel(self) -> None:
        """Lazily cancel: the wheel skips this entry when it drains."""
        self._cancelled = True

    def _deliver(self) -> None:
        self.fn()


class TimerWheel:
    """Sparse bucketed timer wheel with lazy cancellation."""

    __slots__ = (
        "granularity",
        "_buckets",
        "_tick_heap",
        "_active",
        "_active_tick",
        "_cursor",
    )

    def __init__(self, granularity: float = 0.05) -> None:
        if granularity <= 0:
            raise ValueError("wheel granularity must be positive")
        self.granularity = granularity
        # tick -> unsorted list of entries (future buckets).
        self._buckets: dict[int, List[Entry]] = {}
        # Occupied future ticks (each pushed exactly once per bucket
        # incarnation).
        self._tick_heap: List[int] = []
        # The earliest bucket, sorted, drained through _cursor.
        self._active: Optional[List[Entry]] = None
        self._active_tick = 0
        self._cursor = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def push(self, time: float, seq: int, obj: Any) -> None:
        tick = int(time / self.granularity)
        active = self._active
        if active is not None and tick <= self._active_tick:
            # Lands in the bucket currently being drained: keep it
            # sorted past the cursor (time >= now guarantees the slot
            # is at or after the cursor).
            insort(active, (time, seq, obj), lo=self._cursor)
            return
        bucket = self._buckets.get(tick)
        if bucket is None:
            self._buckets[tick] = [(time, seq, obj)]
            heappush(self._tick_heap, tick)
        else:
            bucket.append((time, seq, obj))

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def _advance_active(self) -> bool:
        """Make ``_active``/``_cursor`` point at the earliest live entry.

        Returns False when the wheel is empty.  Cancelled entries under
        the cursor are purged here (lazy cancellation).
        """
        while True:
            active = self._active
            if active is not None:
                # Purge cancelled entries at the cursor.
                cursor, length = self._cursor, len(active)
                while cursor < length and active[cursor][2]._cancelled:
                    cursor += 1
                self._cursor = cursor
                if cursor >= length:
                    self._active = None
                    continue
                # A future bucket could still be earlier than the rest
                # of the active one only if its tick is smaller (which
                # can happen after run(until=...) parked mid-bucket).
                if self._tick_heap and self._tick_heap[0] < self._active_tick:
                    self._suspend_active()
                    continue
                return True
            if not self._tick_heap:
                return False
            tick = heappop(self._tick_heap)
            bucket = self._buckets.pop(tick, None)
            if not bucket:
                continue
            bucket.sort()
            self._active = bucket
            self._active_tick = tick
            self._cursor = 0

    def _suspend_active(self) -> None:
        """Park the active bucket's remainder back into the future map."""
        active = self._active
        assert active is not None
        rest = active[self._cursor :]
        if rest:
            existing = self._buckets.get(self._active_tick)
            if existing is None:
                self._buckets[self._active_tick] = rest
                heappush(self._tick_heap, self._active_tick)
            else:
                existing.extend(rest)
        self._active = None

    def peek_time(self) -> Optional[float]:
        """Earliest live (non-cancelled) entry time, or None if empty."""
        if not self._advance_active():
            return None
        assert self._active is not None
        return self._active[self._cursor][0]

    def pop_batch(self, batch: List[Any]) -> Optional[float]:
        """Move every live entry at the earliest time into ``batch``.

        Returns that time, or None when the wheel is empty.  The batch
        is non-empty on a non-None return: ``_advance_active`` stops the
        cursor on a live entry.
        """
        if not self._advance_active():
            return None
        active = self._active
        assert active is not None
        cursor = self._cursor
        time = active[cursor][0]
        length = len(active)
        while cursor < length and active[cursor][0] == time:
            obj = active[cursor][2]
            if not obj._cancelled:
                batch.append(obj)
            cursor += 1
        self._cursor = cursor
        return time

    def __len__(self) -> int:  # pragma: no cover - debugging aid
        count = sum(len(bucket) for bucket in self._buckets.values())
        if self._active is not None:
            count += len(self._active) - self._cursor
        return count
