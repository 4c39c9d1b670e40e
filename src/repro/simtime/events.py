"""Event queue primitives for the discrete-event kernel.

Two interchangeable schedulers live here, both keyed on plain
``(time, priority, seq)`` tuples.  The monotonically increasing ``seq``
makes ordering *total and deterministic*: two events scheduled for the
same instant fire in scheduling order, which is what makes every
experiment in this repository bit-reproducible.

* :class:`EventQueue` — the public queue.  Small populations use a binary
  heap (PR 1's tuple-keyed fast path); once the live count crosses
  :data:`CALENDAR_HIGH_WATER` the queue migrates its pending events into
  a :class:`CalendarQueue` and back again below
  :data:`CALENDAR_LOW_WATER`.  Because both structures order by the same
  total key, the migration is invisible: the pop sequence (events *and*
  timestamps) is bit-identical to either structure run alone.
* :class:`CalendarQueue` — a bucketed (calendar) scheduler.  Events hash
  into fixed-width time buckets; a pop sorts the earliest bucket once
  (Timsort, C speed) and then serves it by advancing an index — O(1) per
  event instead of the heap's O(log n) sift — which is what buys the
  large-N event-storm speedups in ``BENCH_PR6.json``.

The payload (callback, args, cancellation flags) rides alongside the key
in a ``__slots__`` handle rather than participating in comparisons —
sorts and sifts then compare small built-in tuples instead of calling a
dataclass ``__lt__`` per hop, which is the single hottest operation in
long simulation runs.  Because ``seq`` is unique, the handle element of
an entry is never reached by tuple comparison.

Cancellation is lazy in both structures (an O(1) flag), with one
addition over PR 1: the queue tracks its *dead* (cancelled but not yet
drained) entries and compacts the underlying storage once tombstones
outnumber live events.  Retry storms used to cancel thousands of
watchdog events whose tombstones lingered until the clock swept past
them — ``__len__`` would report a near-empty queue while ``peek_time``
still had an O(d log d) drain ahead of it and the storage pinned
arbitrary memory.  After compaction the two views agree again: storage
size is bounded by a constant factor of the live count.
"""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappop, heappush
from math import floor
from typing import Any, Callable, Dict, List, Optional, Tuple

#: live-event count above which :class:`EventQueue` migrates its pending
#: events into calendar buckets (large-N fabric and storm territory)
CALENDAR_HIGH_WATER = 4096

#: live-event count below which a calendar-backed queue migrates back to
#: the heap (kept well under the high water so the switch cannot thrash)
CALENDAR_LOW_WATER = 256

#: target live events per calendar bucket when the bucket width is sized
#: from the pending population's time span (measured on the storm bench:
#: small buckets keep the drained-bucket sorts and same-bucket insorts
#: short, and the extra bucket-heap traffic is cheaper than either)
CALENDAR_BUCKET_TARGET = 16

#: dead (cancelled, undrained) entries tolerated before a compaction is
#: considered; below this the bookkeeping is not worth the rebuild
COMPACT_MIN_DEAD = 512


class ScheduledEvent:
    """One pending callback in the event queue (the cancellation handle).

    Ordering in the queue is by ``(time, priority, seq)``; the payload
    fields do not participate.  ``priority`` defaults to 0; the kernel
    reserves negative priorities for bookkeeping that must run before
    user events at the same timestamp (e.g. resource releases before
    acquires, mirroring hardware where a NIC's DMA-done interrupt is
    visible before the next doorbell write is processed).
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled", "fired")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    # Cancellation goes through EventQueue.cancel() so the queue's live
    # count stays consistent; the flag alone is just the lazy-delete mark.

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"<ScheduledEvent t={self.time} prio={self.priority} seq={self.seq} {state}>"


#: one queue entry: the tuple key plus the handle it schedules
_Entry = Tuple[float, int, int, ScheduledEvent]


def _new_event(
    time: float,
    priority: int,
    seq: int,
    callback: Callable[..., None],
    args: Tuple[Any, ...],
) -> ScheduledEvent:
    # Handle built via __new__ + slot stores: one Python call fewer per
    # event than ScheduledEvent(...) — measurable at kernel rates.
    ev = ScheduledEvent.__new__(ScheduledEvent)
    ev.time = time
    ev.priority = priority
    ev.seq = seq
    ev.callback = callback
    ev.args = args
    ev.cancelled = False
    ev.fired = False
    return ev


class CalendarQueue:
    """Deterministic bucketed (calendar) queue of :class:`ScheduledEvent`.

    Same public API and same total order as the heap-backed
    :class:`EventQueue` — the test suite's hypothesis property drives
    both with identical random insert/cancel/pop streams and asserts
    identical pop sequences.

    Events land in ``floor(time / width)`` buckets kept in a sparse dict
    (no year wrap, no resizing): a heap of *bucket indices* finds the
    earliest non-empty bucket, that bucket is sorted once, and pops then
    advance an index through it.  Pushes into the bucket currently being
    drained keep it sorted via :func:`bisect.insort` over the undrained
    suffix; pushes into an *earlier* bucket (legal for the raw structure,
    though the simulator never schedules into the past) take a slow path
    that re-queues the current bucket's remainder.

    ``width`` is the bucket span in virtual µs.  The sweet spot puts a
    few dozen events in a bucket (:data:`CALENDAR_BUCKET_TARGET`);
    :meth:`width_for_span` sizes it from a population's time span, which
    is what :class:`EventQueue` does at migration time.
    """

    __slots__ = (
        "_width",
        "_inv_width",
        "_buckets",
        "_bucket_heap",
        "_cur",
        "_cur_idx",
        "_cur_pos",
        "_seq",
        "_live",
        "_dead",
    )

    def __init__(self, width: float = 1.0) -> None:
        if width <= 0.0:
            raise ValueError(f"calendar bucket width must be positive: {width}")
        self._width = width
        self._inv_width = 1.0 / width
        self._buckets: Dict[int, List[_Entry]] = {}
        self._bucket_heap: List[int] = []
        #: the bucket currently being drained (sorted), or None
        self._cur: Optional[List[_Entry]] = None
        self._cur_idx: Optional[int] = None
        self._cur_pos = 0
        self._seq = 0
        self._live = 0
        self._dead = 0

    @staticmethod
    def width_for_span(span: float, count: int) -> float:
        """Bucket width putting ~:data:`CALENDAR_BUCKET_TARGET` events
        per bucket for ``count`` events spread over ``span`` µs."""
        if span <= 0.0 or count <= 0:
            return 1.0
        return max(span / count * CALENDAR_BUCKET_TARGET, 1e-9)

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    # ------------------------------------------------------------------ #
    # insertion
    # ------------------------------------------------------------------ #

    def push(
        self,
        time: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
        priority: int = 0,
    ) -> ScheduledEvent:
        """Insert an event; returns the handle (usable for cancellation).

        The common case — a future bucket, already materialized — is
        inlined here rather than delegated to :meth:`_insert`: at storm
        rates the extra Python call per event is measurable against the
        heap's all-C ``heappush``.
        """
        seq = self._seq
        self._seq = seq + 1
        ev = _new_event(time, priority, seq, callback, args)
        self._live += 1
        idx = floor(time * self._inv_width)
        cur_idx = self._cur_idx
        if cur_idx is None or idx > cur_idx:
            bucket = self._buckets.get(idx)
            if bucket is None:
                self._buckets[idx] = [(time, priority, seq, ev)]
                heappush(self._bucket_heap, idx)
            else:
                bucket.append((time, priority, seq, ev))
        else:
            self._insert_at(idx, (time, priority, seq, ev))
        return ev

    def _insert(self, entry: _Entry) -> None:
        """File one entry into its bucket (no live-count bookkeeping)."""
        self._insert_at(floor(entry[0] * self._inv_width), entry)

    def _insert_at(self, idx: int, entry: _Entry) -> None:
        cur_idx = self._cur_idx
        if cur_idx is not None and idx <= cur_idx:
            if idx == cur_idx:
                # Into the bucket being drained: ordered insert over the
                # undrained suffix (drained prefix is never touched).
                insort(self._cur, entry, lo=self._cur_pos)
                return
            # Earlier than the current bucket (a past-time push the
            # simulator never issues, but the raw API allows): demote the
            # current remainder back into the bucket table and fall
            # through to a plain insert; the next access re-selects the
            # earliest bucket, restoring the global order.
            self._requeue_current()
        bucket = self._buckets.get(idx)
        if bucket is None:
            self._buckets[idx] = [entry]
            heappush(self._bucket_heap, idx)
        else:
            bucket.append(entry)

    def _requeue_current(self) -> None:
        """Push the current bucket's undrained suffix back into the table."""
        assert self._cur is not None and self._cur_idx is not None
        rest = self._cur[self._cur_pos :]
        if rest:
            bucket = self._buckets.get(self._cur_idx)
            if bucket is None:
                self._buckets[self._cur_idx] = rest
                heappush(self._bucket_heap, self._cur_idx)
            else:
                bucket.extend(rest)
        self._cur = None
        self._cur_idx = None
        self._cur_pos = 0

    # ------------------------------------------------------------------ #
    # removal
    # ------------------------------------------------------------------ #

    def _advance(self) -> bool:
        """Select the earliest non-empty bucket as current (sorted)."""
        buckets = self._buckets
        bucket_heap = self._bucket_heap
        while bucket_heap:
            idx = heappop(bucket_heap)
            # Stale duplicates (an index re-queued while already listed)
            # pop as dict misses and are skipped.
            bucket = buckets.pop(idx, None)
            if bucket:
                bucket.sort()
                self._cur = bucket
                self._cur_idx = idx
                self._cur_pos = 0
                return True
        self._cur = None
        self._cur_idx = None
        self._cur_pos = 0
        return False

    def _head(self) -> Optional[_Entry]:
        """The earliest live entry, cancelled heads drained, or None.

        The one place cancelled entries leave the calendar: ``pop_due``
        and ``peek_time`` both come through here, so the bookkeeping is
        identical no matter which accessor encounters a tombstone first
        (drained silently, never marked fired, live count untouched).
        """
        cur = self._cur
        pos = self._cur_pos
        while True:
            if cur is None or pos >= len(cur):
                if not self._advance():
                    return None
                cur = self._cur
                pos = 0
            entry = cur[pos]
            if entry[3].cancelled:
                pos += 1
                self._dead -= 1
                continue
            self._cur_pos = pos
            return entry

    def pop(self) -> Optional[ScheduledEvent]:
        """Remove and return the earliest live event, or None if empty."""
        return self.pop_due(None)

    def pop_due(self, bound: Optional[float]) -> Optional[ScheduledEvent]:
        """Pop the earliest live event whose time is <= ``bound``.

        ``bound=None`` means no bound; an event at exactly ``bound`` is
        due.  Returns None — leaving the queue untouched — when the next
        live event lies beyond the bound.

        Open-coded rather than built on :meth:`_head`: this is the drain
        loop's per-event cost, and skipping one Python call (plus keeping
        the cursor in locals) is where the calendar's O(1) pop actually
        beats the heap's C-implemented O(log n) sift in practice.
        """
        cur = self._cur
        pos = self._cur_pos
        while True:
            if cur is None or pos >= len(cur):
                if not self._advance():
                    return None
                cur = self._cur
                pos = 0
            entry = cur[pos]
            if entry[3].cancelled:
                pos += 1
                self._dead -= 1
                continue
            break
        if bound is not None and entry[0] > bound:
            self._cur_pos = pos
            return None
        self._cur_pos = pos + 1
        self._live -= 1
        ev = entry[3]
        ev.fired = True
        return ev

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event without removing it."""
        entry = self._head()
        return entry[0] if entry is not None else None

    def cancel(self, ev: ScheduledEvent) -> None:
        """Cancel a pending event in O(1) (lazy deletion + compaction).

        Cancelling twice, or cancelling an event that already fired, is a
        harmless no-op — exactly the semantics timer APIs offer.
        """
        if not ev.cancelled and not ev.fired:
            ev.cancelled = True
            self._live -= 1
            self._dead += 1
            if self._dead > COMPACT_MIN_DEAD and self._dead > self._live:
                self._compact()

    def _compact(self) -> None:
        """Drop every tombstone; storage shrinks to the live entries."""
        live = self._live_entries()
        self._buckets.clear()
        self._bucket_heap.clear()
        self._cur = None
        self._cur_idx = None
        self._cur_pos = 0
        self._dead = 0
        for entry in live:
            self._insert(entry)

    def _live_entries(self) -> List[_Entry]:
        """Every live entry, in no particular order (migration helper)."""
        out: List[_Entry] = []
        if self._cur is not None:
            out.extend(
                e for e in self._cur[self._cur_pos :] if not e[3].cancelled
            )
        for bucket in self._buckets.values():
            out.extend(e for e in bucket if not e[3].cancelled)
        return out

    @property
    def storage_size(self) -> int:
        """Entries physically held, tombstones included (diagnostic)."""
        held = len(self._cur) - self._cur_pos if self._cur is not None else 0
        return held + sum(len(b) for b in self._buckets.values())


class EventQueue:
    """Deterministic event queue: binary heap, calendar buckets at scale.

    The public scheduler behind :class:`~repro.simtime.simulator.
    Simulator`.  Storage starts as the PR 1 tuple-keyed heap; when the
    live population crosses :data:`CALENDAR_HIGH_WATER` the pending
    events migrate into a :class:`CalendarQueue` (bucket width sized
    from their time span) and migrate back below
    :data:`CALENDAR_LOW_WATER`.  Both structures pop in the identical
    ``(time, priority, seq)`` total order, so the switch never moves a
    timestamp — simulated runs are bit-identical whichever backend (or
    mixture) served them.  ``auto_calendar=False`` pins the heap — the
    reference the calendar tests compare against.
    """

    __slots__ = ("_heap", "_seq", "_live", "_dead", "_cal", "_auto")

    def __init__(self, auto_calendar: bool = True) -> None:
        self._heap: List[_Entry] = []
        self._seq = 0
        self._live = 0
        #: cancelled entries still occupying the heap (tombstones)
        self._dead = 0
        #: the calendar backend while migrated, else None (heap mode)
        self._cal: Optional[CalendarQueue] = None
        self._auto = auto_calendar

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        cal = self._cal
        return self._live if cal is None else cal._live

    def __bool__(self) -> bool:
        return len(self) > 0

    @property
    def backend(self) -> str:
        """``"heap"`` or ``"calendar"`` — which structure holds events now."""
        return "heap" if self._cal is None else "calendar"

    @property
    def storage_size(self) -> int:
        """Entries physically held, tombstones included (diagnostic)."""
        cal = self._cal
        return len(self._heap) if cal is None else cal.storage_size

    def push(
        self,
        time: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
        priority: int = 0,
    ) -> ScheduledEvent:
        """Insert an event; returns the handle (usable for cancellation)."""
        cal = self._cal
        if cal is not None:
            return cal.push(time, callback, args, priority)
        seq = self._seq
        self._seq = seq + 1
        ev = _new_event(time, priority, seq, callback, args)
        heappush(self._heap, (time, priority, seq, ev))
        self._live += 1
        if self._live > CALENDAR_HIGH_WATER and self._auto:
            self._migrate_to_calendar()
        return ev

    def _drain_cancelled_head(self) -> None:
        """Discard cancelled entries at the heap head.

        The one place cancelled entries leave the heap: ``pop``,
        ``pop_due`` and ``peek_time`` all go through here, so the
        ``fired``/``cancelled`` bookkeeping is identical no matter which
        accessor happens to encounter a cancelled head first.  Callers
        pre-check ``heap[0][3].cancelled`` so the common live-head case
        pays no call overhead.
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
            self._dead -= 1

    def pop(self) -> Optional[ScheduledEvent]:
        """Remove and return the earliest live event, or None if empty."""
        return self.pop_due(None)

    def pop_due(self, bound: Optional[float]) -> Optional[ScheduledEvent]:
        """Pop the earliest live event whose time is <= ``bound``.

        One heap access replaces the peek-then-pop pair of the naive
        bounded event loop (each of which would drain cancelled heads on
        its own).  ``bound=None`` means no bound; an event at exactly
        ``bound`` is due.  Returns None — leaving the queue untouched —
        when the next live event lies beyond the bound.
        """
        cal = self._cal
        if cal is not None:
            ev = cal.pop_due(bound)
            if cal._live < CALENDAR_LOW_WATER:
                self._migrate_to_heap()
            return ev
        heap = self._heap
        if heap and heap[0][3].cancelled:
            self._drain_cancelled_head()
        if not heap or (bound is not None and heap[0][0] > bound):
            return None
        ev = heappop(heap)[3]
        self._live -= 1
        ev.fired = True
        return ev

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event without removing it."""
        cal = self._cal
        if cal is not None:
            return cal.peek_time()
        heap = self._heap
        if heap and heap[0][3].cancelled:
            self._drain_cancelled_head()
        return heap[0][0] if heap else None

    def cancel(self, ev: ScheduledEvent) -> None:
        """Cancel a pending event in O(1) (lazy deletion + compaction).

        Cancelling twice, or cancelling an event that already fired, is a
        harmless no-op — exactly the semantics timer APIs offer.

        Tombstones are reclaimed eagerly once they outnumber live events
        (past :data:`COMPACT_MIN_DEAD`): a retry storm that cancels
        thousands of watchdogs no longer leaves ``__len__`` reporting an
        almost-empty queue while the storage still holds — and the next
        ``peek_time`` still has to drain — every one of them.
        """
        cal = self._cal
        if cal is not None:
            cal.cancel(ev)
            return
        if not ev.cancelled and not ev.fired:
            ev.cancelled = True
            self._live -= 1
            self._dead += 1
            if self._dead > COMPACT_MIN_DEAD and self._dead > self._live:
                self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from live entries only (drops tombstones)."""
        self._heap = [e for e in self._heap if not e[3].cancelled]
        heapify(self._heap)
        self._dead = 0

    # ------------------------------------------------------------------ #
    # backend migration (both orders pop identically, so this is free of
    # observable effects beyond speed)
    # ------------------------------------------------------------------ #

    def _migrate_to_calendar(self) -> None:
        live = [e for e in self._heap if not e[3].cancelled]
        times = [e[0] for e in live]
        span = (max(times) - min(times)) if times else 0.0
        cal = CalendarQueue(
            width=CalendarQueue.width_for_span(span, len(live))
        )
        for entry in live:
            cal._insert(entry)
        cal._live = self._live
        cal._seq = self._seq
        self._cal = cal
        self._heap = []
        self._live = 0
        self._dead = 0

    def _migrate_to_heap(self) -> None:
        cal = self._cal
        assert cal is not None
        heap = cal._live_entries()
        heapify(heap)
        self._heap = heap
        self._live = cal._live
        self._seq = cal._seq
        self._dead = 0
        self._cal = None
