"""Event queue primitives for the discrete-event kernel.

One binary heap keyed on plain ``(time, priority, seq)`` tuples.  The
monotonically increasing ``seq`` makes ordering *total and
deterministic*: two events scheduled for the same instant fire in
scheduling order, which is what makes every experiment in this
repository bit-reproducible.

The heap holds only events for a *later* instant (or a non-zero
priority).  Events for the current instant go to the simulator's FIFO
lane instead (:class:`~repro.simtime.simulator.Simulator`), which pops
them in the same order the heap would, without a sift or a handle each.

The payload (callback, args, cancellation flags) rides alongside the key
in a ``__slots__`` handle rather than participating in comparisons —
sifts then compare small built-in tuples instead of calling a dataclass
``__lt__`` per hop, which is the single hottest operation in long
simulation runs.  Because ``seq`` is unique, the handle element of an
entry is never reached by tuple comparison.

Cancellation is lazy (an O(1) flag).  The queue tracks its *dead*
(cancelled but not yet drained) entries and compacts the heap once
tombstones outnumber live events: a retry storm that cancels thousands
of watchdogs would otherwise leave ``__len__`` reporting a near-empty
queue while ``peek_time`` still had an O(d log d) drain ahead of it and
the heap pinned arbitrary memory.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

#: dead (cancelled, undrained) entries tolerated before a compaction is
#: considered; below this the bookkeeping is not worth the rebuild
COMPACT_MIN_DEAD = 512


class ScheduledEvent:
    """One pending callback (the cancellation handle).

    Ordering in the heap is by ``(time, priority, seq)``; the payload
    fields do not participate.  ``priority`` defaults to 0; the kernel
    reserves negative priorities for bookkeeping that must run before
    user events at the same timestamp (e.g. resource releases before
    acquires, mirroring hardware where a NIC's DMA-done interrupt is
    visible before the next doorbell write is processed).  A handle
    whose ``seq`` is None sits in the simulator's same-instant lane,
    where FIFO position stands in for the sequence number.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled", "fired")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: Optional[int],
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

    # Cancellation goes through Simulator.cancel()/EventQueue.cancel() so
    # the live counts stay consistent; the flag alone is the lazy-delete
    # mark.

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"<ScheduledEvent t={self.time} prio={self.priority} seq={self.seq} {state}>"


#: one heap entry: the tuple key plus the handle it schedules
_Entry = Tuple[float, int, int, ScheduledEvent]


def new_event(
    time: float,
    priority: int,
    seq: Optional[int],
    callback: Callable[..., None],
    args: Tuple[Any, ...],
) -> ScheduledEvent:
    """Build a handle via ``__new__`` + slot stores: one Python call
    fewer per event than ``ScheduledEvent(...)``."""
    ev = ScheduledEvent.__new__(ScheduledEvent)
    ev.time = time
    ev.priority = priority
    ev.seq = seq
    ev.callback = callback
    ev.args = args
    ev.cancelled = False
    ev.fired = False
    return ev


class EventQueue:
    """Deterministic event queue: one binary heap of tuple keys."""

    __slots__ = ("_heap", "_seq", "_live", "_dead")

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._seq = 0
        self._live = 0
        #: cancelled entries still occupying the heap (tombstones)
        self._dead = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def storage_size(self) -> int:
        """Entries physically held, tombstones included (diagnostic)."""
        return len(self._heap)

    def push(
        self,
        time: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
        priority: int = 0,
    ) -> ScheduledEvent:
        """Insert an event; returns the handle (usable for cancellation)."""
        seq = self._seq
        self._seq = seq + 1
        ev = new_event(time, priority, seq, callback, args)
        heappush(self._heap, (time, priority, seq, ev))
        self._live += 1
        return ev

    def _drain_cancelled_head(self) -> None:
        """Discard cancelled entries at the heap head.

        The one place cancelled entries leave the heap: every accessor
        goes through here, so the ``fired``/``cancelled`` bookkeeping is
        identical no matter which one happens to meet a cancelled head
        first.  Callers pre-check ``heap[0][3].cancelled`` so the common
        live-head case pays no call overhead.
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
        heap = self._heap
        if heap and heap[0][3].cancelled:
            self._drain_cancelled_head()
        if not heap or (bound is not None and heap[0][0] > bound):
            return None
        ev = heappop(heap)[3]
        self._live -= 1
        ev.fired = True
        return ev

    def pop_ahead_of_lane(self, now: float) -> Optional[ScheduledEvent]:
        """Pop the earliest live event if it fires before the lane.

        That is an event due at ``now`` with priority <= 0: a negative
        priority outranks the lane's priority 0, and a priority-0 heap
        entry due at ``now`` was pushed before the clock reached ``now``,
        so its ``seq`` precedes every lane entry's.
        """
        heap = self._heap
        if heap and heap[0][3].cancelled:
            self._drain_cancelled_head()
        if not heap:
            return None
        head = heap[0]
        if head[0] > now or head[1] > 0:
            return None
        heappop(heap)
        ev = head[3]
        self._live -= 1
        ev.fired = True
        return ev

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event without removing it."""
        heap = self._heap
        if heap and heap[0][3].cancelled:
            self._drain_cancelled_head()
        return heap[0][0] if heap else None

    def cancel(self, ev: ScheduledEvent) -> None:
        """Cancel a pending event in O(1) (lazy deletion + compaction).

        Cancelling twice, or cancelling an event that already fired, is a
        harmless no-op — exactly the semantics timer APIs offer.

        Tombstones are reclaimed eagerly once they outnumber live events
        (past :data:`COMPACT_MIN_DEAD`).
        """
        if not ev.cancelled and not ev.fired:
            ev.cancelled = True
            self._live -= 1
            self._dead += 1
            if self._dead > COMPACT_MIN_DEAD and self._dead > self._live:
                self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from live entries only (drops tombstones).

        In place: the simulator's event loop holds the list itself.
        """
        heap = self._heap
        heap[:] = [e for e in heap if not e[3].cancelled]
        heapify(heap)
        self._dead = 0
