"""Event queue primitives for the discrete-event kernel.

One binary heap keyed on plain ``(time, seq)`` tuples.  The
monotonically increasing ``seq`` makes ordering *total and
deterministic*: two events scheduled for the same instant fire in
scheduling order, which is what makes every experiment in this
repository bit-reproducible.

The heap holds only events for a *later* instant.  Events for the
current instant go to the simulator's FIFO lane instead
(:class:`~repro.simtime.simulator.Simulator`), which pops them in the
same order the heap would, without a sift or a handle each.

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
queue while the next pop still had an O(d log d) drain ahead of it and
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

    Ordering in the heap is by ``(time, seq)``; the payload fields do
    not participate.  A handle whose ``seq`` is None sits in the
    simulator's same-instant lane, where FIFO position stands in for the
    sequence number.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired")

    def __init__(
        self,
        time: float,
        seq: Optional[int],
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
    ) -> None:
        self.time = time
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
        return f"<ScheduledEvent t={self.time} seq={self.seq} {state}>"


#: one heap entry: the tuple key plus the handle it schedules
_Entry = Tuple[float, int, ScheduledEvent]


def new_event(
    time: float,
    seq: Optional[int],
    callback: Callable[..., None],
    args: Tuple[Any, ...],
) -> ScheduledEvent:
    """Build a handle via ``__new__`` + slot stores: one Python call
    fewer per event than ``ScheduledEvent(...)``."""
    ev = ScheduledEvent.__new__(ScheduledEvent)
    ev.time = time
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

    def push(
        self,
        time: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
    ) -> ScheduledEvent:
        """Insert an event; returns the handle (usable for cancellation)."""
        seq = self._seq
        self._seq = seq + 1
        ev = new_event(time, seq, callback, args)
        heappush(self._heap, (time, seq, ev))
        self._live += 1
        return ev

    def pop_due(self, bound: Optional[float]) -> Optional[ScheduledEvent]:
        """Pop the earliest live event whose time is <= ``bound``.

        The one place entries leave the heap: cancelled heads are
        discarded here first, so their bookkeeping is the same whichever
        caller meets them.  ``bound=None`` means no bound; an event at
        exactly ``bound`` is due.  Returns None — leaving the live
        entries untouched — when the next live event lies beyond the
        bound.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
            self._dead -= 1
        if not heap or (bound is not None and heap[0][0] > bound):
            return None
        ev = heappop(heap)[2]
        self._live -= 1
        ev.fired = True
        return ev

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
        heap[:] = [e for e in heap if not e[2].cancelled]
        heapify(heap)
        self._dead = 0
