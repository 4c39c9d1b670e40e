"""The discrete-event simulator: one virtual clock, a heap and a lane.

Time is ``float`` microseconds.  The simulator is single-threaded and
deterministic: same inputs, same event trace, same results — which is what
lets the test suite assert exact chunk completion times for the paper's
split-ratio experiments.

Events for a later instant wait in one binary heap of plain
``(time, seq, callback, args, handle)`` tuples.  The monotonically
increasing ``seq`` makes the order total and deterministic: two events
for the same instant fire in scheduling order, which is what makes every
experiment in this repository bit-reproducible.  Because ``seq`` is
unique, a sift compares small built-in tuples and never reaches the
callback.  ``handle`` is the :class:`ScheduledEvent` that
:meth:`Simulator.schedule` and :meth:`Simulator.schedule_at` hand out,
or None for a timer nobody cancels (:meth:`Simulator.call_later`).

Events for the *current* instant — process starts, wake-ups, resource
grants: most of what a run schedules — go to a FIFO lane of
``(callback, args, handle)`` entries instead.  The event loop pops heap
entries due now first, then the lane, then advances the clock.  That is
exactly the heap's own pop order: a heap entry due at ``now`` was pushed
before the clock reached ``now``, so its ``seq`` precedes every lane
entry's.

Cancelled entries stay where they are until the loop meets them.  The
simulator counts the heap's tombstones and compacts it once they
outnumber live entries: a retry storm that cancels thousands of
watchdogs would otherwise leave the heap pinning memory and the next
pops an O(d log d) drain.
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Deque, Iterator, List, Optional, Tuple

from repro.simtime.events import ScheduledEvent
from repro.simtime.process import Process
from repro.util.errors import SimulationError

#: one lane entry: callback, args, and the handle when one was handed out
LaneEntry = Tuple[Callable[..., None], Tuple[Any, ...], Optional[ScheduledEvent]]
#: one heap entry: the ``(time, seq)`` key, then a lane entry's fields
HeapEntry = Tuple[
    float, int, Callable[..., None], Tuple[Any, ...], Optional[ScheduledEvent]
]

#: cancelled heap entries tolerated before a compaction is considered;
#: below this the rebuild is not worth it
COMPACT_MIN_DEAD = 512

#: the collector's generation-2 threshold while :meth:`Simulator.run` runs
#: (the largest value ``gc.set_threshold`` takes): full passes wait until
#: the loop returns
_FULL_PASS_DEFERRED = 2**31 - 1


class Simulator:
    """Deterministic discrete-event simulator with a µs virtual clock.

    Usage (callback style)::

        sim = Simulator()
        sim.schedule(5.0, print, "fires at t=5us")
        sim.run()

    Usage (process style)::

        def pinger(sim):
            yield Timeout(3.0)
            print("t =", sim.now)
        sim.spawn(pinger(sim))
        sim.run()
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: events for a later instant, ordered on ``(time, seq)``
        self._heap: List[HeapEntry] = []
        #: the ``seq`` of the next heap entry
        self._seq = 0
        #: cancelled heap entries not yet popped or compacted away
        self._dead = 0
        #: events due at ``now``, in push order
        self._lane: Deque[LaneEntry] = deque()
        #: cancelled lane entries not yet drained
        self._lane_dead = 0
        self._running = False
        #: total events executed over this simulator's lifetime
        self.events_processed: int = 0

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay`` µs from now;
        returns the handle :meth:`cancel` takes."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} us in the past")
        return self._push(self.now + delay, callback, args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        return self._push(time, callback, args)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at the current instant, after every
        event already due now — ``schedule(0.0, ...)`` without a handle.

        The kernel's own same-instant hops (process starts, wake-ups,
        resource grants) take this path: nothing to cancel, nothing
        allocated beyond the lane entry.
        """
        self._lane.append((callback, args, None))

    def call_later(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Run ``callback(*args)`` ``delay`` µs from now —
        ``schedule(delay, ...)`` without a handle, for a timer nobody
        cancels (an occupancy's end, a timeout).

        It goes exactly where ``schedule`` would put it: on the lane when
        the clock absorbs ``delay``, otherwise on the heap with the next
        ``seq``.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} us in the past")
        now = self.now
        time = now + delay
        if time == now:
            self._lane.append((callback, args, None))
        else:
            seq = self._seq
            self._seq = seq + 1
            heappush(self._heap, (time, seq, callback, args, None))

    def _push(
        self, time: float, callback: Callable[..., None], args: Tuple[Any, ...]
    ) -> ScheduledEvent:
        """Queue ``callback(*args)`` at ``time`` (not before now) with a
        handle.

        Routed on the time, not on a zero delay: a delay too small to
        move the clock is the current instant too.
        """
        if time == self.now:
            ev = ScheduledEvent(time, None)
            self._lane.append((callback, args, ev))
        else:
            seq = self._seq
            self._seq = seq + 1
            ev = ScheduledEvent(time, seq)
            heappush(self._heap, (time, seq, callback, args, ev))
        return ev

    def cancel(self, ev: ScheduledEvent) -> None:
        """Cancel a pending event in O(1).

        Cancelling twice, or cancelling an event that already fired, is a
        harmless no-op — exactly the semantics timer APIs offer.  Heap
        tombstones are compacted away once they outnumber live entries
        (past :data:`COMPACT_MIN_DEAD`).
        """
        if ev.cancelled or ev.fired:
            return
        ev.cancelled = True
        if ev.seq is None:
            self._lane_dead += 1
            return
        self._dead += 1
        heap = self._heap
        if self._dead > COMPACT_MIN_DEAD and 2 * self._dead > len(heap):
            # In place: the event loop holds the list itself.
            heap[:] = [e for e in heap if e[4] is None or not e[4].cancelled]
            heapify(heap)
            self._dead = 0

    # ------------------------------------------------------------------ #
    # processes
    # ------------------------------------------------------------------ #

    def spawn(self, generator: Iterator[Any], name: str = "") -> Process:
        """Start a generator coroutine as a simulation process.

        The process begins executing at the *current* instant but only
        after the caller returns to the event loop (it is scheduled, not
        called inline), matching SimPy semantics and avoiding reentrancy
        surprises in strategy code.
        """
        return Process(self, generator, name=name)

    # ------------------------------------------------------------------ #
    # the event loop
    # ------------------------------------------------------------------ #

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains or the clock passes ``until``.

        Returns the final value of :attr:`now`.  With ``until`` given, the
        clock is advanced *to* ``until`` even if the last event fired
        earlier (so bandwidth computations over a fixed window are exact);
        an event at exactly ``until`` is due.

        While the loop runs, the cyclic collector's full (generation-2)
        passes wait: a run keeps its messages, their events and transfers
        alive until it ends, so a full pass inside it would re-scan live
        records and free nothing that a young pass would miss.  Young
        passes run as before, and the caller's thresholds are restored
        exactly on the way out (return or raise), so a deferred full pass
        comes due after ``run()`` returns.  ``gc.isenabled()`` is never
        touched.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        if until is not None and until < self.now:
            return self.now  # every pending event lies beyond the bound
        thresholds = gc.get_threshold()
        gc.set_threshold(thresholds[0], thresholds[1], _FULL_PASS_DEFERRED)
        self._running = True
        heap = self._heap
        lane = self._lane
        popleft = lane.popleft
        bound = float("inf") if until is None else until
        now = self.now
        n = 0
        try:
            while True:
                # The heap head goes first while it is due now, or, once
                # the lane is empty, while it lies within the bound.
                if heap and heap[0][0] <= (now if lane else bound):
                    t, _, callback, args, ev = heappop(heap)
                    if ev is not None:
                        if ev.cancelled:
                            self._dead -= 1
                            continue
                        ev.fired = True
                    if t < now:
                        raise SimulationError(
                            f"clock would move backwards: {now} -> {t}"
                        )
                    now = self.now = t
                elif lane:
                    callback, args, ev = popleft()
                    if ev is not None:
                        if ev.cancelled:
                            self._lane_dead -= 1
                            continue
                        ev.fired = True
                else:
                    break
                n += 1
                callback(*args)
        finally:
            gc.set_threshold(*thresholds)
            self._running = False
            self.events_processed += n
        if until is not None and self.now < until:
            self.now = until
        return self.now

    @property
    def pending_events(self) -> int:
        """Number of live events still queued, lane included (diagnostic)."""
        return len(self._heap) - self._dead + len(self._lane) - self._lane_dead
