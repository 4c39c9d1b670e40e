"""The discrete-event simulator: one virtual clock, a heap and a lane.

Time is ``float`` microseconds.  The simulator is single-threaded and
deterministic: same inputs, same event trace, same results — which is what
lets the test suite assert exact chunk completion times for the paper's
split-ratio experiments.

Events for a later instant wait in a binary heap ordered by
``(time, seq)``.  Events for the *current* instant — process starts,
wake-ups, resource grants: most of what a run schedules — go to a FIFO
lane instead.  The event loop fires heap entries due now first, then the
lane, then advances the clock.  That is exactly the heap's own pop
order: a heap entry due at ``now`` was pushed before the clock reached
``now``, so its ``seq`` precedes every lane entry's.
"""

from __future__ import annotations

import gc
from collections import deque
from typing import Any, Callable, Deque, Iterator, Optional, Tuple

from repro.simtime.events import EventQueue, ScheduledEvent, new_event
from repro.simtime.process import Process
from repro.util.errors import SimulationError

#: one lane entry: callback, args, and the handle when one was handed out
LaneEntry = Tuple[Callable[..., None], Tuple[Any, ...], Optional[ScheduledEvent]]

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
        self._queue = EventQueue()
        # Bound once: schedule/schedule_at are the hottest calls in every
        # run, and the queue lives as long as the simulator.
        self._push = self._queue.push
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
        """Schedule ``callback(*args)`` to run ``delay`` µs from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} us in the past")
        now = self.now
        time = now + delay
        # Routed on the computed time, not on delay == 0: a delay too
        # small to move the clock is the current instant too.
        if time == now:
            ev = new_event(time, None, callback, args)
            self._lane.append((callback, args, ev))
            return ev
        return self._push(time, callback, args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        if time == self.now:
            ev = new_event(time, None, callback, args)
            self._lane.append((callback, args, ev))
            return ev
        return self._push(time, callback, args)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at the current instant, after every
        event already due now — ``schedule(0.0, ...)`` without a handle.

        The kernel's own same-instant hops (process starts, wake-ups,
        resource grants) take this path: nothing to cancel, nothing
        allocated beyond the lane entry.
        """
        self._lane.append((callback, args, None))

    def cancel(self, ev: ScheduledEvent) -> None:
        """Cancel a pending event (no-op if it already fired)."""
        if ev.seq is not None:
            self._queue.cancel(ev)
        elif not ev.cancelled and not ev.fired:
            ev.cancelled = True
            self._lane_dead += 1

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
        earlier (so bandwidth computations over a fixed window are exact).

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
        heap = self._queue._heap
        # One pop-with-bound per event: it drains cancelled heads and
        # checks the bound in a single heap access.
        pop_due = self._queue.pop_due
        lane = self._lane
        popleft = lane.popleft
        now = self.now
        n = 0
        try:
            while True:
                if lane:
                    if heap and heap[0][0] <= now:
                        ev = pop_due(now)
                        if ev is not None:
                            n += 1
                            ev.callback(*ev.args)
                            continue
                    callback, args, ev = popleft()
                    if ev is not None:
                        if ev.cancelled:
                            self._lane_dead -= 1
                            continue
                        ev.fired = True
                    n += 1
                    callback(*args)
                    continue
                ev = pop_due(until)
                if ev is None:
                    break
                t = ev.time
                if t < now:
                    raise SimulationError(
                        f"clock would move backwards: {now} -> {t}"
                    )
                now = self.now = t
                n += 1
                ev.callback(*ev.args)
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
        return len(self._queue) + len(self._lane) - self._lane_dead
