"""The cancellation handle of the discrete-event kernel.

:meth:`~repro.simtime.simulator.Simulator.schedule` and
:meth:`~repro.simtime.simulator.Simulator.schedule_at` return a
:class:`ScheduledEvent`, which
:meth:`~repro.simtime.simulator.Simulator.cancel` takes.  The handle is
only the cancellation state: the callback and its arguments ride in the
simulator's own storage entry beside it, and a timer nobody cancels
(``call_soon``, ``call_later`` and the kernel's own hops) builds no
handle at all.

Cancellation is lazy: an O(1) flag that the event loop reads when the
entry reaches the front.
"""

from __future__ import annotations

from typing import Optional


class ScheduledEvent:
    """One pending cancellable callback.

    ``seq`` is the event's sequence number in the simulator's heap, or
    None while it waits in the same-instant lane, where FIFO position
    stands in for it.
    """

    __slots__ = ("time", "seq", "cancelled", "fired")

    def __init__(self, time: float, seq: Optional[int]) -> None:
        self.time = time
        self.seq = seq
        self.cancelled = False
        self.fired = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"<ScheduledEvent t={self.time} seq={self.seq} {state}>"
