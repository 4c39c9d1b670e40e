"""One-slot resources: a ticket lock with one FIFO.

A :class:`Resource` models anything that serializes access in virtual
time — a CPU core executing PIO copies, a NIC's transmit engine.  Every
claim takes the next ticket, and the slot serves tickets in order.

A claim passes its continuation: ``core_resource.acquire(fn, *args)``
takes a ticket and runs ``fn(ticket, *args)`` one same-instant hop
after the grant; the holder hands the slot on with
``core_resource.release(ticket)``.  The grant is the ticket, an int:
nothing is built per claim but its lane entry.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque

from repro.simtime.simulator import LaneEntry, Simulator
from repro.util.errors import SimulationError


class Resource:
    """A one-slot resource with deterministic FIFO admission.

    Claims beyond the holder queue in ticket order.  The grant happens
    *inline* at release time (not deferred), so utilization accounting
    sees no artificial gaps — important when asserting that a core is
    100 % busy during serialized PIO copies (paper Fig. 4a).
    """

    __slots__ = ("sim", "name", "busy", "_lane", "_next", "_serving", "_waiting")

    def __init__(self, sim: Simulator, name: str = "resource") -> None:
        self.sim = sim
        self.name = name
        #: True while a ticket holds the slot
        self.busy = False
        self._lane = sim._lane
        #: the next ticket handed out
        self._next = 0
        #: the ticket holding the slot, or the next one to when it is free
        self._serving = 0
        #: the lane entries of queued claims, in ticket order
        self._waiting: Deque[LaneEntry] = deque()

    def __repr__(self) -> str:
        return (
            f"<Resource {self.name} {'busy' if self.busy else 'free'}"
            f" (+{len(self._waiting)} queued)>"
        )

    @property
    def queued(self) -> int:
        return len(self._waiting)

    def acquire(self, callback: Callable[..., None], *args: Any) -> int:
        """Claim the slot: ``callback(ticket, *args)`` runs one
        same-instant hop after the grant.  Returns the ticket, which is
        the grant :meth:`release` takes back."""
        ticket = self._next
        self._next = ticket + 1
        entry = (callback, (ticket, *args), None)
        if self.busy:
            self._waiting.append(entry)
        else:
            self.busy = True
            self._lane.append(entry)
        return ticket

    def release(self, ticket: int) -> None:
        """Return the granted slot; the next FIFO waiter (if any) is
        granted."""
        serving = self._serving
        if ticket != serving or not self.busy:
            if ticket < serving:
                raise SimulationError(f"double release on {self.name}")
            raise SimulationError(f"releasing ungranted request on {self.name}")
        self._serving = serving + 1
        waiting = self._waiting
        if waiting:
            self._lane.append(waiting.popleft())
        else:
            self.busy = False
