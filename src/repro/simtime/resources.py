"""One-slot resources: a ticket lock with one FIFO.

A :class:`Resource` models anything that serializes access in virtual
time — a CPU core executing PIO copies, a NIC's transmit engine.  Every
claim takes the next ticket, and the slot serves tickets in order.

Callback code passes its continuation:
``core_resource.acquire(fn, *args)`` takes a ticket and runs
``fn(ticket, *args)`` one same-instant hop after the grant; the holder
hands the slot on with ``core_resource.release(ticket)``.  The grant is
the ticket, an int: nothing is built per claim but its lane entry.

Processes claim with :meth:`Resource.request`, whose
:class:`ResourceRequest` is a waitable::

    req = core_resource.request()
    yield req                  # granted when the slot frees up
    yield Timeout(copy_cost)   # hold the core for the copy duration
    core_resource.release(req)

Both styles take tickets from one counter and queue in one FIFO.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Union

from repro.simtime.process import Waitable
from repro.simtime.simulator import LaneEntry, Simulator
from repro.util.errors import SimulationError


class ResourceRequest(Waitable):
    """A process's pending or granted claim on a :class:`Resource`.

    One waiter per claim: the process that yields it.  The waiter
    resumes one same-instant hop after the grant.
    """

    __slots__ = ("resource", "ticket", "granted", "_then")

    def __init__(self, resource: "Resource", ticket: int) -> None:
        self.resource = resource
        self.ticket = ticket
        self.granted = False
        #: the waiter's lane entry, held until the grant
        self._then: Optional[LaneEntry] = None

    def subscribe(self, sim: Simulator, callback) -> None:
        if self.granted:
            self.resource._lane.append((callback, (self,), None))
        elif self._then is None:
            self._then = (callback, (self,), None)
        else:
            raise SimulationError(
                f"request on {self.resource.name} already has a waiter"
            )

    def _grant(self) -> None:
        self.granted = True
        then = self._then
        if then is not None:
            self._then = None
            self.resource._lane.append(then)


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
        #: queued claims in ticket order: a callback's lane entry, or a
        #: process's request
        self._waiting: Deque[Union[LaneEntry, ResourceRequest]] = deque()

    def __repr__(self) -> str:
        return (
            f"<Resource {self.name} {'busy' if self.busy else 'free'}"
            f" (+{len(self._waiting)} queued)>"
        )

    @property
    def queued(self) -> int:
        return len(self._waiting)

    def request(self) -> ResourceRequest:
        """Claim the slot; the returned request is waitable."""
        ticket = self._next
        self._next = ticket + 1
        req = ResourceRequest(self, ticket)
        if self.busy:
            self._waiting.append(req)
        else:
            self.busy = True
            req.granted = True
        return req

    def acquire(self, callback: Callable[..., None], *args: Any) -> int:
        """Claim the slot, callback style: ``callback(ticket, *args)``
        runs where a process would resume from ``yield req``.  Returns
        the ticket, which is the grant :meth:`release` takes back."""
        ticket = self._next
        self._next = ticket + 1
        entry = (callback, (ticket, *args), None)
        if self.busy:
            self._waiting.append(entry)
        else:
            self.busy = True
            self._lane.append(entry)
        return ticket

    def release(self, grant: Union[int, ResourceRequest]) -> None:
        """Return a granted slot (a ticket, or a process's request); the
        next FIFO waiter (if any) is granted."""
        ticket = grant.ticket if isinstance(grant, ResourceRequest) else grant
        serving = self._serving
        if ticket != serving or not self.busy:
            if ticket < serving:
                raise SimulationError(f"double release on {self.name}")
            raise SimulationError(f"releasing ungranted request on {self.name}")
        self._serving = serving + 1
        waiting = self._waiting
        if waiting:
            head = waiting.popleft()
            if head.__class__ is tuple:
                self._lane.append(head)
            else:
                head._grant()
        else:
            self.busy = False
