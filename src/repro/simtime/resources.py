"""One-slot resources with FIFO queuing.

A :class:`Resource` models anything that serializes access in virtual
time — a CPU core executing PIO copies, a NIC's transmit engine.
Requests are themselves waitables, so processes can write::

    req = core_resource.request()
    yield req                  # granted when the slot frees up
    yield Timeout(copy_cost)   # hold the core for the copy duration
    core_resource.release(req)

Callback code passes its continuation instead:
``core_resource.acquire(fn, *args)`` runs ``fn(req, *args)`` at the
point where such a process would resume from ``yield req``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.simtime.process import Waitable
from repro.simtime.simulator import LaneEntry, Simulator
from repro.util.errors import SimulationError


class ResourceRequest(Waitable):
    """A pending or granted claim on a :class:`Resource`.

    One waiter per claim: the process that yields it, or the callback
    given to :meth:`Resource.acquire`.  The waiter resumes one
    same-instant hop after the grant.
    """

    __slots__ = ("resource", "granted", "released", "_then")

    def __init__(self, resource: "Resource") -> None:
        self.resource = resource
        self.granted = False
        self.released = False
        #: the waiter's lane entry, held until the grant
        self._then: Optional[LaneEntry] = None

    def subscribe(self, sim: Simulator, callback) -> None:
        self._wait(callback, (self,))

    def _wait(self, callback: Callable[..., None], args: tuple) -> None:
        if self.granted:
            self.resource.sim._lane.append((callback, args, None))
        elif self._then is None:
            self._then = (callback, args, None)
        else:
            raise SimulationError(
                f"request on {self.resource.name} already has a waiter"
            )

    def _grant(self) -> None:
        self.granted = True
        then = self._then
        if then is not None:
            self._then = None
            self.resource.sim._lane.append(then)


class Resource:
    """A one-slot resource with deterministic FIFO admission.

    Requests beyond the holder queue in arrival order.  The grant
    happens *inline* at release time (not deferred), so utilization
    accounting sees no artificial gaps — important when asserting that a
    core is 100 % busy during serialized PIO copies (paper Fig. 4a).
    """

    def __init__(self, sim: Simulator, name: str = "resource") -> None:
        self.sim = sim
        self.name = name
        #: True while a request holds the slot
        self.busy = False
        self._waiting: Deque[ResourceRequest] = deque()

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
        req = ResourceRequest(self)
        if not self.busy:
            self.busy = True
            req.granted = True
        else:
            self._waiting.append(req)
        return req

    def acquire(self, callback: Callable[..., None], *args: Any) -> ResourceRequest:
        """Claim the slot, callback style: ``callback(req, *args)`` runs
        where a process would resume from ``yield req``."""
        req = self.request()
        req._wait(callback, (req, *args))
        return req

    def release(self, req: ResourceRequest) -> None:
        """Return a granted slot; the next FIFO waiter (if any) is granted."""
        if not req.granted:
            raise SimulationError(f"releasing ungranted request on {self.name}")
        if req.released:
            raise SimulationError(f"double release on {self.name}")
        req.released = True
        if self._waiting:
            self._waiting.popleft()._grant()
        else:
            self.busy = False
