"""A CPU core as a serially-occupied virtual-time resource.

Occupancy is callback style: ``core.run(cost, fn, *args)`` queues a
work item; when the core reaches it, it holds the core ``cost`` µs then
calls ``fn``.  ``core.declare(cost)`` then ``core.hold(cost, fn,
*args)`` splits the announcement from the occupancy, for work that
waits on something else first (a NIC transmit engine, a tasklet's
signal).  Each occupancy is a ticket on the core's
:class:`~repro.simtime.Resource` plus a lane hop and a timer: no
process, no generator, no request object.

PIO copies, tasklet bodies, receive processing and application compute
threads all take tickets from that one FIFO, so they contend for the
core exactly as they would on real hardware.

Every completed occupancy goes out once as an ``on_busy`` event on the
core's hook stream (the owning engine installs the cluster's), which is
how a :class:`~repro.obs.timeline.Timeline` sees core lanes; the core
itself keeps only its total busy time.

The core also keeps the two pieces of bookkeeping the paper's strategy
needs: *is the core idle right now?* (the strategy splits into at most
``min(#idle NICs, #idle cores)`` chunks, §III-B) and *when will it become
idle?* (idle-time prediction, §II-B / Fig. 2 — applied to cores the same
way it is applied to NICs).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.obs.hooks import Hooks
from repro.simtime import Resource, Simulator
from repro.util.errors import SchedulingError


class Core:
    """A single CPU core.

    Parameters
    ----------
    sim:
        The simulator this core lives in.
    core_id:
        Global core index within the machine.
    socket_id:
        Socket (package) the core belongs to (see
        :class:`~repro.hardware.topology.CpuTopology`).
    """

    def __init__(self, sim: Simulator, core_id: int, socket_id: int = 0) -> None:
        self.sim = sim
        self.core_id = core_id
        self.socket_id = socket_id
        self._res = Resource(sim, name=f"core{core_id}")
        self._busy_until: float = 0.0
        #: total µs this core has been held, summed in completion order
        self.busy_time: float = 0.0
        #: the cluster's hook stream; installed by the owning engine
        self.hooks = Hooks()

    def __repr__(self) -> str:
        state = "idle" if self.is_idle else f"busy until {self._busy_until:.2f}"
        return f"<Core {self.core_id} (socket {self.socket_id}) {state}>"

    # ------------------------------------------------------------------ #
    # state queries used by the strategy layer
    # ------------------------------------------------------------------ #

    @property
    def is_idle(self) -> bool:
        """True when nothing holds or waits for the core *and* no declared
        work extends past the current instant."""
        return (
            not self._res.busy
            and self._res.queued == 0
            and self.sim.now >= self._busy_until
        )

    @property
    def busy_until(self) -> float:
        """Predicted instant the core frees up, given declared work costs.

        For an idle core this is the current time.  The prediction is
        exact as long as every occupier declared its true cost — which the
        engine guarantees, since PIO copy durations are computed from the
        message size before the copy is issued.
        """
        return max(self.sim.now, self._busy_until)

    def utilization(self) -> float:
        """Fraction of ``[0, now]`` the core spent occupied."""
        if self.sim.now <= 0:
            return 0.0
        return self.busy_time / self.sim.now

    # ------------------------------------------------------------------ #
    # occupancy
    # ------------------------------------------------------------------ #

    def run(
        self,
        cost: float,
        callback: Optional[Callable[..., None]] = None,
        *args: Any,
        label: str = "work",
    ) -> None:
        """Callback-style occupancy: queue ``cost`` µs of work, then call
        ``callback(*args)`` (if given) the instant the work completes.

        The work is declared now and joins the core FIFO one same-instant
        hop later.
        """
        if cost < 0:
            raise SchedulingError(f"negative occupancy cost: {cost}")
        self._declare(cost)
        self.sim.call_soon(
            self._res.acquire, self._start, cost, label, None, callback, args
        )

    def declare(self, cost: float) -> None:
        """Pre-announce ``cost`` µs of imminent work (feeds :attr:`busy_until`).

        Used when the work item will start after an external wait (e.g. a
        PIO copy queued behind a NIC transmit engine) but the strategy
        must already see the core as committed.  Pair with :meth:`hold`,
        which performs the occupancy *without* declaring again.
        """
        if cost < 0:
            raise SchedulingError(f"negative occupancy cost: {cost}")
        self._declare(cost)

    def hold(
        self,
        cost: float,
        callback: Optional[Callable[..., None]] = None,
        *args: Any,
        label: str = "work",
        on_start: Optional[Callable[..., None]] = None,
    ) -> None:
        """Callback-style occupancy for work already announced via
        :meth:`declare`: join the core FIFO now, hold the core ``cost``
        µs, release it, then call ``callback(*args)`` (if given).

        ``on_start(*args)`` (if given) runs the instant the core is
        actually acquired — the precise start of the copy, which
        timing-sensitive callers (the NIC pipelines) need to timestamp.
        """
        if cost < 0:
            raise SchedulingError(f"negative occupancy cost: {cost}")
        self._res.acquire(self._start, cost, label, on_start, callback, args)

    # ------------------------------------------------------------------ #
    # callback-style occupancy steps
    # ------------------------------------------------------------------ #

    def _start(self, ticket, cost, label, on_start, callback, args) -> None:
        start = self.sim.now
        if on_start is not None:
            on_start(*args)
        self.sim.call_later(cost, self._end, ticket, start, label, callback, args)

    def _end(self, ticket, start, label, callback, args) -> None:
        self._res.release(ticket)
        self._record(start, self.sim.now, label)
        if callback is not None:
            callback(*args)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _declare(self, cost: float) -> None:
        base = max(self.sim.now, self._busy_until)
        self._busy_until = base + cost

    def _record(self, start: float, end: float, label: str) -> None:
        self.busy_time += end - start
        hooks = self.hooks
        if hooks.on_busy:
            hooks.on_busy(self, start, end, label)
