"""Preemptable application compute threads.

A :class:`ComputeThread` models the application's computation phase: it
occupies one core for a total budget of CPU work (possibly unbounded) and
can be preempted so a communication tasklet may run (paper §III-D: "a
signal is sent in order to preempt the thread and to let the packet
submission occur").  After the tasklet finishes, the thread resumes and
completes its *remaining* work — no progress is lost, only time.

The thread is a callback chain on its core's ticket lock.  Each slice
claims the core with ``acquire`` and arms a deadline for the remaining
work; the slice ends when the deadline fires or when a preemption
signal lands, whichever comes first.  A preempted slice's deadline
stays armed and fires as a no-op: cancelling it would take an event
out of ``events_processed`` and could move the clock a run drains at.
"""

from __future__ import annotations

import math
from typing import Optional, TYPE_CHECKING

from repro.hardware.core import Core
from repro.simtime import SimEvent
from repro.util.errors import SchedulingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.threading.marcel import MarcelScheduler

class ComputeThread:
    """An application thread bound to one core.

    Parameters
    ----------
    marcel:
        Owning scheduler (registers/unregisters the thread per core).
    core:
        The core this thread computes on.
    work_us:
        Total CPU time to consume; ``None`` means compute forever.
    preemptable:
        Whether PIOMan may preempt this thread to run a tasklet.  Matches
        the paper's signal-based preemption; non-preemptable threads make
        their core unavailable to the offloading machinery.
    """

    def __init__(
        self,
        marcel: "MarcelScheduler",
        core: Core,
        work_us: Optional[float] = None,
        preemptable: bool = True,
        name: str = "compute",
    ) -> None:
        if work_us is not None and work_us < 0:
            raise SchedulingError(f"negative compute budget: {work_us}")
        self.marcel = marcel
        self.core = core
        self.sim = core.sim
        self.name = name
        self.preemptable = preemptable
        self.total_work = math.inf if work_us is None else float(work_us)
        self.finished = SimEvent(self.sim, name=f"{name}.finished")
        self.preempt_count: int = 0
        self._completed: float = 0.0
        self._slice_start: float = 0.0
        #: the core ticket of the running slice; None off the core
        self._ticket: Optional[int] = None
        #: True while a preemption signal is on its way to the thread
        self._signalled = False
        #: the resume gate: None outside a preemption, False once
        #: preempt() armed it, True once resume() opened it
        self._gate: Optional[bool] = None
        #: True while the thread waits off its core for the gate to open
        self._parked = False
        marcel._register_thread(self)
        self.sim.call_soon(self._claim)

    def __repr__(self) -> str:
        return (
            f"<ComputeThread {self.name} on core {self.core.core_id}: "
            f"{self.progress:.1f}/{self.total_work} us>"
        )

    @property
    def done(self) -> bool:
        return self.finished.triggered

    @property
    def on_core(self) -> bool:
        """True while the thread actually holds its core's slot."""
        return self._ticket is not None

    @property
    def signalled(self) -> bool:
        """True from :meth:`preempt` until its signal lands: the thread
        still holds its core but is already being preempted."""
        return self._signalled

    @property
    def progress(self) -> float:
        """CPU time consumed so far, live (includes the current slice)."""
        if self._ticket is not None:
            return self._completed + (self.sim.now - self._slice_start)
        return self._completed

    @property
    def remaining(self) -> float:
        return max(0.0, self.total_work - self.progress)

    # ------------------------------------------------------------------ #
    # preemption protocol (driven by MarcelScheduler)
    # ------------------------------------------------------------------ #

    def preempt(self) -> SimEvent:
        """Signal the thread off its core; returns the event that fires
        when the core slice was released.  :meth:`resume` is legal from
        the moment this returns.

        The signal lands one same-instant hop later.  Raises unless the
        thread is currently holding the core, is preemptable and no
        signal is already on its way.
        """
        if not self.preemptable:
            raise SchedulingError(f"{self.name} is not preemptable")
        if self._ticket is None:
            raise SchedulingError(f"{self.name} is not on its core right now")
        if self._signalled:
            raise SchedulingError(f"{self.name} is already being preempted")
        released = SimEvent(self.sim, name=f"{self.name}.released")
        self._signalled = True
        self._gate = False
        self.sim.call_soon(self._land, self._ticket, released)
        return released

    def resume(self) -> None:
        """Let a preempted thread re-queue for its core.

        Legal any time after :meth:`preempt`; the thread re-queues one
        hop after it has actually released its slice.
        """
        if self._gate is not False:
            raise SchedulingError(f"{self.name} is not waiting to resume")
        self._gate = True
        if self._parked:
            self._parked = False
            self.sim.call_soon(self._wake)

    # ------------------------------------------------------------------ #
    # thread body: claim, run, and leave the core on deadline or signal
    # ------------------------------------------------------------------ #

    def _claim(self) -> None:
        """Queue for the core while work remains; else finish."""
        if self.remaining > 0:
            self.core._res.acquire(self._run)
        else:
            self.marcel._unregister_thread(self)
            self.finished.trigger(self.progress)

    def _run(self, ticket: int) -> None:
        """The core is granted: compute until the work runs out."""
        self._ticket = ticket
        self._slice_start = self.sim.now
        # An unbounded thread waits on the preempt signal alone — a
        # deadline at infinity would keep the event queue alive and
        # make Simulator.run() jump to the end of time.
        remaining = self.remaining
        if not math.isinf(remaining):
            self.sim.call_later(remaining, self._deadline, ticket)

    def _deadline(self, ticket: int) -> None:
        # A preempted slice's deadline is a no-op.
        if ticket == self._ticket:
            self._leave_core()
            self._claim()

    def _land(self, ticket: int, released: SimEvent) -> None:
        """The preemption signal lands: leave the core, acknowledge the
        release, and park until :meth:`resume` opens the gate."""
        self._signalled = False
        if ticket != self._ticket:
            # The deadline ended the slice first and already freed the
            # core: the preempting tasklet may start.
            released.trigger()
            return
        self._leave_core()
        self.preempt_count += 1
        released.trigger()
        if self._gate:
            self.sim.call_soon(self._wake)
        else:
            self._parked = True

    def _wake(self) -> None:
        self._gate = None
        self._claim()

    def _leave_core(self) -> None:
        start = self._slice_start
        now = self.sim.now
        self._completed += now - start
        ticket = self._ticket
        self._ticket = None
        self.core._res.release(ticket)
        self.core._record(start, now, f"compute:{self.name}")
