"""The Marcel scheduler: tasklet placement and the preemption protocol.

One :class:`MarcelScheduler` per machine.  It owns the per-core view of
running compute threads (the information PIOMan asks for, paper §III-A:
"the MARCEL thread scheduler ... provides information on the running
threads and the available CPUs") and executes tasklets on target cores,
charging the topology's signalling costs.

A tasklet is a callback chain, one hop per step of the protocol: a lane
hop to start, a 0.5 µs timer per look at a victim that is not back on
its core, the victim's ``released`` event, a timer for the signalling
cost, a ticket on the target core for the body's CPU cost, and the
``tx_done`` the body may hand back.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

from repro.hardware.core import Core
from repro.hardware.machine import Machine
from repro.simtime.process import Waitable
from repro.threading.compute import ComputeThread
from repro.threading.tasklet import Tasklet, TaskletState
from repro.util.errors import SchedulingError


class MarcelScheduler:
    """Per-machine tasklet scheduler and thread registry."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.sim = machine.sim
        self._threads: Dict[int, ComputeThread] = {}  # core_id -> thread
        self.tasklets_run: int = 0
        self.preemptions: int = 0

    def __repr__(self) -> str:
        return (
            f"<MarcelScheduler {self.machine.name}: "
            f"{len(self._threads)} threads, {self.tasklets_run} tasklets run>"
        )

    # ------------------------------------------------------------------ #
    # thread registry (consulted by PIOMan)
    # ------------------------------------------------------------------ #

    def spawn_compute(
        self,
        core: Core,
        work_us: Optional[float] = None,
        preemptable: bool = True,
        name: str = "compute",
    ) -> ComputeThread:
        """Start an application compute thread on ``core``."""
        if core.core_id in self._threads:
            raise SchedulingError(
                f"core {core.core_id} already runs "
                f"{self._threads[core.core_id].name!r}"
            )
        return ComputeThread(self, core, work_us, preemptable, name)

    def thread_on(self, core: Core) -> Optional[ComputeThread]:
        return self._threads.get(core.core_id)

    def idle_cores(self, exclude: Optional[Core] = None) -> List[Core]:
        """Cores with no compute thread and nothing on their run queue."""
        return [
            c
            for c in self.machine.idle_cores(exclude=exclude)
            if c.core_id not in self._threads
        ]

    def preemptable_cores(self, exclude: Optional[Core] = None) -> List[Core]:
        """Cores running a compute thread that accepts preemption."""
        return [
            c
            for c in self.machine.cores
            if c is not exclude
            and (t := self._threads.get(c.core_id)) is not None
            and t.preemptable
            and not t.done
            and t.on_core  # mid-preemption threads can't be preempted again
        ]

    # ------------------------------------------------------------------ #
    # tasklet execution
    # ------------------------------------------------------------------ #

    def schedule_tasklet(
        self,
        tasklet: Tasklet,
        target: Core,
        from_core: Optional[Core] = None,
    ) -> None:
        """Run ``tasklet`` on ``target``, signalled from ``from_core``.

        Charges ``topology.signal_cost`` (3 µs idle / 6 µs preempt by
        default) between the signal and the moment the body may start —
        the TO of the paper's equation (1).  The tasklet's ``state``
        reads ``DONE`` once its body, and any work the body returned,
        finished.

        If the target runs a preemptable compute thread, the thread is
        signalled off the core, the tasklet runs, then the thread resumes
        — the full §III-D protocol.  The tasklet is a callback chain
        whose first step runs one same-instant hop from now.
        """
        if tasklet.state is not TaskletState.PENDING:
            raise SchedulingError(f"{tasklet!r} was already scheduled")
        if target not in self.machine.cores:
            raise SchedulingError(
                f"core {target.core_id} does not belong to {self.machine.name}"
            )
        victim = self._threads.get(target.core_id)
        if victim is not None and not victim.preemptable:
            raise SchedulingError(
                f"core {target.core_id} runs non-preemptable {victim.name!r}"
            )
        tasklet.state = TaskletState.SCHEDULED
        tasklet.t_created = tasklet.t_created or self.sim.now
        tasklet.t_signalled = self.sim.now
        tasklet.core_id = target.core_id
        if from_core is not None:
            cost = self.machine.topology.signal_cost(
                from_core.core_id, target.core_id, preempt=victim is not None
            )
        else:
            # No originating core: a hardware interrupt (PIOMan's blocking
            # -call path).  Free on an idle core; the preemption cost when
            # a computing thread must be signalled off.
            cost = (
                self.machine.topology.preempt_cost_us if victim is not None else 0.0
            )
        self.sim.call_soon(self._look, tasklet, target, victim, cost)

    def _look(self, tasklet, target, victim, cost) -> None:
        """Signal ``victim`` off ``target``, or go straight to the
        signalling cost when the core has no (live) victim.

        A victim parked by a concurrent tasklet, or with another
        preemption already on its way, is looked at again every 0.5 µs
        until it is back on its core (or gone), so the preemption
        handshake is well-defined.
        """
        if victim is None or victim.done:
            self._signal(tasklet, target, None, cost)
        elif not victim.on_core or victim.signalled:
            self.sim.call_later(0.5, self._look, tasklet, target, victim, cost)
        else:
            tasklet.preempted_someone = True
            self.preemptions += 1
            released = victim.preempt()
            # the thread's core slice is actually free once this fires
            released.subscribe(
                self.sim, partial(self._signal, tasklet, target, victim, cost)
            )

    def _signal(self, tasklet, target, victim, cost, _released=None) -> None:
        """The target core is free for the tasklet: charge the
        signalling cost, then start it."""
        if cost > 0:
            self.sim.call_later(cost, self._start, tasklet, target, victim)
        else:
            self._start(tasklet, target, victim)

    def _start(self, tasklet, target, victim) -> None:
        tasklet.state = TaskletState.RUNNING
        tasklet.t_started = self.sim.now
        cpu_cost = tasklet.cpu_cost
        if cpu_cost > 0:
            target.declare(cpu_cost)
            target.hold(
                cpu_cost, self._run_body, tasklet, victim,
                label=f"tasklet:{tasklet.name}",
            )
        else:
            self._run_body(tasklet, victim)

    def _run_body(self, tasklet, victim) -> None:
        continuation = tasklet.body()
        if isinstance(continuation, Waitable):
            # The body started asynchronous work on this core (e.g. a NIC
            # submission whose PIO copy runs later); the tasklet — and in
            # particular the release of its preemption victim — must wait
            # for it, or the victim would retake the core and starve the
            # copy forever.
            continuation.subscribe(self.sim, partial(self._finish, tasklet, victim))
        else:
            self._finish(tasklet, victim)

    def _finish(self, tasklet, victim, _value=None) -> None:
        tasklet.state = TaskletState.DONE
        tasklet.t_finished = self.sim.now
        self.tasklets_run += 1
        if victim is not None and not victim.done:
            victim.resume()

    # ------------------------------------------------------------------ #
    # ComputeThread registry hooks
    # ------------------------------------------------------------------ #

    def _register_thread(self, thread: ComputeThread) -> None:
        self._threads[thread.core.core_id] = thread

    def _unregister_thread(self, thread: ComputeThread) -> None:
        if self._threads.get(thread.core.core_id) is thread:
            del self._threads[thread.core.core_id]
