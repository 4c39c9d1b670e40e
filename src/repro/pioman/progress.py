"""The PIOMan progress engine."""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.hardware.core import Core
from repro.hardware.machine import Machine
from repro.networks.nic import Nic
from repro.networks.transfer import Transfer, TransferKind
from repro.obs.hooks import Hooks
from repro.pioman.requests import SendRequest
from repro.simtime import SimEvent
from repro.threading.marcel import MarcelScheduler
from repro.threading.tasklet import Tasklet


class PiomanEngine:
    """Per-machine I/O progression: rx dispatch and send offloading.

    Parameters
    ----------
    machine:
        The node this engine progresses.
    marcel:
        The node's thread scheduler (supplies core availability and runs
        the offloading tasklets).
    multicore_rx:
        The paper's future-work direction ("the multithreading subsystem
        ... has to be improved"): when True, receive-side processing may
        spill onto other *idle* cores once the polling core is occupied,
        so simultaneous arrivals on two rails are copied out in parallel.
        Off by default — the paper's measured configuration polls on one
        core, and Figs. 3/4's serialization depends on it.
    """

    def __init__(
        self,
        machine: Machine,
        marcel: Optional[MarcelScheduler] = None,
        multicore_rx: bool = False,
    ) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.marcel = marcel or MarcelScheduler(machine)
        #: the core receive-side processing runs on: core 0, the
        #: application/communication core of the paper's single-threaded
        #: ping-pong benchmarks
        self.poll_core: Core = machine.cores[0]
        self.multicore_rx = multicore_rx
        self.rx_spills: int = 0
        #: protocol handler installed by the NewMadeleine engine;
        #: called (on the poll core, costs already charged) per transfer
        self.rx_dispatch: Optional[Callable[[Transfer, Nic], None]] = None
        self.to_be_sent: Deque[SendRequest] = deque()
        self.events_detected: int = 0
        self.offloads: int = 0
        self.interrupts: int = 0
        #: the cluster's hook stream; the engine installs its own
        self.hooks = Hooks()

    def __repr__(self) -> str:
        return (
            f"<PiomanEngine {self.machine.name}: poll core "
            f"{self.poll_core.core_id}, {len(self.to_be_sent)} queued sends>"
        )

    # ------------------------------------------------------------------ #
    # receive side
    # ------------------------------------------------------------------ #

    def bind(self) -> None:
        """Attach to every NIC currently on the machine.

        Call after all NICs are wired (the engine's builder does this).
        """
        for nic in self.machine.nics:
            nic.rx_handler = self._make_rx_handler(nic)

    def _make_rx_handler(self, nic: Nic) -> Callable[[Transfer], None]:
        # the poll core's occupancy label, read only by on_busy subscribers
        label = f"rx:{nic.name}"

        def handler(transfer: Transfer) -> None:
            self._on_rx(transfer, nic, label)

        return handler

    def _on_rx(self, transfer: Transfer, nic: Nic, label: str) -> None:
        """A transfer's last byte arrived at ``nic``; detect + process it.

        PIOMan "is able to choose the most appropriate method (polling or
        interrupt-based blocking call) depending on the context (number
        of computing threads, available CPUs, etc.)" (§III-A):

        * poll core free of compute threads → **polling**: the cost runs
          on the poll core's FIFO (concurrent arrivals serialize — the
          §II-C structure);
        * ``multicore_rx`` and the poll core busy → spill to an idle
          polling core (no signalling cost: it is already spinning);
        * a compute thread owns the poll core (and no idle core) →
          **interrupt**: preempt the thread (the topology's 6 µs), run
          the receive processing, resume it.  Without this branch a
          computing receiver would starve incoming traffic forever.
        """
        profile = nic.profile
        if transfer.kind is TransferKind.EAGER:
            cost = profile.eager_recv_cpu(transfer.size)
        else:
            cost = profile.poll_detect
        core = self.poll_core
        if self.multicore_rx and not core.is_idle:
            core = self._spill(core) or core
        if self.marcel.thread_on(core) is not None:
            spill = self._spill(core)
            if spill is None:
                self._rx_via_interrupt(transfer, nic, core, cost)
                return
            core = spill
        core.run(cost, self._rx_done, transfer, nic, label=label)

    def _spill(self, busy: Core) -> Optional[Core]:
        """An idle core to take receive processing off ``busy``, counted
        as a spill; None when every other core is taken.

        Idle cores are already spinning in PIOMan, so a spill costs no
        signal — unlike the send-side 3 µs.
        """
        idle = self.marcel.idle_cores(exclude=busy)
        if not idle:
            return None
        self.rx_spills += 1
        if self.hooks.on_rx_spill:
            self.hooks.on_rx_spill(self.machine.name)
        return idle[0]

    def _rx_via_interrupt(self, transfer: Transfer, nic: Nic, core: Core, cost: float) -> None:
        """Interrupt-based event handling: preempt the computing thread
        on ``core``, process the event, let the thread resume."""
        self.interrupts += 1
        if self.hooks.on_rx_interrupt:
            self.hooks.on_rx_interrupt(nic, transfer, core, cost)
        tasklet = Tasklet(
            body=lambda: self._rx_done(transfer, nic),
            name=f"rx-irq:{nic.name}",
            cpu_cost=cost,
        )
        self.marcel.schedule_tasklet(tasklet, core, from_core=None)

    def _rx_done(self, transfer: Transfer, nic: Nic) -> None:
        self.events_detected += 1
        transfer.t_complete = self.sim.now
        if self.rx_dispatch is not None:
            self.rx_dispatch(transfer, nic)

    # ------------------------------------------------------------------ #
    # send-side offloading (paper §III-D, Fig. 7)
    # ------------------------------------------------------------------ #

    def available_cores(
        self, exclude: Optional[Core] = None
    ) -> List[Tuple[Core, bool]]:
        """Cores a send could be offloaded to, cheapest first.

        Returns ``(core, needs_preempt)`` pairs: idle cores (3 µs signal)
        before preemptable computing cores (6 µs signal).
        """
        idle = [(c, False) for c in self.marcel.idle_cores(exclude=exclude)]
        busy = [(c, True) for c in self.marcel.preemptable_cores(exclude=exclude)]
        return idle + busy

    def register_sends(
        self,
        requests: List[SendRequest],
        issuing_core: Core,
    ) -> List[Tasklet]:
        """Register chunk submissions and signal cores to pick them up.

        The first request stays on ``issuing_core`` (no signalling cost:
        the strategy already runs there); each further request is handed
        to the cheapest available core via a tasklet.  If no other core
        can take a request, it falls back to the issuing core — correct,
        merely serialized, exactly the single-core behaviour the paper
        improves on.
        """
        if not requests:
            return []
        now = self.sim.now
        for req in requests:
            req.t_registered = now
        self.to_be_sent.extend(requests)

        tasklets: List[Tasklet] = []
        # One picker per registered request: the issuing core first, then
        # one remote core per remaining request.
        pickers: List[Tuple[Core, bool]] = [(issuing_core, False)]
        pickers += self.available_cores(exclude=issuing_core)[: len(requests) - 1]
        while len(pickers) < len(requests):
            pickers.append((issuing_core, False))  # fallback: serialize locally

        for core, needs_preempt in pickers:
            tasklet = Tasklet(
                body=self._make_picker(core),
                name=f"pick@core{core.core_id}",
            )
            if core is issuing_core:
                # Local pickup: no signal, run inline at this instant.
                tasklet.t_created = tasklet.t_signalled = now
                self.marcel.schedule_tasklet(tasklet, core, from_core=issuing_core)
            else:
                self.offloads += 1
                if self.hooks.on_offload:
                    self.hooks.on_offload(
                        self.machine, core, issuing_core, needs_preempt,
                        len(self.to_be_sent), now,
                    )
                self.marcel.schedule_tasklet(tasklet, core, from_core=issuing_core)
            tasklets.append(tasklet)
        return tasklets

    def _make_picker(self, core: Core):
        def picker():
            # "one of the requests is selected and the corresponding data
            # is sent over the given network" (§III-D).
            if not self.to_be_sent:
                return None  # spurious wake-up: another core drained the list
            req = self.to_be_sent.popleft()
            req.t_picked = self.sim.now
            req.picked_by_core = core.core_id
            # Hand the transmit-phase completion back to Marcel so a
            # preempted victim only resumes after the PIO copy drained.
            # The picker is its one waiter, so it creates the event: the
            # NIC triggers it only on transfers that carry one.
            transfer = req.transfer
            if transfer.tx_done is None:
                transfer.tx_done = SimEvent(
                    self.sim, name=f"transfer{transfer.transfer_id}.tx_done"
                )
            req.nic.submit(transfer, core)
            return transfer.tx_done

        return picker
