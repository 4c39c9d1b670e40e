"""NIC state machine: transmit FIFO, busy-time prediction, delivery.

The NIC is where the paper's two key observables live:

* :attr:`Nic.is_idle` — drives the greedy strategy ("when a NIC becomes
  idle, it looks after the next communication") and bounds the split
  factor ``min(#idle NICs, #idle cores)``;
* :attr:`Nic.busy_until` — the idle-time prediction of §II-B/Fig. 2: the
  strategy adds "the time remaining before it becomes idle" to each NIC's
  predicted transfer time.

Send pipelines (see package docstring for the full timing model):

* *eager* — the issuing core performs the PIO copy while the NIC transmit
  engine is held, so two eager sends from one core serialize (Fig. 4a)
  while two cores can drive two NICs in parallel (Fig. 4c);
* *rendezvous data* — the core only programs the DMA; the NIC is busy for
  ``size/dma_rate`` with no CPU involvement;
* *control* — a tiny post on the core, negligible NIC time.

Fault model (``repro.faults``): a NIC can be taken *down* (transfers
pending on its transmit engine are aborted; deliveries addressed to it
are dropped) and *degraded* (transmit times stretched by ``1/bw_factor``,
``extra_latency`` added per delivery).  Deterministic drop rules model
eager-packet loss and stalled rendezvous handshakes.  All state changes
are plain simulator events, so faulty runs stay bit-reproducible.

The NIC keeps no log of what it did: each transmit, background
occupancy and fault transition goes out once on its hook stream
(``on_tx``, ``on_busy``, ``on_nic_*``), and only the transmit engine's
total busy time stays on the NIC.
"""

from __future__ import annotations

from typing import Callable, List, Optional, TYPE_CHECKING

from repro.hardware.core import Core
from repro.hardware.machine import Machine
from repro.networks.profile import NetworkProfile
from repro.networks.transfer import Transfer, TransferKind, wire_checksum
from repro.obs.hooks import Hooks
from repro.simtime import Resource, SimEvent, Simulator
from repro.util.errors import ConfigurationError, SchedulingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.networks.drivers.base import Driver
    from repro.networks.wire import Wire


class DropRule:
    """Deterministic packet-drop rule active on one NIC.

    ``kinds`` restricts which :class:`TransferKind` values the rule may
    drop; ``probability`` draws from the rule's own seeded RNG — the
    draws happen in event order, so two runs of the same schedule drop
    exactly the same packets.
    """

    def __init__(
        self,
        kinds: frozenset,
        probability: float,
        rng,
        label: str = "loss",
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(f"drop probability {probability} outside [0, 1]")
        self.kinds = kinds
        self.probability = probability
        self.rng = rng
        self.label = label
        self.drops = 0

    def should_drop(self, transfer: Transfer) -> bool:
        if transfer.kind not in self.kinds:
            return False
        if self.probability >= 1.0 or self.rng.random() < self.probability:
            self.drops += 1
            return True
        return False


class Nic:
    """One network interface card on one machine."""

    def __init__(self, machine: Machine, driver: "Driver", name: Optional[str] = None) -> None:
        self.machine = machine
        self.sim: Simulator = machine.sim
        self.driver = driver
        self.profile: NetworkProfile = driver.profile
        self.name = name or f"{self.profile.name}{len(machine.nics)}"
        self.wire: Optional["Wire"] = None
        self._tx = Resource(self.sim, capacity=1, name=f"{self.qualified_name}.tx")
        self._busy_until: float = 0.0
        self.rx_handler: Optional[Callable[[Transfer], None]] = None
        self.idle_listeners: List[Callable[["Nic"], None]] = []
        #: total µs the transmit engine has been held, summed in
        #: completion order (transfers, aborted ones included, and
        #: injected background work)
        self.busy_time: float = 0.0
        self.bytes_sent: int = 0
        self.transfers_sent: int = 0
        # -- fault/degradation state (driven by repro.faults) --
        self._up: bool = True
        self.bw_factor: float = 1.0
        self.extra_latency: float = 0.0
        # start of the current down / degraded spell (the ``since`` of
        # on_nic_up / on_nic_restore)
        self._down_since: float = 0.0
        self._degraded_since: float = 0.0
        # Silent degradation: slows the transmit engine like
        # ``bw_factor`` but is deliberately invisible to planning —
        # ``is_degraded`` stays False and no hook event fires.  Only the
        # prediction-error stream can notice it.
        self.silent_bw_factor: float = 1.0
        self.drop_rules: List[DropRule] = []
        self._pending: List[Transfer] = []  # submitted, transmit not drained
        self.down_listeners: List[Callable[["Nic", List[Transfer]], None]] = []
        self.up_listeners: List[Callable[["Nic"], None]] = []
        self.transfers_aborted: int = 0
        self.transfers_dropped: int = 0
        #: the cluster's hook stream; installed by the owning engine (and
        #: read by the wire or switch this NIC transmits into)
        self.hooks = Hooks()
        machine._attach_nic(self)

    def __repr__(self) -> str:
        if not self._up:
            state = "DOWN"
        elif self.is_idle:
            state = "idle"
        else:
            state = f"busy until {self._busy_until:.2f}"
        return f"<Nic {self.qualified_name} ({self.profile.name}) {state}>"

    @property
    def qualified_name(self) -> str:
        return f"{self.machine.name}.{self.name}"

    # ------------------------------------------------------------------ #
    # strategy-facing state
    # ------------------------------------------------------------------ #

    @property
    def is_idle(self) -> bool:
        """No transmit in flight, nothing queued, no declared work left.

        A down NIC is never idle — greedy/idle-driven strategies must not
        try to feed it.
        """
        return (
            self._up
            and self._tx.in_use == 0
            and self._tx.queued == 0
            and self.sim.now >= self._busy_until
        )

    @property
    def is_up(self) -> bool:
        """Link state: False while a scheduled NIC-down fault holds."""
        return self._up

    @property
    def is_degraded(self) -> bool:
        """True while a degradation fault stretches this NIC's timings."""
        return self.bw_factor != 1.0 or self.extra_latency != 0.0

    @property
    def busy_until(self) -> float:
        """Predicted instant the transmit engine frees up.

        Exact when every submitter declared its true transmit cost (the
        engine always does); never earlier than the current instant.
        """
        return max(self.sim.now, self._busy_until)

    def utilization(self) -> float:
        """Fraction of ``[0, now]`` the transmit engine was held."""
        if self.sim.now <= 0:
            return 0.0
        return self.busy_time / self.sim.now

    def inject_busy(self, duration: float) -> None:
        """Occupy the transmit engine with opaque background traffic.

        Used by the ablation benches to study the Fig. 2 idle-prediction
        rule under load from other communication flows.
        """
        if duration < 0:
            raise SchedulingError(f"negative busy injection: {duration}")
        self._declare(duration)
        self.sim.call_soon(self._tx.acquire, self._background_start, duration)

    def _background_start(self, req, duration: float) -> None:
        self.sim.schedule(duration, self._background_end, req, self.sim.now)

    def _background_end(self, req, start: float) -> None:
        self._tx.release(req)
        self.busy_time += self.sim.now - start
        hooks = self.hooks
        if hooks.on_busy:
            # labelled as DMA traffic, which is what it stands in for
            hooks.on_busy(self, start, self.sim.now, TransferKind.RDV_DATA.value)
        self._maybe_notify_idle()

    # ------------------------------------------------------------------ #
    # fault state machine (driven by repro.faults.FaultInjector)
    # ------------------------------------------------------------------ #

    def fail(self) -> List[Transfer]:
        """Take the link down.  Idempotent while already down.

        Every transfer whose transmit phase has not drained yet is
        aborted (its ``tx_done`` fires so offloading cores unblock, its
        ``done`` never fires) and handed to the ``down_listeners`` — the
        engine re-plans the stranded bytes onto surviving rails.
        """
        if not self._up:
            return []
        self._up = False
        self._down_since = self.sim.now
        aborted = [t for t in self._pending if t.t_tx_done is None]
        for t in aborted:
            t.aborted = True
            # Unblock offloading cores immediately; the send pipeline
            # notices the abort at its next link and bails.
            if t.tx_done is not None and not t.tx_done.triggered:
                t.tx_done.trigger(t)
        self.transfers_aborted += len(aborted)
        if self.hooks.on_nic_down:
            self.hooks.on_nic_down(self, aborted)
        for listener in list(self.down_listeners):
            listener(self, list(aborted))
        return aborted

    def recover(self) -> None:
        """Bring the link back up.  Idempotent while already up."""
        if self._up:
            return
        self._up = True
        if self.hooks.on_nic_up:
            self.hooks.on_nic_up(self, self._down_since)
        for listener in list(self.up_listeners):
            listener(self)
        self._maybe_notify_idle()

    def degrade(self, bw_factor: float = 1.0, extra_latency: float = 0.0) -> None:
        """Stretch this NIC's timings: transmit phases take ``1/bw_factor``
        longer, every delivery pays ``extra_latency`` extra µs.

        Degrading to the healthy timings (``bw_factor=1.0``, no extra
        latency) is :meth:`restore`: it ends a degradation window, and
        does nothing on a healthy NIC.
        """
        if bw_factor <= 0.0 or bw_factor > 1.0:
            raise ConfigurationError(
                f"degradation bw_factor must be in (0, 1], got {bw_factor}"
            )
        if extra_latency < 0.0:
            raise ConfigurationError(f"negative extra latency: {extra_latency}")
        if bw_factor == 1.0 and extra_latency == 0.0:
            self.restore()
            return
        if not self.is_degraded:
            self._degraded_since = self.sim.now
        self.bw_factor = bw_factor
        self.extra_latency = extra_latency
        if self.hooks.on_nic_degrade:
            self.hooks.on_nic_degrade(self, bw_factor, extra_latency)

    def restore(self) -> None:
        """End a degradation window (no-op when not degraded)."""
        if not self.is_degraded:
            return
        self.bw_factor = 1.0
        self.extra_latency = 0.0
        if self.hooks.on_nic_restore:
            self.hooks.on_nic_restore(self, self._degraded_since)

    def silent_degrade(self, bw_factor: float) -> None:
        """Slow the transmit engine *without announcing it*.

        Unlike :meth:`degrade`, this changes neither ``bw_factor`` nor
        ``is_degraded`` and emits no hook event — the predictor keeps
        planning with the healthy profile.  Only the drift loop
        (``repro.core.calibration``) can detect the resulting
        prediction-error growth.
        """
        if bw_factor <= 0.0 or bw_factor > 1.0:
            raise ConfigurationError(
                f"silent bw_factor must be in (0, 1], got {bw_factor}"
            )
        self.silent_bw_factor = bw_factor

    def silent_restore(self) -> None:
        """End a silent degradation (no-op when not silent)."""
        self.silent_bw_factor = 1.0

    def _drop_outgoing(self, transfer: Transfer) -> bool:
        """Evaluate the active drop rules against an outgoing transfer."""
        for rule in self.drop_rules:
            if rule.should_drop(transfer):
                transfer.dropped = True
                self.transfers_dropped += 1
                if self.hooks.on_drop:
                    self.hooks.on_drop(self, transfer, rule)
                return True
        return False

    def _abort_transfer(self, transfer: Transfer) -> None:
        """Mark a transfer dead on this NIC and unblock its submitter."""
        transfer.aborted = True
        self.transfers_aborted += 1
        if self.hooks.on_abort:
            self.hooks.on_abort(self, transfer)
        if transfer.tx_done is None:
            transfer.tx_done = SimEvent(
                self.sim, name=f"transfer{transfer.transfer_id}.tx_done"
            )
        if not transfer.tx_done.triggered:
            transfer.tx_done.trigger(transfer)

    # ------------------------------------------------------------------ #
    # send pipelines
    # ------------------------------------------------------------------ #

    def submit(self, transfer: Transfer, core: Core) -> SimEvent:
        """Hand ``transfer`` to this NIC, issued from ``core``.

        Returns the transfer's ``done`` event, triggered (with the
        transfer) when the *receive side* finished processing it.  The
        caller does not wait for the event to keep issuing — the NIC and
        core FIFOs provide the back-pressure.
        """
        if self.wire is None:
            raise ConfigurationError(f"{self!r} is not wired to a peer")
        if core not in self.machine.cores:
            raise SchedulingError(
                f"core {core.core_id} does not belong to {self.machine.name}"
            )
        if transfer.done is None:
            transfer.done = SimEvent(self.sim, name=f"transfer{transfer.transfer_id}.done")
        if transfer.tx_done is None:
            transfer.tx_done = SimEvent(
                self.sim, name=f"transfer{transfer.transfer_id}.tx_done"
            )
        transfer.t_submit = self.sim.now
        transfer.nic_name = self.qualified_name
        transfer.src_node = self.machine.name
        if not transfer.dst_node:
            # Point-to-point fabrics have a single peer; a shared switch
            # with >2 ports needs the destination set by the caller (the
            # engine's protocol constructors always set it).
            transfer.dst_node = self.wire.peer_of(self).machine.name
        if transfer.seq_no is None:
            # Delivery-integrity stamps (pure arithmetic, no events): a
            # per-message wire sequence number and a checksum over the
            # chunk's identity.  A retried clone arrives here unstamped
            # and gets fresh ones; stamps survive re-submission of the
            # same object (down-rail abort → inline re-plan).
            owner = transfer.payload.get("message")
            if owner is None:
                msgs = transfer.payload.get("messages")
                owner = msgs[0] if msgs else None
            if owner is not None:
                transfer.seq_no = owner.next_wire_seq()
                transfer.checksum = wire_checksum(transfer)

        if not self._up:
            # Submitting into a dead link aborts inline: tx_done fires so
            # offloading cores unblock, down_listeners get the transfer so
            # the engine can re-plan it, and done never fires here.
            self._abort_transfer(transfer)
            for listener in list(self.down_listeners):
                listener(self, [transfer])
            return transfer.done

        self._pending.append(transfer)
        if transfer.kind is TransferKind.EAGER:
            if transfer.size > self.profile.eager_limit:
                raise SchedulingError(
                    f"eager packet of {transfer.size}B exceeds "
                    f"{self.profile.name} eager limit {self.profile.eager_limit}B"
                )
            self._declare(self._eager_tx_time(transfer.size))
            self.sim.call_soon(self._eager_start, transfer, core)
        elif transfer.kind is TransferKind.RDV_DATA:
            self._declare(self._rdv_tx_time(transfer.size))
            self.sim.call_soon(self._rdv_start, transfer, core)
        else:  # control packet
            self._declare(0.0)
            self.sim.call_soon(self._control_start, transfer, core)
        return transfer.done

    def expected_tx_time(self, transfer: Transfer) -> float:
        """Transmit-engine occupancy this transfer will be declared with."""
        if transfer.kind is TransferKind.EAGER:
            return self._eager_tx_time(transfer.size)
        if transfer.kind is TransferKind.RDV_DATA:
            return self._rdv_tx_time(transfer.size)
        return 0.0

    # -- pipelines ---------------------------------------------------------

    def _eager_tx_time(self, size: int) -> float:
        """Transmit-engine hold for an eager packet: the PIO copy window."""
        t = self.profile.pio_copy_time(size)
        # Multiplying by 1.0 is IEEE-exact, so the healthy path and the
        # announced-degrade-only path stay bit-identical to the formula
        # before silent degradation existed.
        f = self.bw_factor * self.silent_bw_factor
        return t if f == 1.0 else t / f

    def _rdv_tx_time(self, size: int) -> float:
        """Transmit-engine hold for a rendezvous DMA chunk."""
        t = self.profile.rdv_nic_time(size)
        f = self.bw_factor * self.silent_bw_factor
        return t if f == 1.0 else t / f

    # Each pipeline is a chain of callbacks, one link per event: a start
    # hop, then core grant, core release, transmit-engine grant, ...  The
    # same-instant hops are not shortcuts to remove: each fixes the seq of
    # the events pushed after it, and so the order of exact-time ties.

    def _stamp_service(self, transfer: Transfer, *_) -> None:
        transfer.t_service_start = self.sim.now

    def _eager_start(self, transfer: Transfer, core: Core) -> None:
        # Fixed acquisition order (core, then NIC) rules out deadlock; the
        # core spinning while it waits for NIC doorbell space is also what
        # the hardware does.
        post = self.profile.post_overhead
        copy = self._eager_tx_time(transfer.size)
        core.declare(post)
        core.hold(
            post, self._eager_posted, transfer, core, copy,
            label=f"post:{self.name}", on_start=self._stamp_service,
        )

    def _eager_posted(self, transfer: Transfer, core: Core, copy: float) -> None:
        if transfer.aborted:
            self._finish_aborted(transfer)
            return
        # Declare the copy before waiting for the transmit engine so
        # strategy queries already see the core as committed to it.
        core.declare(copy)
        self._tx.acquire(self._eager_tx_granted, transfer, core, copy)

    def _eager_tx_granted(self, req, transfer: Transfer, core: Core, copy: float) -> None:
        if transfer.aborted:
            self._tx.release(req)
            self._finish_aborted(transfer)
            return
        core.hold(
            copy, self._eager_copied, req, transfer,
            label=f"pio:{self.name}", on_start=self._stamp_copy,
        )

    def _stamp_copy(self, req, transfer: Transfer) -> None:
        transfer.t_cpu_start = transfer.t_wire_start = self.sim.now

    def _eager_copied(self, req, transfer: Transfer) -> None:
        self._tx.release(req)
        self._finish_tx(transfer, start=transfer.t_cpu_start)

    def _rdv_start(self, transfer: Transfer, core: Core) -> None:
        cost = self.profile.rdv_send_cpu()
        core.declare(cost)
        core.hold(
            cost, self._rdv_set_up, transfer,
            label=f"rdv-setup:{self.name}", on_start=self._stamp_service,
        )

    def _rdv_set_up(self, transfer: Transfer) -> None:
        if transfer.aborted:
            self._finish_aborted(transfer)
            return
        self._tx.acquire(self._rdv_tx_granted, transfer)

    def _rdv_tx_granted(self, req, transfer: Transfer) -> None:
        if transfer.aborted:
            self._tx.release(req)
            self._finish_aborted(transfer)
            return
        transfer.t_wire_start = self.sim.now
        self.sim.schedule(
            self._rdv_tx_time(transfer.size), self._rdv_sent, req, transfer
        )

    def _rdv_sent(self, req, transfer: Transfer) -> None:
        self._tx.release(req)
        self._finish_tx(transfer, start=transfer.t_wire_start)

    def _control_start(self, transfer: Transfer, core: Core) -> None:
        cost = self.profile.control_send_cpu()
        core.declare(cost)
        core.hold(
            cost, self._control_posted, transfer,
            label=f"ctrl:{self.name}", on_start=self._stamp_service,
        )

    def _control_posted(self, transfer: Transfer) -> None:
        if transfer.aborted:
            self._finish_aborted(transfer)
            return
        transfer.t_wire_start = self.sim.now
        self._finish_tx(transfer, start=self.sim.now)

    def _finish_tx(self, transfer: Transfer, start: float) -> None:
        transfer.t_tx_done = self.sim.now
        hooks = self.hooks
        if hooks.on_tx:
            hooks.on_tx(self, transfer, start, self.sim.now)
        if transfer in self._pending:
            self._pending.remove(transfer)
        self.busy_time += self.sim.now - start
        if transfer.aborted:
            # The link died mid-transmit: the engine was held but the
            # bytes never reached the wire.
            if transfer.tx_done is not None and not transfer.tx_done.triggered:
                transfer.tx_done.trigger(transfer)
            self._maybe_notify_idle()
            return
        if self._drop_outgoing(transfer):
            # Lossy-link fault: the packet leaves the NIC but vanishes.
            if transfer.tx_done is not None and not transfer.tx_done.triggered:
                transfer.tx_done.trigger(transfer)
            self._maybe_notify_idle()
            return
        self.bytes_sent += transfer.size
        self.transfers_sent += 1
        if hooks.on_nic_send:
            hooks.on_nic_send(self, transfer)
        assert self.wire is not None
        self.wire.transmit(self, transfer)
        if transfer.tx_done is not None and not transfer.tx_done.triggered:
            transfer.tx_done.trigger(transfer)
        self._maybe_notify_idle()

    def _finish_aborted(self, transfer: Transfer) -> None:
        """Drain an aborted transfer out of the pipeline bookkeeping."""
        if transfer in self._pending:
            self._pending.remove(transfer)
        if transfer.tx_done is not None and not transfer.tx_done.triggered:
            transfer.tx_done.trigger(transfer)
        self._maybe_notify_idle()

    def _maybe_notify_idle(self) -> None:
        # "The packet scheduler is only activated when a NIC becomes idle
        # in order to feed it" — notify listeners on the busy→idle edge.
        if self.idle_listeners and self.is_idle:
            for listener in list(self.idle_listeners):
                self.sim.schedule(0.0, listener, self)

    # ------------------------------------------------------------------ #
    # receive side
    # ------------------------------------------------------------------ #

    def _on_delivery(self, transfer: Transfer) -> None:
        """Last byte arrived; hand off to the progress engine."""
        transfer.t_delivered = self.sim.now
        if self.rx_handler is not None:
            self.rx_handler(transfer)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _declare(self, tx_time: float) -> None:
        base = max(self.sim.now, self._busy_until)
        self._busy_until = base + tx_time
