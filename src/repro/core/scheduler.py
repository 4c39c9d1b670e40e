"""The optimizer/scheduler layer: out-list management and activation.

Paper Fig. 5 / §III-A: "The application enqueues packets into a list and
immediately returns to computing.  The packet scheduler is only activated
when a NIC becomes idle in order to feed it."  Activation also happens
(deferred to the end of the current instant) when new packets arrive, so
several ``isend`` calls issued back-to-back are visible to the strategy
*together* — the window that makes aggregation possible.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Deque, Iterator, Optional, TYPE_CHECKING

from repro.core.packets import Message, MessageStatus
from repro.util.errors import SchedulingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import NmadEngine
    from repro.networks.nic import Nic


class OptimizerScheduler:
    """Waiting-pack list + strategy activation for one engine."""

    def __init__(self, engine: "NmadEngine") -> None:
        #: the engine that owns this scheduler, held weakly
        self._engine = weakref.ref(engine)
        self.sim = engine.sim
        self.node: str = engine.machine.name
        self._outlist: Deque[Message] = deque()
        self._activation_pending = False
        self._in_activation = False
        self.activations: int = 0

    def __repr__(self) -> str:
        return f"<OptimizerScheduler {self.node}: {len(self._outlist)} waiting>"

    def __len__(self) -> int:
        return len(self._outlist)

    def __iter__(self) -> Iterator[Message]:
        """The queued messages in out-list order (sendable or not)."""
        return iter(self._outlist)

    # ------------------------------------------------------------------ #
    # out-list access (strategy-facing)
    # ------------------------------------------------------------------ #

    def enqueue(self, msg: Message) -> None:
        msg.status = MessageStatus.QUEUED
        self._outlist.append(msg)
        self.request_activation()

    def peek_ready(self) -> Optional[Message]:
        """First *sendable* queued message (skips messages whose every
        rail is down — they stay parked until a recovery event)."""
        sendable = self._engine().sendable
        for msg in self._outlist:
            if sendable(msg):
                return msg
        return None

    def remove(self, *msgs: Message) -> None:
        """Take dispatched messages off the out-list (the engine's
        submission helpers call this, an aggregate's batch in one call);
        the others keep their order.

        Each ``deque.remove`` scans from the head, where a dispatched
        batch sits in out-list order, so a batch costs about one pass
        over the front of the out-list.  Raises :class:`SchedulingError`
        at the first message that is not queued (or is given twice).
        """
        outlist = self._outlist
        for msg in msgs:
            try:
                outlist.remove(msg)
            except ValueError:
                raise SchedulingError(f"{msg!r} is not in the out-list") from None

    # ------------------------------------------------------------------ #
    # activation
    # ------------------------------------------------------------------ #

    def request_activation(self) -> None:
        """Schedule one strategy pass at the end of the current instant.

        Coalesced: many enqueues in one instant yield one activation, so
        the strategy sees the whole batch (the aggregation window).
        """
        if not self._activation_pending:
            self._activation_pending = True
            self.sim.call_soon(self._activate)

    def on_nic_idle(self, nic: "Nic") -> None:
        """A NIC drained its queue; give the strategy a chance to feed it."""
        if self._outlist:
            self.request_activation()

    def _activate(self) -> None:
        self._activation_pending = False
        if self._in_activation:
            # A strategy re-triggered activation from within itself; the
            # pending flag was reset so the re-request will schedule anew.
            return
        self._in_activation = True
        try:
            self.activations += 1
            engine = self._engine()
            hooks = engine.hooks
            if hooks.on_activation:
                hooks.on_activation(self.node, self._outlist, self.sim.now)
            for msg in self._outlist:
                # A message posted while every rail was down carries no
                # mode yet; decide it at the first activation that can
                # actually send (strategies branch on msg.mode).
                if msg.mode is None and engine.sendable(msg):
                    msg.mode = engine.strategy.choose_mode(msg)
            engine.strategy.schedule_outlist()
        finally:
            self._in_activation = False
