"""Strategy plug-in interface and shared helpers."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.packets import Message, TransferMode
from repro.core.prediction import RailPlan
from repro.networks.nic import Nic
from repro.util.errors import ConfigurationError, SchedulingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import NmadEngine
    from repro.core.estimator import NicEstimator
    from repro.core.prediction import CompletionPredictor


def _sampled_mode(est: "NicEstimator", size: int) -> TransferMode:
    """One rail's sampled protocol for a ``size``-byte message.

    The eager limit is checked before ``best_mode`` so that the
    estimator's mode memo only ever holds eager-capable sizes.
    """
    if size > est.eager_limit:
        return TransferMode.RENDEZVOUS
    return est.best_mode(size)


class Strategy:
    """Base class of every optimization strategy.

    :meth:`schedule_outlist` is the one out-list loop: it starts each
    rendezvous handshake on :meth:`control_rail` and hands each eager
    message to :meth:`send_eager`.  Subclasses override some of:

    * :meth:`send_eager` — dispatch one eager message, or leave it
      queued (default: whole on the fastest rail);
    * :meth:`plan_rdv_data` — rails + chunk sizes for a rendezvous data
      phase (default: everything on the fastest rail);
    * :meth:`control_rail` — rail for REQ/ACK control packets;
    * :meth:`choose_mode` — eager vs rendezvous (default: the sampled
      threshold).

    Every engine plans with its sampled curves: :attr:`predictor` is
    the engine's :class:`~repro.core.prediction.CompletionPredictor`.

    Parameters
    ----------
    rdv_threshold:
        Force the eager/rendezvous boundary (bytes).  ``None`` derives it
        from sampling.
    """

    name = "base"
    #: technology or NIC name of the rail every send is pinned to
    #: (``single_rail``, ``aggregate``); ``None`` leaves the choice free
    rail: Optional[str] = None

    def __init__(self, rdv_threshold: Optional[int] = None) -> None:
        if rdv_threshold is not None and rdv_threshold < 1:
            raise ConfigurationError(f"bad rdv threshold: {rdv_threshold}")
        self.rdv_threshold = rdv_threshold
        self.engine: Optional["NmadEngine"] = None

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #

    def attach(self, engine: "NmadEngine") -> None:
        self.engine = engine

    @property
    def predictor(self) -> "CompletionPredictor":
        assert self.engine is not None, "strategy not attached"
        return self.engine.predictor

    # -- rail helpers -------------------------------------------------------

    def rails_to(self, dest: str, msg: Optional[Message] = None) -> Sequence[Nic]:
        """Up rails towards ``dest``, read-only (see
        :meth:`NmadEngine.rails_to`); pass ``msg`` to record avoided
        rails."""
        assert self.engine is not None, "strategy not attached"
        return self.engine.rails_to(dest, msg)

    def fastest_rail(self, dest: str, size: int, mode: TransferMode) -> Nic:
        """Rail with the smallest predicted completion for this transfer:
        busy offset + sampled curve."""
        rails = self.rails_to(dest)
        # min() by prediction, as a loop: the first rail wins a tie
        predict = self.engine.predictor.predict
        best = None
        best_t = 0.0
        for nic in rails:
            t = predict(nic, size, mode)
            if best is None or t < best_t:
                best, best_t = nic, t
        return best

    def pinned_rail(self, rails: Sequence[Nic], msg: Message) -> Optional[Nic]:
        """The rail :attr:`rail` names among ``rails`` (the up rails
        towards ``msg.dest``).

        ``None`` when nothing is pinned, or when the pinned rail is down:
        the caller then falls back to its unpinned choice rather than
        wedging the send, and the failover is noted on ``msg``.
        """
        name = self.rail
        if name is None:
            return None
        for nic in rails:
            if name in (nic.profile.name, nic.name):
                return nic
        assert self.engine is not None
        for nic in self.engine.all_rails_to(msg.dest):
            if name in (nic.profile.name, nic.name):
                msg.note_rail_avoided(
                    nic.qualified_name, "down (failover)", nic.sim.now
                )
                return None
        raise ConfigurationError(
            f"no rail {name!r} towards {msg.dest}; have "
            f"{[n.name for n in rails]}"
        )

    def eager_batch(self, head: Message) -> Tuple[List[Message], int]:
        """``head`` plus the queued same-destination eager messages that
        fit one aggregated packet with it, in out-list order, and their
        total size (the packet's payload).

        The packet bound is the smallest aggregation and eager limit of
        the rails towards the destination; a head over it comes back
        alone.  ``head`` is sendable, and so is every candidate: it
        travels to the same destination over the same rails.
        """
        assert self.engine is not None
        limit = min(
            min(n.profile.max_aggregation, n.profile.eager_limit)
            for n in self.rails_to(head.dest)
        )
        batch = [head]
        total = head.size
        if total > limit:
            return batch, total
        for m in self.engine.scheduler:
            if m is head or m.dest != head.dest:
                continue
            if m.mode is TransferMode.RENDEZVOUS:
                continue
            if total + m.size > limit:
                continue
            batch.append(m)
            total += m.size
        return batch, total

    # ------------------------------------------------------------------ #
    # decision points (the §III-B invocation moments)
    # ------------------------------------------------------------------ #

    def choose_mode(self, msg: Message) -> TransferMode:
        """Eager or rendezvous for this message."""
        rails = self.rails_to(msg.dest)
        if self.rdv_threshold is not None:
            if msg.size >= self.rdv_threshold:
                return TransferMode.RENDEZVOUS
            if any(msg.size <= n.profile.eager_limit for n in rails):
                return TransferMode.EAGER
            return TransferMode.RENDEZVOUS
        # Sampled threshold of the rail that would carry the message;
        # which rail that is only matters when the rails disagree.
        predictor = self.engine.predictor
        size = msg.size
        # Every rail is asked, so each estimator's mode memo fills.
        mode = None
        agree = True
        for nic in rails:
            rail_mode = _sampled_mode(predictor.estimator_for(nic), size)
            if mode is None:
                mode = rail_mode
            elif rail_mode is not mode:
                agree = False
        if agree:
            return mode
        nic = self.fastest_rail(msg.dest, size, TransferMode.EAGER)
        return _sampled_mode(predictor.estimator_for(nic), size)

    def schedule_outlist(self) -> None:
        """Drain what can be drained from the engine's out-list.

        Called on scheduler activation (new packets) and whenever a NIC
        becomes idle; idempotent under spurious calls.  Sendable
        messages are taken in out-list order: a rendezvous one starts
        its handshake on :meth:`control_rail`, an eager one goes to
        :meth:`send_eager`, and the pass ends at the first eager message
        that must wait.  A message leaves the out-list when the engine
        dispatches it.
        """
        assert self.engine is not None
        engine = self.engine
        scheduler = engine.scheduler
        while (msg := scheduler.peek_ready()) is not None:
            if msg.mode is TransferMode.RENDEZVOUS:
                engine.start_rendezvous(msg, control_nic=self.control_rail(msg))
            elif not self.send_eager(msg):
                return

    def send_eager(self, msg: Message) -> bool:
        """Dispatch the eager message at the head of the out-list.

        Return True once ``msg`` is submitted (eagerly, or as a
        rendezvous when no eager packet can carry it), False to leave it
        queued for the next NIC-idle activation.  Default: the whole
        message on the fastest rail.
        """
        self.submit_whole_eager(
            msg, self.fastest_rail(msg.dest, msg.size, TransferMode.EAGER)
        )
        return True

    def plan_rdv_data(self, msg: Message) -> RailPlan:
        """Rails and chunk sizes for a rendezvous data phase."""
        nic = self.fastest_rail(msg.dest, msg.size, TransferMode.RENDEZVOUS)
        return RailPlan.over([nic], [msg.size])

    def control_rail(self, msg: Message) -> Nic:
        """Rail for REQ/ACK control packets (default: lowest predicted
        control latency — in practice the lowest-latency idle rail)."""
        return self.fastest_rail(msg.dest, 0, TransferMode.EAGER)

    # ------------------------------------------------------------------ #
    # shared submission helpers
    # ------------------------------------------------------------------ #

    def submit_whole_eager(self, msg: Message, nic: Nic) -> None:
        """Send a message as one eager packet on one rail."""
        assert self.engine is not None
        if msg.size > nic.profile.eager_limit:
            raise SchedulingError(
                f"msg {msg.msg_id} ({msg.size}B) exceeds {nic.profile.name} "
                f"eager limit"
            )
        self.engine.submit_eager_chunks(msg, [(nic, msg.size)])
