"""NmadEngine: the NewMadeleine communication engine, all layers wired.

One engine per node.  The application layer API is ``isend`` /
``post_recv``; everything below (mode choice, aggregation, splitting,
multicore offload, rendezvous) is delegated to the strategy plug-in and
the substrates.

Measurement semantics
---------------------
A :class:`Message` is its own completion: it triggers when the
*receiver* finished processing the last chunk.  Sender and receiver
live in one simulator, so this global observation is exact — it
replaces the clock-synchronization/ping-pong-halving gymnastics of
real-testbed measurements.

Fault awareness (see ``repro.faults`` and ``docs/faults.md``)
-------------------------------------------------------------
Down rails are excluded from planning; transfers aborted by a NIC-down
event are re-planned 1:1 onto surviving rails (same offset and size, so
receiver-side chunk accounting never changes).  With a resilience
``timeout`` configured, a per-message watchdog detects silently lost
packets (drop rules, deliveries into a dead NIC, stalled rendezvous
handshakes) and retries them with bounded exponential backoff; when the
budget runs out, the message finishes with a :class:`DegradedSend`
outcome instead of hanging.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.estimator import NicEstimator
from repro.core.packets import (
    DegradedSend,
    Message,
    MessageStatus,
    RecvHandle,
    TransferMode,
)
from repro.core.prediction import CompletionPredictor
from repro.core.rendezvous import (
    make_aggregated_eager,
    make_eager_chunks,
    make_eager_packet,
    make_rdv_ack,
    make_rdv_chunks,
    make_rdv_req,
)
from repro.core.scheduler import OptimizerScheduler
from repro.core.strategies.base import Strategy
from repro.hardware.core import Core
from repro.hardware.machine import Machine
from repro.networks.nic import Nic
from repro.networks.transfer import Transfer, TransferKind
from repro.obs.hooks import Hooks
from repro.pioman.progress import PiomanEngine
from repro.pioman.requests import SendRequest
from repro.threading.marcel import MarcelScheduler
from repro.util.errors import ConfigurationError, ProtocolError, SchedulingError
from repro.util.units import parse_size, parse_time

_TERMINAL = (MessageStatus.COMPLETE, MessageStatus.DEGRADED)

#: a receive's (source, tag); ``None`` is a wildcard
Pattern = Tuple[Optional[str], Optional[int]]


def _patterns(msg: Message) -> Tuple[Pattern, Pattern, Pattern, Pattern]:
    """The four receive patterns that match ``msg``."""
    src, tag = msg.src, msg.tag
    return ((src, tag), (src, None), (None, tag), (None, None))


class RecvMatcher:
    """One engine's receive-side queues, indexed by (source, tag).

    The matching order rule lives here and nowhere else:

    * a completed message goes to the earliest-posted pending receive
      that matches it, and waits as *unexpected* when none does;
    * a new receive takes the earliest-completed unexpected message it
      matches;
    * a rendezvous REQ that finds no matching pending receive is
      *parked*; a new receive that took no unexpected message releases
      the earliest-parked REQ it matches, and stays pending itself.

    "Matches" is :meth:`RecvHandle.matches`, and every answer is the one
    a scan in post or arrival order would give, found with at most four
    dict lookups.  A pending receive sits in the bucket of its own
    pattern and carries its post number (``RecvHandle.seq``), so a
    message compares the heads of the four buckets whose patterns match
    it.  An unexpected message or a parked REQ sits in all four of those
    buckets (insertion-ordered dicts), so a receive reads the head of
    its own pattern's bucket.  Empty buckets are deleted.
    """

    __slots__ = ("_posted", "_unclaimed", "_parked", "_seq")

    def __init__(self) -> None:
        #: pattern -> pending receives of that pattern, in post order
        self._posted: Dict[Pattern, List[RecvHandle]] = {}
        #: pattern -> unexpected messages it matches, in completion order
        self._unclaimed: Dict[Pattern, Dict[Message, None]] = {}
        #: pattern -> parked REQs it matches, in arrival order, each with
        #: the NIC its ACK goes out on
        self._parked: Dict[Pattern, Dict[Message, Nic]] = {}
        self._seq = 0

    def complete(self, msg: Message) -> Optional[RecvHandle]:
        """A message completed: remove and return the earliest-posted
        pending receive it matches, or keep it as unexpected and return
        None."""
        posted = self._posted
        head: Optional[RecvHandle] = None
        head_key: Optional[Pattern] = None
        src, tag = msg.src, msg.tag
        # the four keys of _patterns(msg), without the call
        for key in ((src, tag), (src, None), (None, tag), (None, None)):
            bucket = posted.get(key)
            if bucket is not None and (head is None or bucket[0].seq < head.seq):
                head, head_key = bucket[0], key
        if head is None:
            self._file(self._unclaimed, msg, None)
            return None
        bucket = posted[head_key]
        del bucket[0]
        if not bucket:
            del posted[head_key]
        return head

    def request(self, msg: Message, nic: Nic) -> bool:
        """A rendezvous REQ arrived on ``nic``: True when a receive it
        matches is pending (the handle stays pending); otherwise park it
        and return False.  A duplicate of a parked REQ keeps the first."""
        posted = self._posted
        if any(key in posted for key in _patterns(msg)):
            return True
        if msg not in self._parked.get((msg.src, msg.tag), ()):
            self._file(self._parked, msg, nic)
        return False

    def post(self, handle: RecvHandle) -> Optional[Message]:
        """A receive was posted: remove and return the earliest unexpected
        message it matches, or make it the latest pending receive and
        return None."""
        source, tag = handle.source, handle.tag
        if self._unclaimed:
            taken = self._take(self._unclaimed, (source, tag))
            if taken is not None:
                return taken[0]
        handle.seq = self._seq
        self._seq += 1
        bucket = self._posted.get((source, tag))
        if bucket is None:
            self._posted[(source, tag)] = [handle]
        else:
            bucket.append(handle)
        return None

    def release(
        self, source: Optional[str], tag: Optional[int]
    ) -> Optional[Tuple[Message, Nic]]:
        """Remove and return the earliest parked REQ the pattern matches,
        with its NIC, or None."""
        if not self._parked:
            return None
        return self._take(self._parked, (source, tag))

    def cancel(self, handle: RecvHandle) -> bool:
        """Withdraw a pending receive; False when it is not pending."""
        key = (handle.source, handle.tag)
        bucket = self._posted.get(key, [])
        if handle not in bucket:
            return False
        bucket.remove(handle)
        if not bucket:
            del self._posted[key]
        return True

    def pending(self) -> Tuple[List[RecvHandle], List[Message], List[Message]]:
        """Pending receives in post order, unexpected messages in
        completion order and parked REQs' messages in arrival order."""
        posted = sorted(
            (h for bucket in self._posted.values() for h in bucket),
            key=lambda h: h.seq,
        )
        wildcard = (None, None)
        return (
            posted,
            list(self._unclaimed.get(wildcard, ())),
            list(self._parked.get(wildcard, ())),
        )

    @staticmethod
    def _file(
        index: Dict[Pattern, Dict[Message, object]], msg: Message, value: object
    ) -> None:
        for key in _patterns(msg):
            bucket = index.get(key)
            if bucket is None:
                index[key] = {msg: value}
            else:
                bucket[msg] = value

    @staticmethod
    def _take(index: Dict[Pattern, Dict[Message, object]], pattern: Pattern):
        bucket = index.get(pattern)
        if bucket is None:
            return None
        msg = next(iter(bucket))
        value = bucket[msg]
        for key in _patterns(msg):
            bucket = index[key]
            del bucket[msg]
            if not bucket:
                del index[key]
        return msg, value


class NmadEngine:
    """The multirail communication engine for one node.

    Parameters
    ----------
    machine:
        The node (cores + NICs must already be wired).
    strategy:
        The optimization strategy plug-in.
    estimators:
        Sampled per-technology profiles (from
        :class:`~repro.core.sampling.ProfileStore`): the curves the
        engine's :class:`~repro.core.prediction.CompletionPredictor`
        plans every send from.  At least one is required.
    multicore_rx:
        Forwarded to the PIOMan engine: let receive-side
        processing spill onto idle cores (the paper's future-work
        improvement; see :class:`~repro.pioman.PiomanEngine`).
    timeout:
        Per-message watchdog interval (µs, or a ``"500us"``/``"2ms"``
        string).  ``None`` (default) disables timeout-based loss
        detection entirely — healthy runs are byte-identical with or
        without the fault subsystem compiled in.
    max_retries:
        Retry budget per message; exhausting it yields a
        :class:`DegradedSend` outcome instead of a hang.  The watchdog
        re-check after the ``n``-th fruitless window backs off
        exponentially: ``min(32 * timeout, timeout * 2**n)``.
    hooks:
        The cluster's hook stream (:mod:`repro.obs.hooks`), shared with
        this node's scheduler, strategy, predictor, PIOMan and NICs.
        ``None`` (default) builds a private one with nothing subscribed —
        every hook site then costs a single attribute read.
    """

    def __init__(
        self,
        machine: Machine,
        strategy: Strategy,
        estimators: Dict[str, NicEstimator],
        multicore_rx: bool = False,
        timeout: Union[float, str, None] = None,
        max_retries: int = 8,
        hooks: Optional[Hooks] = None,
    ) -> None:
        if not machine.nics:
            raise ConfigurationError(f"{machine.name} has no NICs")
        for nic in machine.nics:
            if nic.wire is None:
                raise ConfigurationError(f"{nic.qualified_name} is not wired")
        self.machine = machine
        self.sim = machine.sim
        #: the core the application, the strategy and the submissions
        #: run on; PIOMan polls on it too (the paper's single-threaded
        #: configuration)
        self.app_core: Core = machine.cores[0]
        #: the cluster's hook stream; installed onto this node's cores,
        #: PIOMan engine, predictor and NICs below
        self.hooks = hooks if hooks is not None else Hooks()
        for core in machine.cores:
            core.hooks = self.hooks
        #: the calibration controller's planning handle (None when off);
        #: installed post-build by install_calibration — unlike the hook
        #: subscribers, an armed controller deliberately changes plans
        self.calib = None
        self.marcel = MarcelScheduler(machine)
        self.pioman = PiomanEngine(
            machine, marcel=self.marcel, multicore_rx=multicore_rx
        )
        self.pioman.bind()
        self.pioman.rx_dispatch = self._on_transfer
        self.pioman.hooks = self.hooks
        self.predictor = CompletionPredictor(
            estimators, hooks=self.hooks, node=machine.name
        )
        self.scheduler = OptimizerScheduler(self)
        self.strategy = strategy
        strategy.attach(self)
        #: peer node -> local NICs wired towards it, in NIC order; every
        #: peer reached over the same NICs shares one tuple (on a flat
        #: switch, all of them)
        self._routes: Dict[str, Tuple[Nic, ...]] = {}
        shared: Dict[Tuple[Nic, ...], Tuple[Nic, ...]] = {}
        for nic in machine.nics:
            for peer in nic.wire.peers_of(nic):
                name = peer.machine.name
                rails = self._routes.get(name, ())
                if nic not in rails:
                    rails += (nic,)
                    self._routes[name] = shared.setdefault(rails, rails)
            nic.idle_listeners.append(self.scheduler.on_nic_idle)
            nic.down_listeners.append(self._on_nic_down)
            nic.up_listeners.append(self._on_nic_up)
            nic.hooks = self.hooks
        # receive-side state
        self.matcher = RecvMatcher()
        # resilience knobs (None timeout = watchdogs off)
        self.timeout = None if timeout is None else parse_time(timeout)
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(f"resilience timeout must be > 0: {timeout}")
        if max_retries < 0:
            raise ConfigurationError(f"negative max_retries: {max_retries}")
        self.max_retries = max_retries
        # fault state
        self._watchdogs: Dict[int, object] = {}  # msg_id -> ScheduledEvent
        self._stranded: List[Transfer] = []  # lost, no up rail to retry on
        self._stalled_rdv_data: List[Message] = []  # ACK'd, all rails down
        # counters
        self.messages_sent = 0
        self.messages_completed = 0
        self.messages_degraded = 0
        self.retries_issued = 0
        self.bytes_sent = 0
        #: receiver-side deliveries ignored because their chunk interval
        #: was already accounted (a retry racing its late original)
        self.duplicates_suppressed = 0
        #: in-flight deliveries cancelled because a retry superseded them
        self.deliveries_cancelled = 0
        #: every message this engine ever sent (drain accounting)
        self.sent_log: List[Message] = []

    def __repr__(self) -> str:
        return (
            f"<NmadEngine {self.machine.name} strategy={self.strategy.name} "
            f"rails={[n.name for n in self.machine.nics]}>"
        )

    # ------------------------------------------------------------------ #
    # application layer API
    # ------------------------------------------------------------------ #

    def isend(self, dest: str, size: Union[int, str], tag: int = 0) -> Message:
        """Enqueue a send and return immediately (the application keeps
        computing; the scheduler activates at the end of the instant).

        ``size`` accepts plain bytes or ``"4K"``-style strings — this is
        the one size-parsing choke point; Session and Communicator just
        forward.
        """
        size = parse_size(size)
        if dest not in self._routes:
            raise ConfigurationError(
                f"no rail from {self.machine.name} to {dest!r}; reachable: "
                f"{sorted(self._routes)}"
            )
        msg = Message(src=self.machine.name, dest=dest, size=size, tag=tag)
        msg.sim = self.sim
        msg.t_post = self.sim.now
        if self.sendable(msg):
            msg.mode = self.strategy.choose_mode(msg)
        # else: every rail towards dest is down right now — the mode
        # decision is deferred to the first activation with an up rail
        # (the scheduler backfills it); the watchdog bounds the wait.
        self.messages_sent += 1
        self.bytes_sent += size
        self.sent_log.append(msg)
        if self.hooks.on_send:
            self.hooks.on_send(msg)
        self.scheduler.enqueue(msg)
        if self.timeout is not None:
            self._arm_watchdog(msg, 0, self.timeout, self._progress_of(msg))
        return msg

    def post_recv(
        self, source: Optional[str] = None, tag: Optional[int] = None
    ) -> RecvHandle:
        """Post a receive; the handle completes with the matched message
        once that message fully arrived."""
        handle = RecvHandle(node=self.machine.name, source=source, tag=tag)
        handle.sim = self.sim
        msg = self.matcher.post(handle)
        if msg is not None:
            handle.matched = msg
            handle.trigger(msg)
            return handle
        # A rendezvous may have been waiting for exactly this buffer.
        parked = self.matcher.release(source, tag)
        if parked is not None:
            self._send_rdv_ack(*parked)
        return handle

    def cancel_recv(self, handle: RecvHandle) -> bool:
        """Withdraw a posted receive that has not matched yet.

        Returns True when the handle was pending and is now cancelled;
        False when it already matched (the message is the caller's).

        A rendezvous REQ parked before the post was released by it: its
        ACK is already out and is not withdrawn.  That message's data
        still flows, and when it completes with no other receive pending
        for it, it waits as an unexpected message that the next matching
        post takes at once.  A REQ that arrives after the cancel parks
        until the next matching post, as if this receive had never been
        posted.
        """
        if handle.matched is not None:
            return False
        if not self.matcher.cancel(handle):
            raise ProtocolError(
                f"receive handle was not posted on {self.machine.name}"
            )
        return True

    def rails_to(self, dest: str, msg: Optional[Message] = None) -> Sequence[Nic]:
        """Local *up* NICs wired towards ``dest`` (strategy-facing).

        Read-only: while every rail is up this is the route's shared
        tuple itself, so the per-message call allocates nothing.  Down
        rails are excluded (into a new list); pass ``msg`` to record why
        each skipped rail was avoided (surfaced by ``obs.explain``).
        Raises when no rail is up — callers that can wait should check
        :meth:`sendable` first (the out-list scheduler does).
        """
        rails = self._routes.get(dest)
        if not rails:
            raise ConfigurationError(f"no rail towards {dest!r}")
        for n in rails:
            if not n.is_up:
                break
        else:
            return rails
        up = [n for n in rails if n.is_up]
        if msg is not None:
            for n in rails:
                if not n.is_up:
                    msg.note_rail_avoided(n.qualified_name, "down", self.sim.now)
        if not up:
            raise SchedulingError(
                f"all rails from {self.machine.name} towards {dest!r} are down"
            )
        return up

    def all_rails_to(self, dest: str) -> List[Nic]:
        """Every local NIC wired towards ``dest``, up or not."""
        rails = self._routes.get(dest)
        if not rails:
            raise ConfigurationError(f"no rail towards {dest!r}")
        return list(rails)

    def sendable(self, msg: Message) -> bool:
        """Can ``msg`` be planned right now (any up rail towards dest)?"""
        for n in self._routes.get(msg.dest, ()):
            if n.is_up:
                return True
        msg.note_rail_avoided(
            "all rails", f"down towards {msg.dest}", self.sim.now
        )
        return False

    # ------------------------------------------------------------------ #
    # submission helpers (called by strategies); each takes the messages
    # it dispatches off the out-list
    # ------------------------------------------------------------------ #

    def _predict_chunk(self, transfer: Transfer, nic: Nic) -> None:
        """Stamp accuracy-telemetry predictions on an outgoing data chunk.

        Only called when ``hooks.stamps`` is set (obs or calibration on:
        accuracy telemetry and the drift feed read the stamps).
        Purely passive: the estimator lookups are memoized value lookups
        that change no planning state, so simulated timestamps are
        unmoved with or without the stamps.
        """
        if transfer.kind.is_control:
            return
        mode = (
            TransferMode.RENDEZVOUS
            if transfer.kind is TransferKind.RDV_DATA
            else TransferMode.EAGER
        )
        predictor = self.predictor
        transfer.predicted_time = predictor.planning_transfer_time(
            nic, transfer.size, mode
        )
        transfer.predicted_completion = self.sim.now + predictor.predict(
            nic, transfer.size, mode
        )

    def submit_eager_chunks(
        self, msg: Message, chunks: Sequence[Tuple[Nic, int]]
    ) -> None:
        """Send ``msg`` as eager chunks, one per (nic, size) pair.

        One chunk is posted from the app core.  Several go through
        PIOMan's to-be-sent list, so idle cores perform the PIO copies
        in parallel (§III-D).
        """
        self._check_ownership(msg)
        self.scheduler.remove(msg)
        if len(chunks) == 1:
            # The whole message on one rail, as most eager sends go: one
            # packet and its record tuples, without the per-chunk lists
            # and zips of a split.
            nic, size = chunks[0]
            transfers = [make_eager_packet(msg, size)]
            rails_used = (nic.qualified_name,)
            sizes = (size,)
        else:
            sizes = tuple(s for _, s in chunks)
            transfers = make_eager_chunks(msg, sizes)
            rails_used = tuple(n.qualified_name for n, _ in chunks)
        msg.mode = TransferMode.EAGER
        msg.status = MessageStatus.IN_TRANSFER
        msg.expect_chunks(len(chunks))
        msg.rails_used = rails_used
        msg.chunk_sizes = sizes
        msg.transfers.extend(transfers)
        if self.hooks.stamps:
            for t, (n, _) in zip(transfers, chunks):
                self._predict_chunk(t, n)
        if len(chunks) == 1:
            nic.submit(transfers[0], self.app_core)
        else:
            requests = [
                SendRequest(transfer=t, nic=n) for t, (n, _) in zip(transfers, chunks)
            ]
            self.pioman.register_sends(requests, issuing_core=self.app_core)

    def submit_aggregated_eager(self, msgs: Sequence[Message], nic: Nic) -> None:
        """Pack several messages into one eager packet on one rail."""
        for m in msgs:
            self._check_ownership(m)
        self.scheduler.remove(*msgs)
        packet = make_aggregated_eager(msgs)
        if packet.size > nic.profile.eager_limit:
            raise ProtocolError(
                f"aggregated packet of {packet.size}B exceeds "
                f"{nic.profile.name} eager limit"
            )
        ids = packet.aggregated_ids
        rails_used = (nic.qualified_name,)
        for i, m in enumerate(msgs):
            m.mode = TransferMode.EAGER
            m.status = MessageStatus.IN_TRANSFER
            m.expect_chunks(1)
            m.rails_used = rails_used
            m.chunk_sizes = (m.size,)
            # the packet's other ids, in packing order (``remove`` has
            # checked that no message is packed twice)
            m.aggregated_with = ids[:i] + ids[i + 1 :]
            m.transfers.append(packet)
        # Building the aggregate (iovec entries, or a staging copy without
        # gather/scatter hardware) costs CPU before the post.
        agg_cost = nic.profile.aggregation_cpu_cost(
            [m.size for m in msgs], self.machine.memcpy_rate
        )
        if agg_cost > 0:
            self.app_core.run(agg_cost, label="aggregate")
        if self.hooks.stamps:
            self._predict_chunk(packet, nic)
        nic.submit(packet, self.app_core)

    def start_rendezvous(self, msg: Message, control_nic: Nic) -> None:
        """Send the RDV_REQ for ``msg`` on ``control_nic``."""
        self._check_ownership(msg)
        self.scheduler.remove(msg)
        msg.mode = TransferMode.RENDEZVOUS
        msg.status = MessageStatus.RDV_REQUESTED
        req = make_rdv_req(msg)
        msg.transfers.append(req)
        control_nic.submit(req, self.app_core)

    # ------------------------------------------------------------------ #
    # receive path (rx_dispatch target; runs after PIOMan charged costs)
    # ------------------------------------------------------------------ #

    def _on_transfer(self, transfer: Transfer, nic: Nic) -> None:
        # ``t_complete`` is stamped (PIOMan's ``_rx_done`` runs before
        # the dispatch), so subscribers see the whole submit→complete
        # interval; the drift feed may re-sample here (zero simulated
        # time: the probe runs a private simulator).
        if self.hooks.on_arrival:
            self.hooks.on_arrival(transfer, nic)
        if transfer.kind is TransferKind.EAGER:
            self._on_eager(transfer)
        elif transfer.kind is TransferKind.RDV_REQ:
            self._on_rdv_req(transfer, nic)
        elif transfer.kind is TransferKind.RDV_ACK:
            self._on_rdv_ack(transfer)
        elif transfer.kind is TransferKind.RDV_DATA:
            self._on_rdv_data(transfer)
        else:  # pragma: no cover - exhaustive over TransferKind
            raise ProtocolError(f"unknown transfer kind {transfer.kind}")

    def _account_delivery(
        self,
        msg: Message,
        transfer: Transfer,
        nbytes: int,
        chunk_key: Tuple[int, int],
    ) -> None:
        """Receiver-side integrity gate in front of chunk accounting.

        Exactly-once delivery: each (message, chunk interval) is summed
        once, whatever raced — a retry against its late original, a
        superseded transfer whose cancellation came too late, or a
        duplicated handshake.  First arrival wins; later ones are
        suppressed (counted, surfaced to the invariant monitor) instead
        of corrupting the byte accounting.
        """
        hooks = self.hooks
        if not msg.register_delivery(chunk_key):
            self.duplicates_suppressed += 1
            if hooks.on_duplicate:
                hooks.on_duplicate(msg, transfer, self.sim.now)
            return
        if hooks.on_delivery:
            hooks.on_delivery(msg, transfer, self.sim.now)
        if msg.account_chunk(nbytes):
            self._complete_message(msg)

    def _on_eager(self, transfer: Transfer) -> None:
        key = transfer.chunk_key
        if transfer.aggregated_ids:
            for msg in transfer.messages:
                self._account_delivery(msg, transfer, msg.size, key)
            return
        self._account_delivery(transfer.message, transfer, transfer.size, key)

    def _on_rdv_req(self, transfer: Transfer, nic: Nic) -> None:
        msg = transfer.message
        if msg.status is not MessageStatus.RDV_REQUESTED:
            # Stale REQ: the data phase already started (a retried REQ
            # raced its original, or the send was already given up on).
            return
        # With no matching buffer posted yet, the matcher parks the REQ
        # until a matching post_recv releases it.
        if self.matcher.request(msg, nic):
            self._send_rdv_ack(msg, nic)

    def _send_rdv_ack(self, msg: Message, nic: Nic) -> None:
        ack = make_rdv_ack(msg)
        msg.transfers.append(ack)
        nic.submit(ack, self.app_core)

    def _on_rdv_ack(self, transfer: Transfer) -> None:
        """Back on the sender: the receiver is ready — plan and push data."""
        msg = transfer.message
        if msg.src != self.machine.name:
            raise ProtocolError(
                f"RDV_ACK for msg {msg.msg_id} arrived at {self.machine.name}, "
                f"but the sender is {msg.src}"
            )
        if msg.status is not MessageStatus.RDV_REQUESTED:
            # Duplicate ACK (handshake retry) — the data phase is already
            # planned, or the send was given up on.  One-shot it.
            return
        self._launch_rdv_data(msg)

    def _launch_rdv_data(self, msg: Message) -> None:
        if not self.sendable(msg):
            # Every rail died between REQ and ACK; park the data phase
            # until a recovery event (or let the watchdog give up).
            if msg not in self._stalled_rdv_data:
                self._stalled_rdv_data.append(msg)
            return
        plan = self.strategy.plan_rdv_data(msg)
        msg.status = MessageStatus.IN_TRANSFER
        msg.expect_chunks(len(plan.nics))
        msg.rails_used = tuple(n.qualified_name for n in plan.nics)
        msg.chunk_sizes = tuple(plan.sizes)
        stamp = self.hooks.stamps
        for t, nic in zip(make_rdv_chunks(msg, plan.sizes), plan.nics):
            msg.transfers.append(t)
            if stamp:
                self._predict_chunk(t, nic)
            nic.submit(t, self.app_core)

    def _on_rdv_data(self, transfer: Transfer) -> None:
        self._account_delivery(
            transfer.message, transfer, transfer.size, transfer.chunk_key
        )

    def _complete_message(self, msg: Message) -> None:
        if msg.status is MessageStatus.DEGRADED:
            # Last chunk straggled in after the sender already gave up;
            # the DegradedSend outcome stands (done was triggered there).
            return
        msg.status = MessageStatus.COMPLETE
        msg.t_complete = self.sim.now
        self.messages_completed += 1
        if self.hooks.on_complete:
            self.hooks.on_complete(msg, self.sim.now)
        self._cancel_watchdog(msg)
        msg.trigger(msg)
        handle = self.matcher.complete(msg)
        if handle is not None:  # else the message waits as unexpected
            handle.matched = msg
            handle.trigger(msg)

    # ------------------------------------------------------------------ #
    # fault handling: rerouting, retries, watchdogs (docs/faults.md)
    # ------------------------------------------------------------------ #

    def _on_nic_down(self, nic: Nic, aborted: List[Transfer]) -> None:
        """A local rail died; re-plan what it stranded onto survivors.

        Deferred by one zero-delay event so the NIC finishes its own
        abort bookkeeping (and every listener sees a consistent state)
        before replacement submissions hit the event queue.
        """
        for t in aborted:
            if t.src_node in ("", self.machine.name):
                self.sim.call_soon(self._resubmit_transfer, t, "nic-down")

    def _on_nic_up(self, nic: Nic) -> None:
        """A rail recovered: drain work parked while everything was down."""
        stranded, self._stranded = self._stranded, []
        for t in stranded:
            if not t.retried and t.t_delivered is None:
                self._resubmit_transfer(t, "recovery")
        stalled, self._stalled_rdv_data = self._stalled_rdv_data, []
        for msg in stalled:
            if msg.status is MessageStatus.RDV_REQUESTED:
                self._launch_rdv_data(msg)

    def _resubmit_transfer(self, old: Transfer, reason: str) -> bool:
        """Issue a 1:1 replacement for a lost transfer on a surviving rail.

        Same offset, size and chunk indices, so receiver-side chunk
        accounting is untouched.  Returns True when a replacement was
        submitted (or none was needed), False when the transfer is now
        parked (no up rail) or the message was degraded.
        """
        if old.retried or old.t_delivered is not None:
            return True
        msgs = self._messages_of(old)
        primary = msgs[0]
        if primary.status in _TERMINAL:
            old.retried = True
            return True
        if primary.retries >= self.max_retries:
            self._degrade_message(
                primary,
                f"retry budget ({self.max_retries}) exhausted "
                f"resending {old.kind.value}",
            )
            return False
        if old.kind is TransferKind.RDV_ACK and old.src_node != self.machine.name:
            # The lost ACK belongs to the receiver; the sender-side remedy
            # is to repeat the REQ — the receiver dedups and re-acks.
            if primary.status is not MessageStatus.RDV_REQUESTED:
                old.retried = True
                return True
            new = make_rdv_req(primary)
            new.retry_of = old.transfer_id
        else:
            new = self._clone_transfer(old)
        for n in self._routes.get(new.dst_node, ()):
            if not n.is_up:
                primary.note_rail_avoided(n.qualified_name, "down", self.sim.now)
        nic = self._retry_rail(new)
        if nic is None:
            if old not in self._stranded:
                self._stranded.append(old)
            return False
        old.retried = True
        # The replacement supersedes the original outright.  If the
        # original is somehow still in flight (its drop/abort marking
        # raced actual transmission), cancel its pending delivery — a
        # late original must never race its own retry into the receiver.
        old.superseded = True
        if old.wire_event is not None:
            self.sim.cancel(old.wire_event)
            old.wire_event = None
            self.deliveries_cancelled += 1
        for m in msgs:
            m.retries += 1
            m.transfers.append(new)
        self.retries_issued += 1
        hooks = self.hooks
        if hooks.on_retry:
            hooks.on_retry(
                primary, old, new, self.max_retries, self.sim.now, nic, reason
            )
        if hooks.stamps:
            self._predict_chunk(new, nic)
        nic.submit(new, self.app_core)
        return True

    @staticmethod
    def _messages_of(transfer: Transfer) -> Tuple[Message, ...]:
        return transfer.messages or (transfer.message,)

    @staticmethod
    def _clone_transfer(old: Transfer) -> Transfer:
        return Transfer(
            kind=old.kind,
            size=old.size,
            msg_id=old.msg_id,
            tag=old.tag,
            dst_node=old.dst_node,
            chunk_index=old.chunk_index,
            chunk_count=old.chunk_count,
            offset=old.offset,
            message=old.message,
            messages=old.messages,
            aggregated_ids=old.aggregated_ids,
            retry_of=old.transfer_id,
        )

    def _retry_rail(self, transfer: Transfer) -> Optional[Nic]:
        """Best surviving rail for a replacement transfer, or None."""
        rails = [n for n in self._routes.get(transfer.dst_node, ()) if n.is_up]
        if transfer.kind is TransferKind.EAGER:
            rails = [n for n in rails if transfer.size <= n.profile.eager_limit]
        if not rails:
            return None
        mode = (
            TransferMode.RENDEZVOUS
            if transfer.kind is TransferKind.RDV_DATA
            else TransferMode.EAGER
        )
        predict = self.predictor.predict
        return min(rails, key=lambda n: predict(n, transfer.size, mode))

    def _degrade_message(self, msg: Message, reason: str) -> None:
        """Give up on a send: DegradedSend outcome, the message completes,
        no hang."""
        if msg.status in _TERMINAL:
            return
        msg.status = MessageStatus.DEGRADED
        msg.outcome = DegradedSend(
            msg_id=msg.msg_id,
            reason=reason,
            retries=msg.retries,
            bytes_received=msg.bytes_received,
            size=msg.size,
        )
        self.messages_degraded += 1
        if self.hooks.on_degraded:
            self.hooks.on_degraded(msg, self.sim.now, self.machine.name)
        self._cancel_watchdog(msg)
        if not msg.triggered:
            msg.trigger(msg)

    # -- watchdog ----------------------------------------------------------

    @staticmethod
    def _progress_of(msg: Message) -> Tuple[str, int, int]:
        return (msg.status.value, msg.chunks_received, len(msg.transfers))

    def _arm_watchdog(
        self, msg: Message, attempt: int, delay: float, last_progress
    ) -> None:
        self._watchdogs[msg.msg_id] = self.sim.schedule(
            delay, self._watchdog_fire, msg, attempt, last_progress
        )

    def _cancel_watchdog(self, msg: Message) -> None:
        if not self._watchdogs:
            return
        ev = self._watchdogs.pop(msg.msg_id, None)
        if ev is not None:
            self.sim.cancel(ev)

    def _backoff(self, attempt: int) -> float:
        cap = 32.0 * self.timeout
        if attempt > 64:  # 2.0**attempt overflows a double long after
            return cap  # the ladder is pinned at the cap anyway
        return min(cap, self.timeout * 2.0 ** attempt)

    def _watchdog_fire(self, msg: Message, attempt: int, last_progress) -> None:
        """Periodic loss check for one in-flight message.

        Retries (and the exponential backoff ladder) are only consumed
        when lost work is actually found; a message that is merely slow —
        or legitimately waiting for its receiver — is re-checked at the
        base interval as long as it keeps making progress.
        """
        self._watchdogs.pop(msg.msg_id, None)
        if msg.status in _TERMINAL:
            return
        lost = [
            t
            for t in msg.transfers
            if (t.aborted or t.dropped)
            and not t.retried
            and t.t_delivered is None
        ]
        progress = self._progress_of(msg)
        if not lost:
            if progress != last_progress:
                self._arm_watchdog(msg, 0, self.timeout, progress)
            elif attempt >= self.max_retries:
                self._degrade_message(
                    msg,
                    f"no progress across {attempt + 1} timeout windows",
                )
            else:
                self._arm_watchdog(
                    msg, attempt + 1, self._backoff(attempt), progress
                )
            return
        if msg.retries >= self.max_retries:
            self._degrade_message(
                msg,
                f"retry budget ({self.max_retries}) exhausted with "
                f"{len(lost)} transfer(s) lost",
            )
            return
        reissued = False
        for t in lost:
            if msg.status in _TERMINAL:
                return
            if self._resubmit_transfer(t, "timeout"):
                reissued = True
        if msg.status in _TERMINAL:
            return
        progress = self._progress_of(msg)
        if not reissued and progress == last_progress and attempt >= self.max_retries:
            # Nothing could be reissued (every rail down, work stranded)
            # and nothing else moved for the whole strike budget: stop
            # waiting for a recovery that may never come.
            self._degrade_message(
                msg,
                f"no usable rail across {attempt + 1} timeout windows "
                f"({len(lost)} transfer(s) stranded)",
            )
            return
        self._arm_watchdog(msg, attempt + 1, self._backoff(attempt), progress)

    # ------------------------------------------------------------------ #
    # drain accounting (docs/chaos.md)
    # ------------------------------------------------------------------ #

    def stuck_messages(self) -> List[str]:
        """Diagnoses for every send still non-terminal — a drained
        simulator should return an empty list.

        A non-empty list after ``sim.run()`` means a send neither
        completed nor degraded: a silent hang.  The chaos soak (and
        :meth:`InvariantMonitor.check_drain`) turn that into a structured
        violation instead of a mystery.
        """
        out: List[str] = []
        for msg in self.sent_log:
            if msg.status in _TERMINAL:
                continue
            out.append(
                f"msg {msg.msg_id} {msg.size}B {msg.src}->{msg.dest} "
                f"tag={msg.tag} status={msg.status.value} "
                f"chunks={msg.chunks_received}/{msg.chunks_expected} "
                f"bytes={msg.bytes_received} retries={msg.retries}"
            )
        return out

    def drain_stuck(self) -> List[Message]:
        """Force every still-pending send into a DEGRADED outcome.

        The end-of-run counterpart of the watchdog: whatever is left
        hanging when the event queue went quiet gets a diagnosable
        :class:`DegradedSend` (the message completes) instead of
        staying silently incomplete forever.  Returns the messages
        drained this way.
        """
        drained: List[Message] = []
        for msg in self.sent_log:
            if msg.status in _TERMINAL:
                continue
            self._degrade_message(
                msg,
                f"stuck at drain in status {msg.status.value} "
                f"({msg.bytes_received}/{msg.size}B received)",
            )
            drained.append(msg)
        return drained

    # ------------------------------------------------------------------ #

    def _check_ownership(self, msg: Message) -> None:
        if msg.src != self.machine.name:
            raise ProtocolError(
                f"engine {self.machine.name} asked to send msg {msg.msg_id} "
                f"owned by {msg.src}"
            )
