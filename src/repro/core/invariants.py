"""Runtime invariant checking: machine-checked delivery integrity.

An :class:`InvariantMonitor` is a subscriber of the cluster's hook
stream (:mod:`repro.obs.hooks`), like the obs surfaces: the engine,
scheduler, NICs, switches, PIOMan, fault injector and collectives emit
their facts once and the monitor checks them.  A cluster built without
invariants does not subscribe it, and enabling it moves **no simulated
timestamp** — the monitor is purely passive, it reads state and raises,
it never schedules events.

Checked invariants (the catalogue in ``docs/chaos.md``):

``clock-monotonic``
    The simulated clock observed by any hook never moves backwards.
``chunk-exactly-once``
    No (message, chunk interval) is accounted to the application twice —
    a retry racing its late original must be suppressed, not summed.
``chunk-checksum``
    Every data chunk arrives with the checksum it was stamped with at
    submit time (catches payload-identity mix-ups on the wire path).
``byte-conservation``
    A completed message received exactly ``msg.size`` bytes over exactly
    ``chunks_expected`` distinct chunk intervals, across any number of
    hetero-splits and retries.
``chunk-bounds``
    A chunk's ``[offset, offset+size)`` interval lies inside the message
    and never overlaps a previously accounted interval.
``retry-bounds``
    No message exceeds its engine's retry budget.
``nic-tx-sanity``
    Transmit-engine work intervals are non-negative, never in the
    future, and data transmissions on one NIC never overlap (the tx
    resource serializes them): an eager or ``RDV_DATA`` transfer never
    starts before the previous one on its NIC ended.  Control packets
    hold no transmit engine and are exempt.
``rx-causality``
    Receive-side processing completes at or after wire delivery.
``fault-rule-order``
    Fault actions fire in non-decreasing ``(time, rule_id)`` order —
    two rules at the same instant apply in deterministic rule-id order
    regardless of event-heap internals.
``drain-no-stuck``
    At drain (event queue empty) no message is in a non-terminal state:
    every send is COMPLETE or DEGRADED, nothing silently hangs.
``route-liveness``
    An adaptive fat-tree switch never pins a flow to a down spine while
    another spine is up (static routing and total outages drop by
    design and are exempt).
``replan-byte-conservation``
    When a collective re-plans mid-flight, bytes already accounted plus
    bytes still pending equal the originally planned total — a re-plan
    reorders remaining hops, it never duplicates or leaks them.
``collective-completion``
    A re-planning collective finishes with every planned byte accounted
    exactly once.

On failure the monitor raises a structured :class:`InvariantViolation`
carrying the chaos seed and schedule JSON (when bound via
:meth:`InvariantMonitor.bind_context`) plus a trail of the most recent
hook observations — enough to replay and shrink the failing scenario
(see :func:`repro.faults.chaos.shrink`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.util.errors import ConfigurationError, ReproError

#: how many hook observations the violation trail keeps by default
DEFAULT_TRAIL_DEPTH = 64

#: tolerance for float comparisons on accumulated simulated times
_EPS = 1e-9


class InvariantViolation(ReproError):
    """A machine-checked engine invariant failed.

    Structured: ``invariant`` names the broken rule, ``detail`` is the
    human-readable diagnosis, ``time`` the simulated instant, ``seed``
    and ``schedule`` identify the chaos scenario (when one was bound),
    and ``trail`` holds the monitor's most recent observations.
    """

    def __init__(
        self,
        invariant: str,
        detail: str,
        time: float,
        seed: Optional[int] = None,
        schedule: Optional[Dict[str, Any]] = None,
        trail: Optional[List[str]] = None,
    ) -> None:
        self.invariant = invariant
        self.detail = detail
        self.time = time
        self.seed = seed
        self.schedule = schedule
        self.trail = list(trail or [])
        super().__init__(self.report())

    def __reduce__(self):
        # Default exception pickling replays ``__init__(*args)`` with the
        # formatted report string as the only arg — wrong signature.  A
        # violation must survive the trip back from a soak worker process
        # intact, so reconstruct from the structured fields.
        return (
            InvariantViolation,
            (
                self.invariant,
                self.detail,
                self.time,
                self.seed,
                self.schedule,
                self.trail,
            ),
        )

    def report(self) -> str:
        """The full violation report (what lands in the exception text)."""
        lines = [
            f"invariant {self.invariant!r} violated at t={self.time:.3f}us: "
            f"{self.detail}"
        ]
        if self.seed is not None:
            lines.append(f"  chaos seed: {self.seed}")
        if self.schedule is not None:
            events = self.schedule.get("events", [])
            lines.append(f"  schedule: {len(events)} action(s)")
            for entry in events[:8]:
                lines.append(f"    {entry}")
            if len(events) > 8:
                lines.append(f"    ... {len(events) - 8} more")
        if self.trail:
            lines.append("  recent observations:")
            for obs in self.trail[-12:]:
                lines.append(f"    {obs}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (what ``cli chaos --artifact`` records)."""
        return {
            "invariant": self.invariant,
            "detail": self.detail,
            "time": self.time,
            "seed": self.seed,
            "schedule": self.schedule,
            "trail": list(self.trail),
        }


def stuck_detail(stuck: List[str]) -> str:
    """The ``drain-no-stuck`` diagnosis of a non-empty
    :meth:`Cluster.drain_report <repro.api.cluster.Cluster.drain_report>`."""
    return (
        f"{len(stuck)} message(s) non-terminal at drain: "
        + "; ".join(stuck[:6])
        + ("; ..." if len(stuck) > 6 else "")
    )


@dataclass
class _MessageLedger:
    """Receiver-side double-entry bookkeeping for one message."""

    size: int
    #: accounted chunk intervals, keyed (offset, size)
    intervals: Dict[Tuple[int, int], int] = field(default_factory=dict)
    bytes_accounted: int = 0
    completed: bool = False
    degraded: bool = False


class InvariantMonitor:
    """Simulation-time invariant checker for one cluster.

    Parameters
    ----------
    trail_depth:
        How many recent hook observations to keep for violation reports
        (at least 1).
    """

    __slots__ = (
        "trail_depth",
        "_trail",
        "_last_time",
        "_ledgers",
        "_last_fault",
        "_tx_end",
        "seed",
        "schedule_json",
        "checks_performed",
        "duplicates_seen",
    )

    def __init__(self, trail_depth: int = DEFAULT_TRAIL_DEPTH) -> None:
        if trail_depth < 1:
            raise ConfigurationError(
                f"trail depth must be >= 1, got {trail_depth}"
            )
        self.trail_depth = int(trail_depth)
        self._trail: Deque[str] = deque(maxlen=self.trail_depth)
        self._last_time: float = float("-inf")
        self._ledgers: Dict[int, _MessageLedger] = {}
        self._last_fault: Tuple[float, int] = (float("-inf"), -1)
        #: per NIC, when its last data transmission released the engine
        self._tx_end: Dict[str, float] = {}
        #: chaos scenario identity, stamped into violations
        self.seed: Optional[int] = None
        self.schedule_json: Optional[Dict[str, Any]] = None
        #: total invariant checks performed (soak-throughput accounting)
        self.checks_performed: int = 0
        #: duplicate deliveries correctly suppressed by the engine
        self.duplicates_seen: int = 0

    def __repr__(self) -> str:
        return (
            f"<InvariantMonitor checks={self.checks_performed} "
            f"messages={len(self._ledgers)} dups={self.duplicates_seen}>"
        )

    # ------------------------------------------------------------------ #
    # context / plumbing
    # ------------------------------------------------------------------ #

    def bind_context(
        self,
        seed: Optional[int] = None,
        schedule: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Attach the chaos scenario identity to future violations."""
        self.seed = seed
        self.schedule_json = schedule

    def _note(self, text: str) -> None:
        self._trail.append(text)

    def _violate(self, invariant: str, detail: str, now: float) -> None:
        raise InvariantViolation(
            invariant,
            detail,
            now,
            seed=self.seed,
            schedule=self.schedule_json,
            trail=list(self._trail),
        )

    def _touch(self, now: float, what: str) -> None:
        """Clock-monotonicity check, piggybacked on every hook."""
        self.checks_performed += 1
        if now < self._last_time:
            self._violate(
                "clock-monotonic",
                f"{what} observed t={now} after t={self._last_time}",
                now,
            )
        self._last_time = now

    # ------------------------------------------------------------------ #
    # engine hooks
    # ------------------------------------------------------------------ #

    def on_send(self, msg) -> None:
        self._ledgers[msg.msg_id] = _MessageLedger(size=msg.size)
        self._note(f"send msg={msg.msg_id} {msg.size}B {msg.src}->{msg.dest}")

    def on_delivery(self, msg, transfer, now: float) -> None:
        """One data chunk is about to be accounted to ``msg``.

        Called *before* the engine's receiver-side accounting, so a
        double-delivery bug is caught here even if the accounting would
        go on to mis-sum it.
        """
        self._touch(now, f"delivery of transfer {transfer.transfer_id}")
        ledger = self._ledgers.get(msg.msg_id)
        if ledger is None:
            # A receive-side-only view (the sender's engine has no
            # monitor, or the message predates monitor installation).
            ledger = self._ledgers[msg.msg_id] = _MessageLedger(size=msg.size)
        if transfer.checksum is not None:
            from repro.networks.transfer import wire_checksum

            expected = wire_checksum(transfer)
            if transfer.checksum != expected:
                self._violate(
                    "chunk-checksum",
                    f"msg {msg.msg_id} chunk #{transfer.transfer_id} "
                    f"(seq {transfer.seq_no}) carries checksum "
                    f"{transfer.checksum:#x}, expected {expected:#x}",
                    now,
                )
        # For aggregated packets the per-message share is the whole
        # message at offset 0; plain chunks use their wire interval.
        if transfer.aggregated_ids:
            key = (0, msg.size)
        else:
            key = (transfer.offset, transfer.size)
        offset, size = key
        if offset < 0 or offset + size > ledger.size:
            self._violate(
                "chunk-bounds",
                f"msg {msg.msg_id}: chunk [{offset}, {offset + size}) "
                f"outside a {ledger.size}B message",
                now,
            )
        prior = ledger.intervals.get(key)
        if prior is not None:
            self._violate(
                "chunk-exactly-once",
                f"msg {msg.msg_id}: chunk interval [{offset}, "
                f"{offset + size}) delivered twice (first by transfer "
                f"#{prior}, again by #{transfer.transfer_id}"
                + (
                    f", a retry of #{transfer.retry_of}"
                    if transfer.retry_of is not None
                    else ""
                )
                + ")",
                now,
            )
        for (o, s) in ledger.intervals:
            if offset < o + s and o < offset + size:
                self._violate(
                    "chunk-bounds",
                    f"msg {msg.msg_id}: chunk [{offset}, {offset + size}) "
                    f"overlaps accounted [{o}, {o + s})",
                    now,
                )
        ledger.intervals[key] = transfer.transfer_id
        ledger.bytes_accounted += size
        if ledger.bytes_accounted > ledger.size:
            self._violate(
                "byte-conservation",
                f"msg {msg.msg_id}: {ledger.bytes_accounted}B accounted "
                f"of a {ledger.size}B message",
                now,
            )
        self._note(
            f"chunk msg={msg.msg_id} [{offset},{offset + size}) "
            f"via #{transfer.transfer_id}"
        )

    def on_duplicate(self, msg, transfer, now: float) -> None:
        """The engine suppressed a duplicate delivery (correct behaviour)."""
        self._touch(now, f"duplicate transfer {transfer.transfer_id}")
        self.duplicates_seen += 1
        self._note(
            f"dup-suppressed msg={msg.msg_id} transfer=#{transfer.transfer_id}"
            + (
                f" (retry_of #{transfer.retry_of})"
                if transfer.retry_of is not None
                else ""
            )
        )

    def on_complete(self, msg, now: float) -> None:
        self._touch(now, f"completion of msg {msg.msg_id}")
        ledger = self._ledgers.get(msg.msg_id)
        if ledger is not None:
            if ledger.completed:
                self._violate(
                    "chunk-exactly-once",
                    f"msg {msg.msg_id} completed twice",
                    now,
                )
            ledger.completed = True
            if ledger.bytes_accounted != ledger.size:
                self._violate(
                    "byte-conservation",
                    f"msg {msg.msg_id} completed with "
                    f"{ledger.bytes_accounted}B of {ledger.size}B accounted",
                    now,
                )
        if msg.bytes_received != msg.size:
            self._violate(
                "byte-conservation",
                f"msg {msg.msg_id} completed with bytes_received="
                f"{msg.bytes_received} != size={msg.size}",
                now,
            )
        self._note(f"complete msg={msg.msg_id}")

    def on_degraded(self, msg, now: float, *_) -> None:
        self._touch(now, f"degradation of msg {msg.msg_id}")
        ledger = self._ledgers.get(msg.msg_id)
        if ledger is not None:
            ledger.degraded = True
        reason = msg.outcome.reason if msg.outcome is not None else "?"
        self._note(f"degraded msg={msg.msg_id}: {reason}")

    def on_retry(self, msg, old, new, max_retries: int, now: float, *_) -> None:
        self._touch(now, f"retry of transfer {old.transfer_id}")
        if msg.retries > max_retries:
            self._violate(
                "retry-bounds",
                f"msg {msg.msg_id} at {msg.retries} retries, budget is "
                f"{max_retries}",
                now,
            )
        if new.retry_of != old.transfer_id:
            self._violate(
                "retry-bounds",
                f"replacement #{new.transfer_id} says retry_of="
                f"{new.retry_of}, superseded transfer is #{old.transfer_id}",
                now,
            )
        self._note(
            f"retry msg={msg.msg_id} #{old.transfer_id}->#{new.transfer_id}"
        )

    # ------------------------------------------------------------------ #
    # scheduler / NIC / PIOMan / injector hooks
    # ------------------------------------------------------------------ #

    def on_activation(self, node: str, outlist, now: float) -> None:
        self._touch(now, f"scheduler activation on {node}")
        for msg in outlist:
            if msg.status.value in ("complete", "degraded"):
                self._violate(
                    "drain-no-stuck",
                    f"terminal msg {msg.msg_id} ({msg.status.value}) still "
                    f"queued in {node}'s out-list",
                    now,
                )

    def on_tx(self, nic, transfer, start: float, now: float) -> None:
        self._touch(now, f"tx of transfer {transfer.transfer_id}")
        if start - now > _EPS:
            self._violate(
                "nic-tx-sanity",
                f"{nic.qualified_name}: tx of #{transfer.transfer_id} "
                f"started at t={start}, after finishing at t={now}",
                now,
            )
        if transfer.kind.is_control:
            return  # zero-length, and it never holds the transmit engine
        name = nic.qualified_name
        last_end = self._tx_end.get(name)
        if last_end is not None and start + _EPS < last_end:
            self._violate(
                "nic-tx-sanity",
                f"{name}: tx of #{transfer.transfer_id} "
                f"started at t={start}, before the previous transmission "
                f"on it ended at t={last_end}",
                now,
            )
        self._tx_end[name] = now

    def on_arrival(self, transfer, nic) -> None:
        now = nic.sim.now
        self._touch(now, f"rx of transfer {transfer.transfer_id}")
        if (
            transfer.t_delivered is not None
            and transfer.t_complete is not None
            and transfer.t_complete + _EPS < transfer.t_delivered
        ):
            self._violate(
                "rx-causality",
                f"transfer #{transfer.transfer_id} completed receive-side "
                f"processing at t={transfer.t_complete} before its last "
                f"byte landed at t={transfer.t_delivered}",
                now,
            )

    def on_fault(self, rule_id: int, action, now: float, *_) -> None:
        self._touch(now, f"fault rule {rule_id}")
        last_time, last_rule = self._last_fault
        if now < last_time or (now == last_time and rule_id < last_rule):
            self._violate(
                "fault-rule-order",
                f"fault rule {rule_id} ({action.action} {action.nic}) fired "
                f"at t={now} after rule {last_rule} at t={last_time}",
                now,
            )
        self._last_fault = (now, rule_id)
        self._note(f"fault rule={rule_id} {action.action} {action.nic}")

    # ------------------------------------------------------------------ #
    # fabric routing / collective re-plan hooks
    # ------------------------------------------------------------------ #

    def on_route(self, switch, spine, alive: bool, now: float) -> None:
        """An inter-pod flow was assigned a spine (or failed to be)."""
        self._touch(now, f"route decision on {switch.name}")
        if not alive:
            self._violate(
                "route-liveness",
                f"{switch.name}: flow pinned to down spine {spine} while "
                f"another spine is up",
                now,
            )

    def on_replan(
        self,
        rank: int,
        seq: int,
        planned: int,
        accounted: int,
        remaining: int,
        now: float,
        *_,
    ) -> None:
        """A collective re-cut its remaining schedule mid-flight."""
        self._touch(now, f"re-plan on rank {rank}")
        if accounted + remaining != planned:
            self._violate(
                "replan-byte-conservation",
                f"rank {rank} collective {seq}: {accounted}B accounted + "
                f"{remaining}B pending != {planned}B planned",
                now,
            )
        self._note(
            f"replan rank={rank} seq={seq} "
            f"{accounted}/{planned}B accounted, {remaining}B re-cut"
        )

    def on_collective_complete(
        self, rank: int, seq: int, planned: int, accounted: int, now: float
    ) -> None:
        """A re-planning collective drained its send schedule."""
        self._touch(now, f"collective completion on rank {rank}")
        if accounted != planned:
            self._violate(
                "collective-completion",
                f"rank {rank} collective {seq} finished with {accounted}B "
                f"accounted of {planned}B planned",
                now,
            )
        self._note(f"collective-done rank={rank} seq={seq} {planned}B")

    # ------------------------------------------------------------------ #
    # drain audit
    # ------------------------------------------------------------------ #

    def check_drain(self, cluster) -> None:
        """At drain: every message terminal, no NIC mid-transmit.

        Raise :class:`InvariantViolation` naming every stuck message with
        a per-message diagnosis — the ``drain-no-stuck`` invariant that
        turns a silent hang into a structured failure.
        """
        now = cluster.sim.now
        self._touch(now, "drain audit")
        if cluster.sim.pending_events:
            self._violate(
                "drain-no-stuck",
                f"drain audit ran with {cluster.sim.pending_events} "
                f"event(s) still queued",
                now,
            )
        stuck = cluster.drain_report()
        if stuck:
            self._violate("drain-no-stuck", stuck_detail(stuck), now)
        for name in sorted(cluster.machines):
            for nic in cluster.machines[name].nics:
                live = [
                    t
                    for t in nic._pending
                    if not t.aborted and t.t_tx_done is None
                ]
                if live:
                    self._violate(
                        "nic-tx-sanity",
                        f"{nic.qualified_name} still holds "
                        f"{len(live)} undrained transfer(s) at drain",
                        now,
                    )

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic counters (for soak reports and tests)."""
        return {
            "checks_performed": self.checks_performed,
            "duplicates_seen": self.duplicates_seen,
            "messages_tracked": len(self._ledgers),
        }


__all__ = [
    "DEFAULT_TRAIL_DEPTH",
    "InvariantMonitor",
    "InvariantViolation",
    "stuck_detail",
]
