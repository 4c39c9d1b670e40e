"""Flight recorder: a bounded ring of recent events, dumped post-mortem.

The third obs surface after tracing and metrics.  Where the tracer keeps
*everything* (up to its limit) for offline visualization, the flight
recorder keeps only the last ``capacity`` events — cheap enough to leave
armed through long runs — and *snapshots* the ring into a structured
dump when something goes wrong:

* an :class:`~repro.core.invariants.InvariantViolation` found by
  :meth:`Cluster.check_drain`,
* a :class:`~repro.core.packets.DegradedSend` (the engine's retry ladder
  ran out),
* a calibration fallback-ladder drop (trust demoted a level),
* messages still stuck at drain (``drain_stuck``).

The recorder is a subscriber of the cluster's hook stream
(:mod:`repro.obs.hooks`): its ``on_*`` handlers below are the only place
that knows the record kinds and dump reasons.  Recording is purely
passive (one flat tuple of values appended to a ``deque``: ``(t, node,
kind, detail names, *detail values)``; no events scheduled, no simulated
state read back into planning), the detail dicts are built only when a
dump is taken, and dumps are deterministic — events carry only simulated
time and stable identifiers, so the same run ships the same dump
byte-for-byte.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from repro.util.errors import ConfigurationError

#: ring capacity when not configured (events, not bytes — small on
#: purpose: the dump is evidence around the failure, not a full trace)
DEFAULT_FLIGHT_CAPACITY = 256

#: dumps retained per recorder (a soak scenario rarely needs more than
#: the first failure; keep a few in case faults cascade)
MAX_DUMPS = 8

# detail names of the hook handlers' records
_SEND = ("msg", "dest", "size", "tag")
_DUPLICATE = ("msg", "transfer")
_COMPLETE = ("msg", "retries")
_DEGRADED = ("msg", "reason", "retries", "bytes_received")
_RETRY = ("msg", "rail", "reason")
_REPLAN = (
    "rank", "tag", "replan", "accounted_bytes", "pending_bytes", "pending_hops",
)


class FlightRecorder:
    """Bounded ring buffer of recent simulator events + trigger dumps."""

    __slots__ = ("capacity", "events", "dumps", "recorded", "triggered")

    def __init__(self, capacity: int = DEFAULT_FLIGHT_CAPACITY) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"flight recorder capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self.events: deque = deque(maxlen=capacity)
        self.dumps: List[Dict[str, object]] = []
        self.recorded = 0
        self.triggered = 0

    def __repr__(self) -> str:
        return (
            f"<FlightRecorder {len(self.events)}/{self.capacity} events, "
            f"{len(self.dumps)} dump(s)>"
        )

    def record(
        self, kind: str, t: float, node: str, detail: Optional[Dict] = None
    ) -> None:
        """Append one event to the ring (old events fall off the back)."""
        if detail:
            self._append((t, node, kind, tuple(detail)) + tuple(detail.values()))
        else:
            self._append((t, node, kind, ()))

    def _append(self, event: tuple) -> None:
        self.recorded += 1
        self.events.append(event)

    def trigger(
        self, reason: str, t: float, detail: Optional[Dict] = None
    ) -> Dict[str, object]:
        """Snapshot the ring into a post-mortem dump.

        The triggering condition itself is included (as ``trigger``) so
        the dump is self-contained evidence.  Retention keeps the *most
        recent* :data:`MAX_DUMPS` dumps (oldest evicted) — a cascade of
        degraded sends must not crowd out the invariant violation that
        follows them.
        """
        self.triggered += 1
        if len(self.dumps) >= MAX_DUMPS:
            self.dumps.pop(0)
        dump: Dict[str, object] = {
            "reason": reason,
            "time_us": t,
            "trigger": detail or {},
            "events_recorded": self.recorded,
            "events": [
                {
                    "time_us": ev[0],
                    "node": ev[1],
                    "kind": ev[2],
                    "detail": dict(zip(ev[3], ev[4:])),
                }
                for ev in self.events
            ],
        }
        self.dumps.append(dump)
        return dump

    def last_dump(self) -> Optional[Dict[str, object]]:
        return self.dumps[-1] if self.dumps else None

    def snapshot(self) -> Dict[str, object]:
        """JSON-able state: ring summary + every retained dump."""
        return {
            "capacity": self.capacity,
            "recorded": self.recorded,
            "buffered": len(self.events),
            "triggered": self.triggered,
            "dumps": list(self.dumps),
        }

    def clear(self) -> None:
        self.events.clear()
        self.dumps.clear()
        self.recorded = 0
        self.triggered = 0

    # ------------------------------------------------------------------ #
    # hook subscriber (repro.obs.hooks): engine facts -> ring / dumps
    # ------------------------------------------------------------------ #

    def on_send(self, msg) -> None:
        self._append((
            msg.t_post, msg.src, "send", _SEND,
            msg.msg_id, msg.dest, msg.size, msg.tag,
        ))

    def on_duplicate(self, msg, transfer, now) -> None:
        self._append((
            now, msg.dest, "duplicate-suppressed", _DUPLICATE,
            msg.msg_id, transfer.transfer_id,
        ))

    def on_complete(self, msg, now) -> None:
        self._append(
            (now, msg.src, "complete", _COMPLETE, msg.msg_id, msg.retries)
        )

    def on_degraded(self, msg, now, node) -> None:
        reason = msg.outcome.reason
        self._append((
            now, node, "degraded", _DEGRADED,
            msg.msg_id, reason, msg.retries, msg.bytes_received,
        ))
        # A send was given up on — dump the ring for post-mortem.
        self.trigger(
            "degraded-send", now,
            detail={"msg": msg.msg_id, "reason": reason, "node": node},
        )

    def on_retry(self, msg, old, new, max_retries, now, nic, reason) -> None:
        self._append((
            now, nic.machine.name, "retry", _RETRY,
            msg.msg_id, nic.qualified_name, reason,
        ))

    def on_replan(
        self, rank, seq, planned, accounted, remaining, now, node, replan, hops
    ) -> None:
        self._append((
            now, node, "collective-replan", _REPLAN,
            rank, seq, replan, accounted, remaining, hops,
        ))
        self.trigger(
            "collective-replan", now, {"rank": rank, "tag": seq, "replan": replan}
        )

    def on_fallback(self, nic, node, before, after, confidence) -> None:
        if after < before:
            # A ladder *drop* (lost trust) is a post-mortem moment.
            self.trigger(
                "ladder-drop", nic.sim.now,
                detail={
                    "node": node,
                    "from": before.name,
                    "to": after.name,
                    "confidence": confidence,
                },
            )

    def on_violation(self, violation, now) -> None:
        self.trigger(
            "invariant-violation", now,
            detail={"invariant": violation.invariant, "message": violation.detail},
        )

    def on_drain_stuck(self, drained, now) -> None:
        self.trigger(
            "drain-stuck", now,
            detail={
                "drained": len(drained),
                "msg_ids": [m.msg_id for m in drained[:16]],
            },
        )
