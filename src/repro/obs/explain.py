"""Per-message phase breakdown: where did the microseconds go?

:func:`explain` turns a completed :class:`~repro.core.packets.Message`
into a human-readable report of every NIC-level transfer that carried it
(control packets included), with per-phase timings — the first thing to
look at when a strategy's decision surprises you.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.util.errors import ConfigurationError
from repro.util.units import format_size

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.packets import Message


def _phase(t0, t1) -> str:
    if t0 is None or t1 is None:
        return "      ?"
    return f"{t1 - t0:7.2f}"


def explain(msg: Message) -> str:
    """Render the message's transfer-level timeline as a fixed-width table.

    Columns per transfer: kind, size, rail, submit instant, then the
    queue (submit→transmit-start), transmit, flight (wire), and
    receive-processing phases in µs.
    """
    if not msg.transfers:
        raise ConfigurationError(
            f"msg {msg.msg_id} has no recorded transfers (not dispatched yet?)"
        )
    lines = [
        f"message #{msg.msg_id}: {format_size(msg.size)} "
        f"{msg.src} -> {msg.dest} tag={msg.tag} "
        f"mode={msg.mode.value if msg.mode else '?'} "
        f"status={msg.status.value}",
    ]
    if msg.latency is not None:
        lines.append(
            f"posted t={msg.t_post:.2f}us, completed t={msg.t_complete:.2f}us "
            f"(latency {msg.latency:.2f}us)"
        )
    if msg.retries:
        lines.append(f"retries: {msg.retries}")
    if msg.outcome is not None:
        lines.append(
            f"DEGRADED: {msg.outcome.reason} — delivered "
            f"{format_size(msg.outcome.bytes_received)} of "
            f"{format_size(msg.outcome.size)} "
            f"({msg.outcome.delivered_fraction:.0%})"
        )
    header = (
        f"  {'kind':<9} {'size':>7} {'rail':<18} {'submit':>9} "
        f"{'queue':>7} {'tx':>7} {'flight':>7} {'rxproc':>7}"
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for t in sorted(msg.transfers, key=lambda t: t.t_submit or 0.0):
        rail = (t.nic_name or "?").split(".")[-1]
        submit = f"{t.t_submit:9.2f}" if t.t_submit is not None else "        ?"
        flags = []
        if t.aborted:
            flags.append("LOST(nic-down)")
        elif t.dropped:
            flags.append("LOST(dropped)")
        if t.retry_of is not None:
            flags.append(f"RETRY(of #{t.retry_of})")
        flag_str = ("  " + " ".join(flags)) if flags else ""
        lines.append(
            f"  {t.kind.value:<9} {format_size(t.size):>7} {rail:<18} {submit} "
            f"{_phase(t.t_submit, t.t_wire_start):>7} "
            f"{_phase(t.t_wire_start, t.t_tx_done):>7} "
            f"{_phase(t.t_tx_done, t.t_delivered):>7} "
            f"{_phase(t.t_delivered, t.t_complete):>7}"
            f"{flag_str}"
        )
    if msg.rail_notes:
        lines.append("rails avoided:")
        for note in msg.rail_notes:
            lines.append(f"  - {note}")
    predicted = [
        t
        for t in msg.transfers
        if t.predicted_time is not None and t.t_complete is not None
    ]
    if predicted:
        lines.append("prediction accuracy (per data chunk, service time):")
        lines.append(
            f"  {'kind':<9} {'rail':<18} {'predicted':>10} {'actual':>10} "
            f"{'error':>9}"
        )
        for t in sorted(predicted, key=lambda t: t.t_submit or 0.0):
            start = t.t_service_start if t.t_service_start is not None else t.t_submit
            actual = t.t_complete - (start or 0.0)
            err = (
                (actual - t.predicted_time) / t.predicted_time
                if t.predicted_time > 0
                else 0.0
            )
            rail = (t.nic_name or "?").split(".")[-1]
            lines.append(
                f"  {t.kind.value:<9} {rail:<18} {t.predicted_time:9.2f}u "
                f"{actual:9.2f}u {err:+8.2%}"
            )
    return "\n".join(lines)
