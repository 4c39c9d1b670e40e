"""Span-based structured tracer for the simulation's virtual time.

The tracer records *facts about simulated instants* — never wall-clock
time — so two runs of the same cluster produce byte-identical event
lists.  Events follow the Chrome ``trace_event`` vocabulary:

* ``complete`` (phase ``X``) — a closed interval on one lane (a NIC
  transmit, a receive-processing slice);
* ``instant`` (phase ``i``) — a point decision (a plan, a fault, an
  offload signal);
* ``async_begin``/``async_end`` (phases ``b``/``e``) — an id-matched
  span that may overlap others on the same lane (message lifecycles,
  transfer lifecycles);
* ``counter`` (phase ``C``) — a sampled value series.

The tracer is a subscriber of the cluster's hook stream
(:mod:`repro.obs.hooks`): its ``on_*`` handlers below turn engine facts
into events, and are the only place that knows the trace's lanes.  When
tracing is off the tracer is simply not subscribed.

A bounded tracer (``limit``) drops the newest events once full — except
the end of an async span whose begin it kept, so a truncated trace
still pairs every recorded begin.

``pid``/``tid`` are recorded as the *node name* and a human-readable
*lane* string; :mod:`repro.obs.chrome_export` maps them to the integers
the Chrome JSON format wants and emits the matching metadata events.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

#: default cap on recorded events before the tracer starts dropping
#: (deterministic: based purely on the event count, never on memory)
DEFAULT_TRACE_LIMIT = 1_000_000


class Tracer:
    """Recording tracer: appends event dicts to an in-memory list."""

    __slots__ = ("events", "limit", "dropped", "enabled", "_seq", "_open")

    def __init__(self, limit: Optional[int] = DEFAULT_TRACE_LIMIT) -> None:
        self.events: List[Dict[str, Any]] = []
        self.limit = limit
        self.dropped = 0
        #: subscribed to the hook stream (False: the surface is off)
        self.enabled = True
        self._seq = 0
        #: open async spans (key -> count), tallied once the limit is hit
        self._open: Optional[Dict[Tuple, int]] = None

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"<Tracer {len(self.events)} events, {self.dropped} dropped>"

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0
        self._seq = 0
        self._open = None

    # ------------------------------------------------------------------ #
    # recording primitives
    # ------------------------------------------------------------------ #

    def _push(self, event: Dict[str, Any]) -> None:
        if self.limit is not None and len(self.events) >= self.limit:
            if not self._closes_kept_span(event):
                self.dropped += 1
                return
        event["seq"] = self._seq
        self._seq += 1
        self.events.append(event)

    def _closes_kept_span(self, event: Dict[str, Any]) -> bool:
        """Past the limit: is ``event`` the end of a span whose begin was
        recorded?  Such ends are kept, so no exported span dangles."""
        if event["ph"] != "e":
            return False
        if self._open is None:
            self._open = {}
            for ev in self.events:
                if ev["ph"] in ("b", "e"):
                    key = (ev["cat"], ev["id"], ev["name"])
                    step = 1 if ev["ph"] == "b" else -1
                    self._open[key] = self._open.get(key, 0) + step
        key = (event["cat"], event["id"], event["name"])
        if self._open.get(key, 0) <= 0:
            return False
        self._open[key] -= 1
        return True

    def complete(
        self,
        node: str,
        lane: str,
        name: str,
        ts: float,
        dur: float,
        cat: str = "span",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """A closed ``[ts, ts+dur]`` interval on one lane (phase ``X``)."""
        ev: Dict[str, Any] = {
            "ph": "X", "name": name, "cat": cat,
            "pid": node, "tid": lane, "ts": ts, "dur": dur,
        }
        if args:
            ev["args"] = args
        self._push(ev)

    def instant(
        self,
        node: str,
        lane: str,
        name: str,
        ts: float,
        cat: str = "event",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """A point event on one lane (phase ``i``, thread scope)."""
        ev: Dict[str, Any] = {
            "ph": "i", "name": name, "cat": cat,
            "pid": node, "tid": lane, "ts": ts, "s": "t",
        }
        if args:
            ev["args"] = args
        self._push(ev)

    def async_begin(
        self,
        node: str,
        lane: str,
        name: str,
        span_id: int,
        ts: float,
        cat: str = "message",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Open an id-matched span (phase ``b``); close with
        :meth:`async_end` using the same ``(cat, span_id, name)``."""
        ev: Dict[str, Any] = {
            "ph": "b", "name": name, "cat": cat,
            "pid": node, "tid": lane, "ts": ts, "id": span_id,
        }
        if args:
            ev["args"] = args
        self._push(ev)

    def async_end(
        self,
        node: str,
        lane: str,
        name: str,
        span_id: int,
        ts: float,
        cat: str = "message",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        ev: Dict[str, Any] = {
            "ph": "e", "name": name, "cat": cat,
            "pid": node, "tid": lane, "ts": ts, "id": span_id,
        }
        if args:
            ev["args"] = args
        self._push(ev)

    def counter(
        self,
        node: str,
        name: str,
        ts: float,
        values: Dict[str, float],
        cat: str = "metric",
    ) -> None:
        """A sampled value series point (phase ``C``)."""
        self._push(
            {
                "ph": "C", "name": name, "cat": cat,
                "pid": node, "tid": "counters", "ts": ts,
                "args": dict(values),
            }
        )

    # ------------------------------------------------------------------ #
    # hook subscriber (repro.obs.hooks): engine facts -> trace events
    # ------------------------------------------------------------------ #

    def on_send(self, msg) -> None:
        self.async_begin(
            msg.src, "messages", f"msg{msg.msg_id}", msg.msg_id,
            msg.t_post, cat="message",
            args={
                "dest": msg.dest, "size": msg.size, "tag": msg.tag,
                "mode": msg.mode.value if msg.mode else "deferred",
            },
        )

    def on_complete(self, msg, now: float) -> None:
        self.async_end(
            msg.src, "messages", f"msg{msg.msg_id}", msg.msg_id,
            now, cat="message", args={"retries": msg.retries},
        )

    def on_degraded(self, msg, now: float, node: str) -> None:
        self.instant(
            node, "faults", "degraded", now, cat="fault",
            args={
                "msg": msg.msg_id,
                "reason": msg.outcome.reason,
                "retries": msg.retries,
                "bytes_received": msg.bytes_received,
            },
        )
        # Close the message's async span so the trace validates even
        # when a send is given up on.
        self.async_end(
            msg.src, "messages", f"msg{msg.msg_id}", msg.msg_id,
            now, cat="message", args={"degraded": True},
        )

    def on_retry(self, msg, old, new, max_retries, now, nic, reason) -> None:
        self.instant(
            nic.machine.name, "faults", "retry", now, cat="fault",
            args={
                "msg": msg.msg_id,
                "kind": new.kind.value,
                "old_transfer": old.transfer_id,
                "new_transfer": new.transfer_id,
                "rail": nic.qualified_name,
                "reason": reason,
            },
        )

    def on_arrival(self, transfer, nic) -> None:
        """Transfer lifecycle span, emitted as an id-matched pair at
        arrival (the exporter re-sorts by timestamp)."""
        if transfer.t_submit is None or transfer.t_complete is None:
            return
        src = transfer.src_node or "?"
        rail = transfer.nic_name or nic.qualified_name
        lane = f"rail:{rail.split('.')[-1]}"
        self.async_begin(
            src, lane, transfer.kind.value, transfer.transfer_id,
            transfer.t_submit, cat="transfer",
            args={
                "msg": transfer.msg_id,
                "size": transfer.size,
                "rail": rail,
                "chunk": f"{transfer.chunk_index + 1}/{transfer.chunk_count}",
            },
        )
        self.async_end(
            src, lane, transfer.kind.value, transfer.transfer_id,
            transfer.t_complete, cat="transfer",
        )

    def on_plan(
        self, node, considered, offsets, size, mode, plan, iterations, cached
    ) -> None:
        """One §II-B decision: rails considered with their busy offsets,
        rails chosen (the others are the Fig. 2 discards), split ratio,
        dichotomy iterations."""
        chosen = {n.qualified_name for n in plan.nics}
        self.instant(
            node, "planner", "plan", considered[0].sim.now, cat="decision",
            args={
                "size": size,
                "mode": mode.value,
                "considered": [n.qualified_name for n in considered],
                "busy_offsets_us": list(offsets),
                "chosen": sorted(chosen),
                "chunk_sizes": list(plan.sizes),
                "iterations": iterations,
                "predicted_completion_us": plan.predicted_completion,
                "cache": "hit" if cached else "miss",
            },
        )

    def on_split(self, node, msg, plan, to_us, now) -> None:
        self.instant(
            node, "strategy", "split", now, cat="decision",
            args={
                "msg": msg.msg_id,
                "size": msg.size,
                "rails": [n.qualified_name for n in plan.nics],
                "chunk_sizes": list(plan.sizes),
                "iterations": plan.split.iterations,
                "to_us": to_us,
            },
        )

    def on_aggregate(self, node, msgs, nic, now) -> None:
        self.instant(
            node, "strategy", "aggregate", now, cat="decision",
            args={
                "dest": msgs[0].dest,
                "messages": [m.msg_id for m in msgs],
                "total_bytes": sum(m.size for m in msgs),
                "rail": nic.qualified_name,
            },
        )

    def on_tx(self, nic, transfer, start, now) -> None:
        """Transmit-engine occupancy: serialized per NIC, so these X
        events never overlap within one lane."""
        if start is None:
            return
        self.complete(
            nic.machine.name, f"nic:{nic.name}",
            f"tx:{transfer.kind.value}", start, now - start, cat="tx",
            args={
                "transfer": transfer.transfer_id,
                "msg": transfer.msg_id,
                "size": transfer.size,
                "aborted": transfer.aborted,
            },
        )

    def _nic_instant(self, nic, name: str, args: Dict[str, Any]) -> None:
        self.instant(
            nic.machine.name, f"nic:{nic.name}", name, nic.sim.now,
            cat="fault", args=args,
        )

    def on_nic_down(self, nic, aborted) -> None:
        self._nic_instant(
            nic, "nic-down", {"aborted": [t.transfer_id for t in aborted]}
        )

    def on_nic_up(self, nic, since) -> None:
        self._nic_instant(nic, "nic-up", {"downtime_us": nic.sim.now - since})

    def on_nic_degrade(self, nic, bw_factor, extra_latency) -> None:
        self._nic_instant(
            nic, "nic-degrade",
            {"bw_factor": bw_factor, "extra_latency": extra_latency},
        )

    def on_nic_restore(self, nic, since) -> None:
        self._nic_instant(
            nic, "nic-restore", {"degraded_us": nic.sim.now - since}
        )

    def on_drop(self, nic, transfer, rule) -> None:
        self._nic_instant(
            nic, "packet-drop",
            {
                "transfer": transfer.transfer_id,
                "kind": transfer.kind.value,
                "rule": rule.label,
            },
        )

    def on_link(self, switch, src, dst, transfer, start, drain, stall) -> None:
        """Output-port drain as an ``X`` span in a per-link lane of a
        ``fabric:{switch}`` pseudo-node: port draining serializes, so
        Perfetto shows incast as back-to-back blocks."""
        self.complete(
            f"fabric:{switch.name}", f"link:{dst.machine.name}",
            f"fwd:{transfer.kind.value}", start, drain, cat="fabric",
            args={
                "transfer": transfer.transfer_id,
                "msg": transfer.msg_id,
                "size": transfer.size,
                "src": src.machine.name,
                "stall_us": stall,
            },
        )

    def on_spine(self, switch, src, transfer, spine, start, drain, stall) -> None:
        self.complete(
            f"fabric:{switch.name}", f"spine:{spine}",
            f"fwd:{transfer.kind.value}", start, drain, cat="fabric",
            args={
                "transfer": transfer.transfer_id,
                "msg": transfer.msg_id,
                "size": transfer.size,
                "src": src.machine.name,
                "dst": transfer.dst_node,
                "stall_us": stall,
            },
        )

    def on_offload(self, machine, core, issuing_core, preempt, pending, now) -> None:
        topo = machine.topology
        self.instant(
            machine.name, "pioman", "offload", now, cat="offload",
            args={
                "core": core.core_id,
                "from_core": issuing_core.core_id,
                "preempt": preempt,
                "signal_cost_us": (
                    topo.preempt_cost_us if preempt else topo.signal_cost_us
                ),
                "pending_sends": pending,
            },
        )

    def on_rx_interrupt(self, nic, transfer, core, cost) -> None:
        self.instant(
            nic.machine.name, "pioman", "rx-interrupt", nic.sim.now,
            cat="offload",
            args={
                "nic": nic.qualified_name,
                "transfer": transfer.transfer_id,
                "core": core.core_id,
                "signal_cost_us": nic.machine.topology.preempt_cost_us,
                "rx_cost_us": cost,
            },
        )

    def on_fault(self, rule_id, action, now, device, target) -> None:
        if action.action.startswith("silent_"):
            # Silent faults are the calibration drift loop's test case:
            # nothing downstream of obs may learn about them.
            return
        params = {"rule_id": rule_id, "params": dict(action.params)}
        machine = getattr(device, "machine", None)
        if machine is not None:
            node, lane, args = machine.name, f"nic:{device.name}", {"nic": target}
        else:
            node, lane, args = device.name, "fabric", {"target": target}
        args.update(params)
        self.instant(
            node, lane, f"fault:{action.action}", now, cat="fault", args=args
        )

    def _calibration_instant(self, nic, name: str, args: Dict[str, Any]) -> None:
        self.instant(
            nic.machine.name, "calibration", name, nic.sim.now,
            cat="calibration", args=args,
        )

    def on_drift(self, nic, band, ewma) -> None:
        self._calibration_instant(
            nic, "drift-detected",
            {"rail": nic.qualified_name, "band": band, "ewma": ewma},
        )

    def on_resample(self, nic, blend) -> None:
        self._calibration_instant(
            nic, "resample",
            {
                "rail": nic.qualified_name,
                "technology": nic.profile.name,
                "blend": blend,
            },
        )

    def on_fallback(self, nic, node, before, after, confidence) -> None:
        self._calibration_instant(
            nic, "fallback",
            {
                "node": node,
                "from": before.name,
                "to": after.name,
                "confidence": confidence,
            },
        )
