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
into events, and are the only place that knows the trace's lanes.  With
observability off the tracer is simply not subscribed.

An event is recorded as one flat tuple of values, captured when the
hook fires (see :data:`Record`); the lane and name strings of the hot
handlers are built once per NIC, switch port, spine or transfer kind.
The hot handlers and :meth:`Tracer.collective` (the collective
profiler's spans, pushed at read-out) push module-constant shapes
straight to the log; the generic primitives (:meth:`Tracer.complete`,
:meth:`Tracer.instant`, ...) derive a shape from an args dict, for the
handful of fault, calibration and offload events.  Enum members are
read through ``_value_``, a plain attribute: ``.value`` and hashing a
member run Python code in :mod:`enum` on every call.
Event dicts are built only when something reads them, by one builder,
:func:`event_dicts`, for :attr:`Tracer.events` and
:func:`repro.obs.chrome_export.chrome_trace`.

A bounded tracer (``limit``) drops the newest events once full — except
the end of an async span whose begin it kept, so a truncated trace
still pairs every recorded begin.

``pid``/``tid`` are recorded as the *node name* and a human-readable
*lane* string; :mod:`repro.obs.chrome_export` maps them to the integers
the Chrome JSON format wants and emits the matching metadata events.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.util.errors import ConfigurationError

#: default cap on recorded events before the tracer starts dropping
#: (deterministic: based purely on the event count, never on memory)
DEFAULT_TRACE_LIMIT = 1_000_000

#: One recorded event: ``(shape, where, name, ts, x, *arg values)``.
#:
#: * ``shape`` — ``(ph, cat, arg names, arg kinds)``, one constant per
#:   kind of event;
#: * ``where`` — ``(pid, tid)``, built once per lane;
#: * ``x`` — ``dur`` of an ``X``, ``id`` of a ``b``/``e``, else ``None``;
#: * arg kinds — ``None`` when every arg value is a scalar, else one
#:   letter per arg: ``v`` as recorded, ``l`` a list kept as a tuple,
#:   ``d`` a dict kept as a tuple of ``(key, value)`` pairs.
#:
#: Every field is a str, int, float, bool, ``None`` or a tuple of these.
Record = Tuple[Any, ...]

_KINDS = {list: "l", dict: "d"}

# shapes of the hook handlers' events
_SEND = ("b", "message", ("dest", "size", "tag", "mode"), None)
_MESSAGE_END = ("e", "message", ("retries",), None)
_TRANSFER_BEGIN = ("b", "transfer", ("msg", "size", "rail", "chunk"), None)
_TRANSFER_END = ("e", "transfer", (), None)
_TX = ("X", "tx", ("transfer", "msg", "size", "aborted"), None)
_LINK = ("X", "fabric", ("transfer", "msg", "size", "src", "stall_us"), None)
_SPINE = (
    "X", "fabric", ("transfer", "msg", "size", "src", "dst", "stall_us"), None,
)
_PLAN = (
    "i", "decision",
    (
        "size", "mode", "considered", "busy_offsets_us", "chosen",
        "chunk_sizes", "iterations", "predicted_completion_us", "cache",
    ),
    "vvllllvvv",
)
# shapes of the collective profiler's spans (Tracer.collective)
_COLLECTIVE = ("X", "collective", ("algorithm", "nbytes", "rank", "hops"), None)
_HOP_BEGIN = ("b", "collective-hop", ("collective", "dst", "size", "tag"), None)
_HOP_END = ("e", "collective-hop", (), None)


def _freeze(kind: str, value: Any) -> Any:
    if kind == "l":
        return tuple(value)
    if kind == "d":
        return tuple(value.items())
    return value


def _thaw(kind: str, value: Any) -> Any:
    if kind == "l":
        return list(value)
    if kind == "d":
        return dict(value)
    return value


def event_dicts(
    records: Iterable[Record], ids: Dict[Tuple[str, str], Tuple[Any, Any]]
) -> List[Dict[str, Any]]:
    """``records`` as Chrome event dicts, in their order.

    ``ids`` maps each recorded ``(node, lane)`` to the event's
    ``(pid, tid)``: the integers the export assigns, or the lane itself.
    Keys come in the order ``ph, name, cat, pid, tid, ts``, then ``dur``,
    ``s`` or ``id``, then ``args``.
    """
    out: List[Dict[str, Any]] = []
    append = out.append
    for rec in records:
        ph, cat, keys, kinds = rec[0]
        pid, tid = ids[rec[1]]
        ev = {
            "ph": ph, "name": rec[2], "cat": cat, "pid": pid, "tid": tid,
            "ts": rec[3],
        }
        if ph == "X":
            ev["dur"] = rec[4]
        elif ph == "i":
            ev["s"] = "t"
        elif ph == "C":
            ev["args"] = {}
        else:
            ev["id"] = rec[4]
        if keys:
            if kinds is None:
                ev["args"] = dict(zip(keys, rec[5:]))
            else:
                ev["args"] = {
                    key: _thaw(kind, value)
                    for key, kind, value in zip(keys, kinds, rec[5:])
                }
        append(ev)
    return out


class Tracer:
    """Recording tracer: appends one flat :data:`Record` per event."""

    __slots__ = (
        "_log", "_cap", "dropped", "_open",
        "_messages", "_nics", "_rails", "_links", "_spines", "_names",
    )

    def __init__(self, limit: Optional[int] = DEFAULT_TRACE_LIMIT) -> None:
        if limit is not None and limit < 1:
            raise ConfigurationError(f"trace limit must be >= 1, got {limit}")
        self._log: List[Record] = []
        self._cap = math.inf if limit is None else limit
        self.dropped = 0
        #: open async spans (key -> count), tallied once the limit is hit
        self._open: Optional[Dict[Tuple, int]] = None
        # lanes (pid, tid), built once per emitter: node -> its message
        # lane, NIC -> its lane, (rail, src node), (switch, dst NIC) and
        # (switch, spine) -> lane; transfer kind -> ("tx:…", "fwd:…")
        self._messages: Dict[str, Tuple[str, str]] = {}
        self._nics: Dict[Any, Tuple[str, str]] = {}
        self._rails: Dict[Tuple, Tuple[str, str]] = {}
        self._links: Dict[Tuple, Tuple[str, str]] = {}
        self._spines: Dict[Tuple, Tuple[str, str]] = {}
        self._names: Dict[str, Tuple[str, str]] = {}

    def __len__(self) -> int:
        return len(self._log)

    def __repr__(self) -> str:
        return f"<Tracer {len(self._log)} events, {self.dropped} dropped>"

    @property
    def limit(self) -> Optional[int]:
        return None if self._cap == math.inf else self._cap

    @property
    def records(self) -> List[Record]:
        """The recorded events, oldest first (read-only view)."""
        return self._log

    @property
    def events(self) -> List[Dict[str, Any]]:
        """The recorded events as dicts, ``pid``/``tid`` the recorded
        node and lane; ``seq`` is the record order."""
        log = self._log
        out = event_dicts(log, {where: where for where in {r[1] for r in log}})
        for seq, ev in enumerate(out):
            ev["seq"] = seq
        return out

    def clear(self) -> None:
        self._log.clear()
        self.dropped = 0
        self._open = None

    # ------------------------------------------------------------------ #
    # recording primitives
    # ------------------------------------------------------------------ #

    def _push(self, record: Record) -> None:
        log = self._log
        if len(log) < self._cap:
            log.append(record)
        elif record[0][0] == "e" and self._closes_kept_span(record):
            log.append(record)
        else:
            self.dropped += 1

    def _closes_kept_span(self, record: Record) -> bool:
        """Past the limit: is ``record`` the end of a span whose begin was
        recorded?  Such ends are kept, so no exported span dangles."""
        if self._open is None:
            self._open = {}
            for rec in self._log:
                ph = rec[0][0]
                if ph == "b" or ph == "e":
                    key = (rec[0][1], rec[4], rec[2])
                    step = 1 if ph == "b" else -1
                    self._open[key] = self._open.get(key, 0) + step
        key = (record[0][1], record[4], record[2])
        if self._open.get(key, 0) <= 0:
            return False
        self._open[key] -= 1
        return True

    def _record(
        self,
        ph: str,
        cat: str,
        node: str,
        lane: str,
        name: str,
        ts: float,
        x: Any,
        args: Optional[Dict[str, Any]],
    ) -> None:
        if not args:
            self._push(((ph, cat, (), None), (node, lane), name, ts, x))
            return
        values = tuple(args.values())
        kinds: Optional[str] = "".join([_KINDS.get(type(v), "v") for v in values])
        if kinds == "v" * len(values):
            kinds = None
        else:
            values = tuple(map(_freeze, kinds, values))
        shape = (ph, cat, tuple(args), kinds)
        self._push((shape, (node, lane), name, ts, x) + values)

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
        self._record("X", cat, node, lane, name, ts, dur, args)

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
        self._record("i", cat, node, lane, name, ts, None, args)

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
        self._record("b", cat, node, lane, name, ts, span_id, args)

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
        self._record("e", cat, node, lane, name, ts, span_id, args)

    def counter(
        self,
        node: str,
        name: str,
        ts: float,
        values: Dict[str, float],
        cat: str = "metric",
    ) -> None:
        """A sampled value series point (phase ``C``)."""
        self._record("C", cat, node, "counters", name, ts, None, values)

    def collective(
        self,
        node: str,
        collective: str,
        seq: int,
        algorithm: str,
        nbytes: int,
        rank: int,
        t_start: float,
        t_end: float,
        msgs: List[Any],
    ) -> None:
        """One profiled collective call of one rank, its hops complete:
        an ``X`` span on the node's ``collectives`` lane, then each hop
        message's ``b``/``e`` pair on ``coll-hops``."""
        push = self._push
        push((
            _COLLECTIVE, (node, "collectives"), f"{collective}[{seq}]",
            t_start, t_end - t_start, algorithm, nbytes, rank, len(msgs),
        ))
        hops = (node, "coll-hops")
        for m in msgs:
            msg_id = m.msg_id
            name = f"hop{msg_id}"
            push((
                _HOP_BEGIN, hops, name, m.t_post, msg_id,
                collective, m.dest, m.size, m.tag,
            ))
            push((_HOP_END, hops, name, m.t_complete, msg_id))

    # ------------------------------------------------------------------ #
    # lanes and names, built on an emitter's first event
    # ------------------------------------------------------------------ #

    def _message_lane(self, node: str) -> Tuple[str, str]:
        where = self._messages.get(node)
        if where is None:
            where = self._messages[node] = (node, "messages")
        return where

    def _kind_names(self, kind: str) -> Tuple[str, str]:
        names = self._names.get(kind)
        if names is None:
            names = self._names[kind] = (f"tx:{kind}", f"fwd:{kind}")
        return names

    # ------------------------------------------------------------------ #
    # hook subscriber (repro.obs.hooks): engine facts -> trace events
    # ------------------------------------------------------------------ #

    def on_send(self, msg) -> None:
        # The mode is read now: a message posted while every rail is
        # down is "deferred" here and gets its mode later.
        mode = msg.mode
        self._push((
            _SEND, self._message_lane(msg.src),
            f"msg{msg.msg_id}", msg.t_post, msg.msg_id,
            msg.dest, msg.size, msg.tag,
            mode._value_ if mode else "deferred",
        ))

    def on_complete(self, msg, now: float) -> None:
        self._push((
            _MESSAGE_END, self._message_lane(msg.src),
            f"msg{msg.msg_id}", now, msg.msg_id, msg.retries,
        ))

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
                "kind": new.kind._value_,
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
        where = self._rails.get((rail, src))
        if where is None:
            where = self._rails[(rail, src)] = (
                src, f"rail:{rail.split('.')[-1]}"
            )
        name = transfer.kind._value_
        self._push((
            _TRANSFER_BEGIN, where, name, transfer.t_submit,
            transfer.transfer_id, transfer.msg_id, transfer.size, rail,
            f"{transfer.chunk_index + 1}/{transfer.chunk_count}",
        ))
        self._push((
            _TRANSFER_END, where, name, transfer.t_complete,
            transfer.transfer_id,
        ))

    def on_plan(
        self, node, considered, offsets, size, mode, plan, iterations, cached
    ) -> None:
        """One §II-B decision: rails considered with their busy offsets,
        rails chosen (the others are the Fig. 2 discards), split ratio,
        dichotomy iterations."""
        self._push((
            _PLAN, (node, "planner"), "plan", considered[0].sim.now, None,
            size, mode._value_,
            tuple([n.qualified_name for n in considered]),
            tuple(offsets),
            tuple(sorted({n.qualified_name for n in plan.nics})),
            tuple(plan.sizes),
            iterations, plan.predicted_completion,
            "hit" if cached else "miss",
        ))

    def on_split(self, node, msg, plan, to_us, now) -> None:
        self.instant(
            node, "strategy", "split", now, cat="decision",
            args={
                "msg": msg.msg_id,
                "size": msg.size,
                "rails": [n.qualified_name for n in plan.nics],
                "chunk_sizes": list(plan.sizes),
                "iterations": plan.iterations,
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
        where = self._nics.get(nic)
        if where is None:
            where = self._nics[nic] = (nic.machine.name, f"nic:{nic.name}")
        self._push((
            _TX, where, self._kind_names(transfer.kind._value_)[0],
            start, now - start,
            transfer.transfer_id, transfer.msg_id, transfer.size,
            transfer.aborted,
        ))

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
                "kind": transfer.kind._value_,
                "rule": rule.label,
            },
        )

    def on_link(self, switch, src, dst, transfer, start, drain, stall) -> None:
        """Output-port drain as an ``X`` span in a per-link lane of a
        ``fabric:{switch}`` pseudo-node: port draining serializes, so
        Perfetto shows incast as back-to-back blocks."""
        where = self._links.get((switch, dst))
        if where is None:
            where = self._links[(switch, dst)] = (
                f"fabric:{switch.name}", f"link:{dst.machine.name}"
            )
        self._push((
            _LINK, where, self._kind_names(transfer.kind._value_)[1],
            start, drain,
            transfer.transfer_id, transfer.msg_id, transfer.size,
            src.machine.name, stall,
        ))

    def on_spine(self, switch, src, transfer, spine, start, drain, stall) -> None:
        where = self._spines.get((switch, spine))
        if where is None:
            where = self._spines[(switch, spine)] = (
                f"fabric:{switch.name}", f"spine:{spine}"
            )
        self._push((
            _SPINE, where, self._kind_names(transfer.kind._value_)[1],
            start, drain,
            transfer.transfer_id, transfer.msg_id, transfer.size,
            src.machine.name, transfer.dst_node, stall,
        ))

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

    def on_resample(self, nic) -> None:
        self._calibration_instant(
            nic, "resample",
            {"rail": nic.qualified_name, "technology": nic.profile.name},
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
