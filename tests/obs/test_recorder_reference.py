"""The obs recorders against the dict-building code they replaced.

Each scenario of ``test_hook_golden.py`` runs once with a recording
subscriber subscribed first to every cluster's hook stream.  The
captured stream is then replayed into the current ``Tracer`` and
``MetricsRegistry`` and into the reference copies below: the
dict-per-event tracer and the name-per-event metric handlers as they
were before the recorders kept flat records, with the linear-scan
histogram.  The Chrome trace, the event dicts, the drop count and the
metrics snapshot must be equal, unbounded and, for four scenarios, at
every trace limit up to the event count; the collective profiler's
spans, flushed into both, at limits sampled across them.  A property
test checks the bisecting ``Histogram.observe`` against the scan for
every value, edges, ±inf and NaN included.  Two more checks hold the
current recorders alone: no function of :mod:`enum` runs while they
record, flush and export a fat-tree stream, and ``Tracer.events``
agrees with the Chrome export event for event.
"""

import cProfile
import enum
import math
import pstats
from typing import Any, Dict, List, Optional, Tuple

import pytest
from hypothesis import given, strategies as st

from repro.obs import (
    DEFAULT_DEPTH_BUCKETS,
    CollectiveProfiler,
    Histogram,
    MetricsRegistry,
    Tracer,
    bucket_preset_for,
    chrome_trace,
)
from repro.api import ClusterBuilder
from repro.obs.hooks import EVENTS, Hooks
from repro.obs.tracer import DEFAULT_TRACE_LIMIT
from repro.util.errors import ConfigurationError

from tests.obs import test_hook_golden as golden


# ---------------------------------------------------------------------- #
# the reference: dict-building tracer and export
# ---------------------------------------------------------------------- #


class ReferenceTracer:
    """The tracer that appended an event dict (with its args dict) per
    event."""

    def __init__(self, limit: Optional[int] = DEFAULT_TRACE_LIMIT) -> None:
        self.events: List[Dict[str, Any]] = []
        self.limit = limit
        self.dropped = 0
        self._seq = 0
        self._open: Optional[Dict[Tuple, int]] = None

    def _push(self, event: Dict[str, Any]) -> None:
        if self.limit is not None and len(self.events) >= self.limit:
            if not self._closes_kept_span(event):
                self.dropped += 1
                return
        event["seq"] = self._seq
        self._seq += 1
        self.events.append(event)

    def _closes_kept_span(self, event: Dict[str, Any]) -> bool:
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
        self._push(
            {
                "ph": "C", "name": name, "cat": cat,
                "pid": node, "tid": "counters", "ts": ts,
                "args": dict(values),
            }
        )

    def collective(
        self, node, collective, seq, algorithm, nbytes, rank, t_start, t_end,
        msgs,
    ) -> None:
        """One op's spans as ``CollectiveProfiler.flush_to_tracer`` emitted
        them through the primitives (its loop body, verbatim)."""
        tracer = self
        op = {
            "node": node, "collective": collective, "seq": seq,
            "algorithm": algorithm, "nbytes": nbytes, "rank": rank,
            "t_start": t_start, "t_end": t_end, "msgs": msgs,
        }
        name = f"{op['collective']}[{op['seq']}]"
        tracer.complete(
            op["node"], "collectives", name,
            op["t_start"], op["t_end"] - op["t_start"],
            cat="collective",
            args={
                "algorithm": op["algorithm"],
                "nbytes": op["nbytes"],
                "rank": op["rank"],
                "hops": len(op["msgs"]),
            },
        )
        for m in op["msgs"]:
            hop_args = {
                "collective": op["collective"],
                "dst": m.dest,
                "size": m.size,
                "tag": m.tag,
            }
            tracer.async_begin(
                op["node"], "coll-hops", f"hop{m.msg_id}", m.msg_id,
                m.t_post, cat="collective-hop", args=hop_args,
            )
            tracer.async_end(
                op["node"], "coll-hops", f"hop{m.msg_id}", m.msg_id,
                m.t_complete, cat="collective-hop",
            )

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
        self.async_end(
            msg.src, "messages", f"msg{msg.msg_id}", msg.msg_id,
            now, cat="message", args={"degraded": True},
        )

    def on_retry(self, msg, old, new, max_retries, now, nic, reason) -> None:
        self.instant(
            nic.node, "faults", "retry", now, cat="fault",
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
        if start is None:
            return
        self.complete(
            nic.node, f"nic:{nic.name}",
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
            nic.node, f"nic:{nic.name}", name, nic.sim.now,
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
        self.complete(
            f"fabric:{switch.name}", f"link:{dst.node}",
            f"fwd:{transfer.kind.value}", start, drain, cat="fabric",
            args={
                "transfer": transfer.transfer_id,
                "msg": transfer.msg_id,
                "size": transfer.size,
                "src": src.node,
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
                "src": src.node,
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
            nic.node, "pioman", "rx-interrupt", nic.sim.now,
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
            return
        params = {"rule_id": rule_id, "params": dict(action.params)}
        node = getattr(device, "node", None)
        if node is not None:
            lane, args = f"nic:{device.name}", {"nic": target}
        else:
            node, lane, args = device.name, "fabric", {"target": target}
        args.update(params)
        self.instant(
            node, lane, f"fault:{action.action}", now, cat="fault", args=args
        )

    def _calibration_instant(self, nic, name: str, args: Dict[str, Any]) -> None:
        self.instant(
            nic.node, "calibration", name, nic.sim.now,
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


def reference_chrome_trace(tracer: ReferenceTracer) -> Dict[str, Any]:
    nodes = sorted({ev["pid"] for ev in tracer.events})
    pid_of = {node: i + 1 for i, node in enumerate(nodes)}
    lanes = sorted({(ev["pid"], ev["tid"]) for ev in tracer.events})
    tid_of: Dict[tuple, int] = {}
    per_node_count: Dict[str, int] = {}
    for node, lane in lanes:
        per_node_count[node] = per_node_count.get(node, 0) + 1
        tid_of[(node, lane)] = per_node_count[node]
    events: List[Dict[str, Any]] = []
    for node in nodes:
        events.append(
            {
                "ph": "M", "name": "process_name", "cat": "__metadata",
                "pid": pid_of[node], "tid": 0, "ts": 0,
                "args": {"name": node},
            }
        )
    for node, lane in lanes:
        events.append(
            {
                "ph": "M", "name": "thread_name", "cat": "__metadata",
                "pid": pid_of[node], "tid": tid_of[(node, lane)], "ts": 0,
                "args": {"name": lane},
            }
        )
    for ev in sorted(tracer.events, key=lambda e: (e["ts"], e["seq"])):
        out: Dict[str, Any] = {
            "ph": ev["ph"], "name": ev["name"], "cat": ev["cat"],
            "pid": pid_of[ev["pid"]], "tid": tid_of[(ev["pid"], ev["tid"])],
            "ts": ev["ts"],
        }
        for key in ("dur", "id", "s", "args"):
            if key in ev:
                out[key] = ev[key]
        events.append(out)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "virtual-us",
            "dropped_events": tracer.dropped,
        },
    }


# ---------------------------------------------------------------------- #
# the reference: scan histogram and name-per-event metric handlers
# ---------------------------------------------------------------------- #


def scan_bucket(bounds, value) -> int:
    """The bucket index the linear scan picked."""
    idx = len(bounds)
    for i, bound in enumerate(bounds):
        if value <= bound:
            idx = i
            break
    return idx


class ScanHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        self.counts[scan_bucket(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def to_dict(self) -> Dict[str, object]:
        buckets = {f"le_{b:g}": c for b, c in zip(self.bounds, self.counts)}
        buckets["inf"] = self.counts[-1]
        return {
            "buckets": buckets,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }


class ReferenceMetrics(MetricsRegistry):
    """A registry whose handlers format every metric name per event and
    whose histograms scan their edges."""

    def histogram(self, name, bounds=None):
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = ScanHistogram(
                name, bucket_preset_for(name) if bounds is None else bounds
            )
        return h

    def on_send(self, msg) -> None:
        self.counter(f"engine.{msg.src}.messages_sent").inc()
        self.counter(f"engine.{msg.src}.bytes_sent").inc(msg.size)

    def on_duplicate(self, msg, transfer, now) -> None:
        self.counter(f"engine.{msg.dest}.duplicates_suppressed").inc()

    def on_complete(self, msg, now) -> None:
        self.counter(f"engine.{msg.src}.messages_completed").inc()
        if msg.t_post is not None:
            self.histogram(f"engine.{msg.src}.message_latency_us").observe(
                now - msg.t_post
            )

    def on_degraded(self, msg, now, node) -> None:
        self.counter(f"engine.{node}.messages_degraded").inc()

    def on_retry(self, msg, old, new, max_retries, now, nic, reason) -> None:
        node = nic.node
        self.counter(f"engine.{node}.retries_issued").inc()
        self.counter(f"engine.{node}.retries_{reason}").inc()

    def on_activation(self, node, outlist, now) -> None:
        self.counter(f"scheduler.{node}.activations").inc()
        self.histogram(
            f"scheduler.{node}.outlist_depth", bounds=DEFAULT_DEPTH_BUCKETS
        ).observe(len(outlist))

    def on_plan(
        self, node, considered, offsets, size, mode, plan, iterations, cached
    ) -> None:
        self.counter(f"predictor.{node}.plans").inc()
        self.counter(
            f"predictor.{node}.plan_cache_{'hits' if cached else 'misses'}"
        ).inc()
        self.histogram(
            f"predictor.{node}.rails_per_plan", bounds=DEFAULT_DEPTH_BUCKETS
        ).observe(len(plan.nics))

    def on_split(self, node, msg, plan, to_us, now) -> None:
        self.counter(f"strategy.{node}.splits").inc()

    def on_aggregate(self, node, msgs, nic, now) -> None:
        self.counter(f"strategy.{node}.aggregations").inc()

    def on_nic_send(self, nic, transfer) -> None:
        q = nic.qualified_name
        self.counter(f"nic.{q}.transfers").inc()
        self.counter(f"nic.{q}.bytes").inc(transfer.size)

    def on_nic_down(self, nic, aborted) -> None:
        self.counter(f"nic.{nic.qualified_name}.down").inc()
        self.counter(f"nic.{nic.qualified_name}.aborted").inc(len(aborted))

    def on_nic_up(self, nic, since) -> None:
        self.counter(f"nic.{nic.qualified_name}.up").inc()

    def on_nic_degrade(self, nic, bw_factor, extra_latency) -> None:
        self.counter(f"nic.{nic.qualified_name}.degrade").inc()

    def on_nic_restore(self, nic, since) -> None:
        self.counter(f"nic.{nic.qualified_name}.restore").inc()

    def on_drop(self, nic, transfer, rule) -> None:
        self.counter(f"nic.{nic.qualified_name}.dropped").inc()

    def on_abort(self, nic, transfer) -> None:
        self.counter(f"nic.{nic.qualified_name}.aborted").inc()

    def on_wire(self, src, peer, transfer) -> None:
        prefix = f"fabric.wire.{src.qualified_name}->{peer.node}"
        self.counter(f"{prefix}.packets").inc()
        self.counter(f"{prefix}.queued_bytes").inc(transfer.size)
        self.counter(f"{prefix}.busy_us").inc(
            src.profile.wire_latency + src.extra_latency
        )

    def on_link(self, switch, src, dst, transfer, start, drain, stall) -> None:
        prefix = f"fabric.{switch.name}.link.{dst.node}"
        self.counter(f"{prefix}.packets").inc()
        self.counter(f"{prefix}.queued_bytes").inc(transfer.size)
        self.counter(f"{prefix}.busy_us").inc(drain)
        self.histogram(f"{prefix}.packet_bytes").observe(transfer.size)
        if stall > 0.0:
            self.counter(f"{prefix}.stalled_packets").inc()
            self.counter(f"{prefix}.stall_total_us").inc(stall)
            self.histogram(f"{prefix}.stall_us").observe(stall)

    def on_spine(self, switch, src, transfer, spine, start, drain, stall) -> None:
        prefix = f"fabric.{switch.name}.spine{spine}"
        self.counter(f"{prefix}.packets").inc()
        self.counter(f"{prefix}.queued_bytes").inc(transfer.size)
        self.counter(f"{prefix}.busy_us").inc(drain)
        if stall > 0.0:
            self.counter(f"{prefix}.stalled_packets").inc()
            self.counter(f"{prefix}.stall_total_us").inc(stall)
            self.histogram(f"{prefix}.stall_us").observe(stall)

    def on_fabric_drop(self, switch) -> None:
        self.counter(f"fabric.{switch.name}.dropped_packets").inc()

    def on_offload(self, machine, core, issuing_core, preempt, pending, now) -> None:
        node, topo = machine.name, machine.topology
        self.counter(f"pioman.{node}.offloads").inc()
        if preempt:
            self.counter(f"pioman.{node}.offload_preempts").inc()
        self.counter(f"pioman.{node}.offload_cost_us").inc(
            topo.preempt_cost_us if preempt else topo.signal_cost_us
        )

    def on_rx_interrupt(self, nic, transfer, core, cost) -> None:
        node = nic.node
        self.counter(f"pioman.{node}.interrupts").inc()
        self.counter(f"pioman.{node}.offload_cost_us").inc(
            nic.machine.topology.preempt_cost_us
        )

    def on_rx_spill(self, node) -> None:
        self.counter(f"pioman.{node}.rx_spills").inc()

    def on_fault(self, rule_id, action, now, device, target) -> None:
        if action.action.startswith("silent_"):
            return
        self.counter("faults.fired").inc()
        self.counter(f"faults.{action.action}").inc()

    def on_replan(
        self, rank, seq, planned, accounted, remaining, now, node, replan, hops
    ) -> None:
        self.counter("collective.replans").inc()

    def on_drift(self, nic, band, ewma) -> None:
        self.counter("calibration.drift_detected").inc()

    def on_resample(self, nic) -> None:
        self.counter("calibration.resamples").inc()

    def on_fallback(self, nic, node, before, after, confidence) -> None:
        self.counter("calibration.fallback_transitions").inc()

    def on_clamp(self, plan) -> None:
        self.counter("calibration.clamped_splits").inc()


# ---------------------------------------------------------------------- #
# capture and replay
# ---------------------------------------------------------------------- #


class Recorder:
    """Handles every event and keeps ``(event, args)`` in stream order."""

    def __init__(self) -> None:
        self.stream: List[Tuple[str, tuple]] = []


def _recording(event: str):
    def handler(self, *args) -> None:
        self.stream.append((event, args))

    return handler


for _event in EVENTS:
    setattr(Recorder, _event, _recording(_event))
del _event


def capture(scenario: str, worlds: List[Any]) -> List[List[Tuple[str, tuple]]]:
    """Run one hook-golden scenario with a recorder subscribed first to
    every cluster's hooks; returns each non-empty stream.  The clusters
    it builds go to ``worlds``: a stream's NICs hold their machines
    weakly, so a replay needs the world the stream came from."""
    recorders: List[Recorder] = []
    original, build = Hooks.__init__, ClusterBuilder.build

    def init(self) -> None:
        original(self)
        recorder = Recorder()
        recorders.append(recorder)
        self.subscribe(recorder)

    def building(builder):
        cluster = build(builder)
        worlds.append(cluster)
        return cluster

    Hooks.__init__ = init
    ClusterBuilder.build = building
    try:
        golden.run(scenario)
    finally:
        Hooks.__init__ = original
        ClusterBuilder.build = build
    return [r.stream for r in recorders if r.stream]


def replay(stream, *subscribers) -> None:
    for event, args in stream:
        for subscriber in subscribers:
            handler = getattr(subscriber, event, None)
            if handler is not None:
                handler(*args)


def assert_same_trace(new: Tracer, ref: ReferenceTracer) -> None:
    assert new.dropped == ref.dropped
    assert len(new) == len(ref.events)
    assert new.events == ref.events
    assert chrome_trace(new) == reference_chrome_trace(ref)


@pytest.fixture(scope="module")
def streams():
    worlds: List[Any] = []
    yield {scenario: capture(scenario, worlds) for scenario in golden.SCENARIOS}


@pytest.mark.parametrize("scenario", sorted(golden.SCENARIOS))
def test_recorders_match_reference(streams, scenario):
    assert streams[scenario]
    for stream in streams[scenario]:
        new, ref = Tracer(limit=None), ReferenceTracer(limit=None)
        metrics, ref_metrics = MetricsRegistry(), ReferenceMetrics()
        coll, ref_coll = CollectiveProfiler(), CollectiveProfiler()
        replay(stream, new, ref, metrics, ref_metrics, coll, ref_coll)
        # the read-out path: collective spans go through the primitives
        coll.flush_to_tracer(new)
        ref_coll.flush_to_tracer(ref)
        assert_same_trace(new, ref)
        assert metrics.snapshot() == ref_metrics.snapshot()


@pytest.mark.parametrize(
    "scenario",
    ["faults_demo", "eager_storm", "cal_silent_degrade", "invariants_only"],
)
def test_every_trace_limit_matches_reference(streams, scenario):
    """Each limit up to one past the scenario's event count (21 to 155
    events); the longer fabric scenarios would take seconds."""
    stream = max(streams[scenario], key=len)
    unbounded = Tracer(limit=None)
    replay(stream, unbounded)
    assert len(unbounded) > 20
    for limit in range(1, len(unbounded) + 2):
        new, ref = Tracer(limit), ReferenceTracer(limit)
        replay(stream, new, ref)
        assert_same_trace(new, ref)
    assert Tracer(limit).limit == limit
    assert Tracer().limit == DEFAULT_TRACE_LIMIT


def test_collective_flush_at_sampled_trace_limits(streams):
    """The fat-tree alltoallv flushed at every seventh limit across its
    120 collective records, and at each edge of them: the op spans and
    hop pairs are dropped past the limit, except the ends of kept hops,
    as the primitives did."""
    stream = max(streams["rails_alltoallv_fat_tree8"], key=len)
    unbounded, coll = Tracer(limit=None), CollectiveProfiler()
    replay(stream, unbounded, coll)
    run = len(unbounded)
    coll.flush_to_tracer(unbounded)
    total = len(unbounded)
    assert total - run > 100
    limits = {run - 1, run, run + 1, total - 1, total, total + 1}
    limits.update(range(run, total, 7))
    for limit in sorted(limits):
        new, ref = Tracer(limit), ReferenceTracer(limit)
        coll, ref_coll = CollectiveProfiler(), CollectiveProfiler()
        replay(stream, new, ref, coll, ref_coll)
        coll.flush_to_tracer(new)
        ref_coll.flush_to_tracer(ref)
        assert_same_trace(new, ref)


def test_recorders_run_no_enum_code(streams):
    """A fat-tree stream (the spine outage: plans, sends, transmits,
    link and spine drains, arrivals) replayed into the tracer and the
    registry, then the collective flush and the export, run no function
    of :mod:`enum`: ``.value`` and hashing a member are Python code
    there, paid per event."""
    stream = max(streams["spine_outage_replan"], key=len)
    coll = CollectiveProfiler()
    replay(stream, coll)
    tracer, metrics = Tracer(limit=None), MetricsRegistry()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        replay(stream, tracer, metrics)
        coll.flush_to_tracer(tracer)
        chrome_trace(tracer)
    finally:
        profiler.disable()
    assert len(tracer) > 3000
    ran = {
        f"{name}:{line}": row[1]
        for (path, line, name), row in pstats.Stats(profiler).stats.items()
        if path == enum.__file__
    }
    assert not ran, ran


#: every key an event dict may have, in the order it has them
_KEY_ORDER = ("ph", "name", "cat", "pid", "tid", "ts", "dur", "s", "id", "args")


@pytest.mark.parametrize("scenario", sorted(golden.SCENARIOS))
def test_events_agree_with_chrome_trace(streams, scenario):
    """``Tracer.events`` and the export hold the same events, key order
    included: sorted by ``(ts, seq)``, ``seq`` dropped, and each node
    and lane mapped to the export's ``pid``/``tid``."""
    for stream in streams[scenario]:
        tracer, coll = Tracer(limit=None), CollectiveProfiler()
        replay(stream, tracer, coll)
        coll.flush_to_tracer(tracer)
        trace = chrome_trace(tracer)["traceEvents"]
        meta = [ev for ev in trace if ev["ph"] == "M"]
        node_of = {
            ev["pid"]: ev["args"]["name"]
            for ev in meta if ev["name"] == "process_name"
        }
        ids = {
            (node_of[ev["pid"]], ev["args"]["name"]): (ev["pid"], ev["tid"])
            for ev in meta if ev["name"] == "thread_name"
        }
        expected = []
        for ev in sorted(tracer.events, key=lambda e: (e["ts"], e["seq"])):
            assert list(ev) == [k for k in _KEY_ORDER if k in ev] + ["seq"]
            del ev["seq"]
            ev["pid"], ev["tid"] = ids[ev["pid"], ev["tid"]]
            expected.append(ev)
        body = trace[len(meta):]
        assert body == expected
        assert [list(ev) for ev in body] == [list(ev) for ev in expected]


def test_primitives_match_reference():
    """The generic recording calls, with list, dict, empty and absent
    args, a counter series and ends past the limit."""
    calls = [
        ("async_begin", ("n0", "l", "a", 1, 0.0), {"args": {"xs": [1, 2]}}),
        ("complete", ("n0", "l", "x", 1.0, 2.0), {"args": {}}),
        ("instant", ("n1", "f", "i", 2.0), {"cat": "c", "args": {"d": {"k": 1}}}),
        ("counter", ("n1", "q", 3.0, {}), {}),
        ("counter", ("n1", "q", 3.0, {"depth": 7}), {}),
        ("async_begin", ("n0", "l", "b", 2, 4.0), {}),
        ("async_end", ("n0", "l", "b", 2, 5.0), {"args": {"ok": True}}),
        ("async_end", ("n0", "l", "a", 1, 5.0), {}),
        ("async_end", ("n0", "l", "a", 1, 6.0), {}),
    ]
    for limit in [None, *range(1, len(calls) + 1)]:
        new, ref = Tracer(limit), ReferenceTracer(limit)
        for method, args, kwargs in calls:
            getattr(new, method)(*args, **kwargs)
            getattr(ref, method)(*args, **kwargs)
        assert_same_trace(new, ref)


# ---------------------------------------------------------------------- #
# the bisecting histogram
# ---------------------------------------------------------------------- #

_edges = st.lists(st.floats(allow_nan=False), min_size=1, max_size=12).map(sorted)
_values = st.one_of(st.floats(), st.integers(-(2**70), 2**70))


@given(bounds=_edges, extra=st.lists(_values, max_size=8))
def test_bisect_matches_the_scan(bounds, extra):
    hist, ref = Histogram("h", bounds), ScanHistogram("h", bounds)
    values = [math.inf, -math.inf, math.nan, *extra]
    for edge in hist.bounds:
        below, above = math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)
        values += [edge, below, above]
    for value in values:
        single = Histogram("h", bounds)
        single.observe(value)
        assert single.counts.index(1) == scan_bucket(single.bounds, value), value
        hist.observe(value)
        ref.observe(value)
    assert hist.counts == ref.counts
    assert hist.to_dict()["buckets"] == ref.to_dict()["buckets"]


def test_nan_edges_are_rejected():
    with pytest.raises(ConfigurationError):
        Histogram("h", (1.0, math.nan))


def test_signed_zero_edges_keep_their_labels():
    """0.0 == -0.0, so a label cache keyed by the bounds tuple must not
    hand one's labels to the other."""
    for bounds in ((0.0, 1.0), (-0.0, 1.0), (0.0, 1.0)):
        labels = list(Histogram("h", bounds).to_dict()["buckets"])
        assert labels == list(ScanHistogram("h", bounds).to_dict()["buckets"])
