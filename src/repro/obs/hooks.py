"""The hook stream: one event per engine decision, fanned out to subscribers.

Every instrumented component of a cluster (engine, scheduler, strategies,
predictor, cores, NICs, wires, switches, PIOMan, fault injector,
collectives, calibration controller) holds the cluster's one
:class:`Hooks` handle and emits each fact exactly once::

    hooks = self.hooks
    if hooks.on_retry:
        hooks.on_retry(msg, old, new, self.max_retries, now, nic, reason)

Each event attribute is ``None`` until a subscriber handles that event,
so a cluster with every surface off pays one attribute read per hook
site, and a cluster whose subscribers ignore an event pays no call for
it either (``hooks.on`` tells whether anything subscribed).  Subscribers
are plain objects with ``on_<event>`` methods for the events they care
about: the invariant monitor, the five obs surfaces (metrics, tracer,
prediction accuracy, flight recorder, collective profiler), the
calibration drift feed, and the occupancy timeline
(:meth:`repro.obs.timeline.Timeline.record`), which a caller attaches
itself.  Only the subscribers know metric names, trace lanes and
flight-record kinds; the emitters only state what happened.

Subscribers see an event in subscription order (the cluster builder
subscribes the invariant monitor, then the obs surfaces, then the drift
feed).  A subscriber may list events in ``hook_late``: it then sees
those events after every other subscriber.  Subscribers never schedule
simulator events, so subscribing changes no simulated timestamp.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.util.errors import ConfigurationError

#: every event of the stream -> its arguments.  ``now`` is the simulated
#: instant; events without it happen at their component's ``sim.now``.
EVENTS: Dict[str, str] = {
    # engine (repro.core.engine)
    "on_send": "msg",
    "on_delivery": "msg, transfer, now",
    "on_duplicate": "msg, transfer, now",
    "on_complete": "msg, now",
    "on_degraded": "msg, now, node",
    "on_retry": "msg, old, new, max_retries, now, nic, reason",
    "on_arrival": "transfer, nic",
    # scheduler, strategies, predictor
    "on_activation": "node, outlist, now",
    "on_plan": "node, considered, offsets, size, mode, plan, iterations, cached",
    "on_split": "node, msg, plan, to_us, now",
    "on_aggregate": "node, msgs, nic, now",
    # core or NIC occupancy that carries no transfer (a core's work item,
    # a NIC's injected background traffic)
    "on_busy": "device, start, now, label",
    # NIC, wire, switch
    "on_tx": "nic, transfer, start, now",
    "on_nic_send": "nic, transfer",
    "on_nic_down": "nic, aborted",
    "on_nic_up": "nic, since",
    "on_nic_degrade": "nic, bw_factor, extra_latency",
    "on_nic_restore": "nic, since",
    "on_drop": "nic, transfer, rule",
    "on_abort": "nic, transfer",
    "on_wire": "src, peer, transfer",
    "on_link": "switch, src, dst, transfer, start, drain, stall",
    "on_spine": "switch, src, transfer, spine, start, drain, stall",
    "on_fabric_drop": "switch",
    "on_route": "switch, spine, alive, now",
    # PIOMan
    "on_offload": "machine, core, issuing_core, preempt, pending, now",
    "on_rx_interrupt": "nic, transfer, core, cost",
    "on_rx_spill": "node",
    "on_rx_done": "transfer, nic, now",
    # fault injector
    "on_fault": "rule_id, action, now, device, target",
    # collectives
    "on_collective_op": (
        "rank, node, collective, algorithm, nbytes, seq, t_start, t_end, "
        "msgs, hop_predict"
    ),
    "on_replan": (
        "rank, seq, planned, accounted, remaining, now, node, replan, hops"
    ),
    "on_collective_complete": "rank, seq, planned, accounted, now",
    # calibration controller
    "on_drift": "nic, band, ewma",
    "on_resample": "nic, blend",
    "on_fallback": "nic, node, before, after, confidence",
    "on_clamp": "plan",
    # cluster drain audit
    "on_violation": "violation, now",
    "on_drain_stuck": "drained, now",
}


class Hooks:
    """One cluster's event stream (see the module docstring)."""

    def __init__(self) -> None:
        #: any subscriber at all
        self.on = False
        #: stamp predicted times on outgoing data chunks; set while an
        #: obs bundle is enabled or calibration is armed (accuracy
        #: telemetry and the drift feed read the stamps)
        self.stamps = False
        self._subscribers: List[object] = []
        #: event -> (handlers in subscription order, late handlers)
        self._handlers: Dict[str, Tuple[List[Callable], List[Callable]]] = {}

    def __repr__(self) -> str:
        names = [type(s).__name__ for s in self._subscribers]
        return f"<Hooks {names}>"

    @property
    def subscribers(self) -> Tuple[object, ...]:
        return tuple(self._subscribers)

    def subscribe(self, subscriber: object) -> None:
        """Add ``subscriber``; its ``on_<event>`` methods see every later
        emission of those events."""
        handled = [n for n in dir(type(subscriber)) if n.startswith("on_")]
        unknown = sorted(n for n in handled if n not in EVENTS)
        if unknown:
            raise ConfigurationError(
                f"{type(subscriber).__name__} handles unknown hook events "
                f"{unknown}; known: {sorted(EVENTS)}"
            )
        self._subscribers.append(subscriber)
        self.on = True
        late = getattr(subscriber, "hook_late", ())
        for name in handled:
            early_handlers, late_handlers = self._handlers.setdefault(name, ([], []))
            handler = getattr(subscriber, name)
            (late_handlers if name in late else early_handlers).append(handler)
            setattr(self, name, _fan_out(early_handlers + late_handlers))


def _fan_out(handlers: List[Callable]) -> Callable:
    if len(handlers) == 1:
        return handlers[0]
    handlers = tuple(handlers)

    def fan_out(*args) -> None:
        for handler in handlers:
            handler(*args)

    return fan_out


for _name in EVENTS:
    setattr(Hooks, _name, None)  # an event nobody subscribed to
del _name

__all__ = ["EVENTS", "Hooks"]
