"""Metrics registry: counters, gauges, virtual-time histograms.

Replaces the ad-hoc per-object counter attributes as the *queryable*
metrics surface (the attributes stay for backwards compatibility; the
registry is the cluster-wide, uniformly-named view).

The registry is a subscriber of the cluster's hook stream
(:mod:`repro.obs.hooks`): its ``on_*`` handlers below are the only place
that knows the metric names.  With observability off it is simply not
subscribed.

Determinism contract: instrument names are plain strings, snapshots are
sorted by name, and histogram bucket boundaries are **fixed at creation**
— never derived from the data — so two identical runs produce
byte-identical snapshots.  Values are simulated quantities (µs, bytes,
event counts); wall-clock time never enters the registry.

The handlers that fire per message, plan, transfer or packet format
their metric names once per key (node; NIC; switch and output port;
switch and spine) and keep the instruments; the fault, retry and
calibration handlers, a handful of events per run, look them up by name.
``on_send``, ``on_complete``, ``on_plan``, ``on_nic_send``, ``on_link``
and ``on_spine``, the handlers a fat-tree run fires per message,
transfer or packet, add to ``Counter.value`` directly: their amounts
(1, sizes, drain and stall times) are non-negative by construction, so
the check in :meth:`Counter.inc`, which every other caller keeps,
cannot fire there.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.util.errors import ConfigurationError

#: fixed log-spaced boundaries (µs) for duration histograms — chosen to
#: straddle the paper's scales: control packets (~µs), eager sends
#: (tens of µs), multi-MiB rendezvous (ms)
DEFAULT_TIME_BUCKETS_US: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1_000.0, 2_000.0, 5_000.0, 10_000.0, 20_000.0, 50_000.0, 100_000.0,
)

#: fixed boundaries for small-cardinality histograms (queue depths,
#: rails per plan, retries per message)
DEFAULT_DEPTH_BUCKETS: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: fixed power-of-four boundaries (bytes) for size histograms — control
#: packets (~1B) up to multi-MiB rendezvous payloads
DEFAULT_BYTE_BUCKETS: Tuple[float, ...] = (
    64.0, 256.0, 1024.0, 4096.0, 16_384.0, 65_536.0,
    262_144.0, 1_048_576.0, 4_194_304.0, 16_777_216.0,
)

#: fixed boundaries (MB/s) for bandwidth histograms — spans a degraded
#: single rail (~tens of MB/s) to a healthy striped multirail (GB/s)
DEFAULT_BANDWIDTH_BUCKETS_MBPS: Tuple[float, ...] = (
    10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1_000.0, 2_500.0, 5_000.0, 10_000.0,
)


def bucket_preset_for(name: str) -> Tuple[float, ...]:
    """Default bucket edges for a metric, picked by its name's family.

    The suffix conventions are the registry-wide naming contract:
    ``*_us`` is a duration, ``*_bytes`` a size, ``*_mbps`` a bandwidth,
    ``*_depth`` a queue depth.  Everything else falls back to the time
    buckets (the pre-fabric behaviour), so existing histograms keep
    their exact boundaries.
    """
    if name.endswith("_bytes") or name.endswith(".bytes"):
        return DEFAULT_BYTE_BUCKETS
    if name.endswith("_mbps") or name.endswith(".mbps"):
        return DEFAULT_BANDWIDTH_BUCKETS_MBPS
    if name.endswith("_depth") or name.endswith(".depth"):
        return DEFAULT_DEPTH_BUCKETS
    return DEFAULT_TIME_BUCKETS_US


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ConfigurationError(f"counter {self.name} decremented by {amount}")
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A value that can move both ways (sampled state)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Fixed-boundary histogram over a simulated quantity.

    ``bounds`` are the inclusive upper edges of the first ``len(bounds)``
    buckets; everything above the last edge lands in the overflow bucket.
    Boundaries are frozen at construction for snapshot determinism.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_TIME_BUCKETS_US) -> None:
        self.name = name
        self.bounds: Tuple[float, ...] = _edges(name, bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        # The first edge >= value; NaN is above no edge, so it overflows.
        bounds = self.bounds
        idx = bisect_left(bounds, value) if value == value else len(bounds)
        self.counts[idx] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def to_dict(self) -> Dict[str, object]:
        buckets = dict(zip(_bucket_labels(self.bounds), self.counts))
        buckets["inf"] = self.counts[-1]
        return {
            "buckets": buckets,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count}>"


#: bounds -> their bucket labels
_BUCKET_LABELS: Dict[Tuple[float, ...], Tuple[str, ...]] = {}


def _bucket_labels(bounds: Tuple[float, ...]) -> Tuple[str, ...]:
    labels = _BUCKET_LABELS.get(bounds)
    if labels is None:
        labels = tuple(f"le_{b:g}" for b in bounds)
        if 0.0 not in bounds:  # 0.0 == -0.0, but "le_0" != "le_-0"
            _BUCKET_LABELS[bounds] = labels
    return labels


#: bounds tuple -> its checked float edges (no zero edge: see
#: _bucket_labels)
_EDGES: Dict[Tuple[float, ...], Tuple[float, ...]] = {}


def _edges(name: str, bounds: Sequence[float]) -> Tuple[float, ...]:
    """``bounds`` checked and converted to floats, once per tuple."""
    hashable = type(bounds) is tuple
    edges = _EDGES.get(bounds) if hashable else None
    if edges is None:
        # NaN edges are refused: observe() bisects, which needs an order
        if (
            not bounds
            or list(bounds) != sorted(bounds)
            or any(map(math.isnan, bounds))
        ):
            raise ConfigurationError(
                f"histogram {name} needs sorted, non-empty bounds: {bounds!r}"
            )
        edges = tuple(float(b) for b in bounds)
        # 0 == 0.0 == -0.0, but each converts to its own edge and label
        if hashable and 0.0 not in edges:
            _EDGES[bounds] = edges
    return edges


class MetricsRegistry:
    """Get-or-create home for every instrument, keyed by name."""

    __slots__ = (
        "_counters", "_gauges", "_histograms",
        "_sent", "_completed", "_latency", "_activations", "_plans",
        "_plan_cache", "_splits", "_aggregations", "_nic_sends", "_wires",
        "_links", "_link_stalls", "_spines", "_spine_stalls",
    )

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        # the hot handlers' instruments, by key (see the module docstring)
        self._sent: Dict[str, Tuple[Counter, Counter]] = {}
        self._completed: Dict[str, Counter] = {}
        self._latency: Dict[str, Histogram] = {}
        self._activations: Dict[str, Tuple[Counter, Histogram]] = {}
        self._plans: Dict[str, Tuple[Counter, Histogram]] = {}
        self._plan_cache: Dict[Tuple[str, bool], Counter] = {}
        self._splits: Dict[str, Counter] = {}
        self._aggregations: Dict[str, Counter] = {}
        self._nic_sends: Dict[Any, Tuple[Counter, Counter]] = {}
        self._wires: Dict[Tuple, Tuple[Counter, Counter, Counter]] = {}
        self._links: Dict[Tuple, Tuple[Counter, Counter, Counter, Histogram]] = {}
        self._link_stalls: Dict[Tuple, Tuple[Counter, Counter, Histogram]] = {}
        self._spines: Dict[Tuple, Tuple[Counter, Counter, Counter]] = {}
        self._spine_stalls: Dict[Tuple, Tuple[Counter, Counter, Histogram]] = {}

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry {len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, {len(self._histograms)} histograms>"
        )

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            if bounds is None:
                bounds = bucket_preset_for(name)
            h = self._histograms[name] = Histogram(name, bounds)
        return h

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Deterministic (name-sorted) dump of every instrument."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].to_dict()
                for name in sorted(self._histograms)
            },
        }

    # ------------------------------------------------------------------ #
    # hook subscriber (repro.obs.hooks): engine facts -> instruments
    # ------------------------------------------------------------------ #

    def _stall_trio(self, prefix: str) -> Tuple[Counter, Counter, Histogram]:
        return (
            self.counter(f"{prefix}.stalled_packets"),
            self.counter(f"{prefix}.stall_total_us"),
            self.histogram(f"{prefix}.stall_us"),
        )

    def on_send(self, msg) -> None:
        src = msg.src
        sent = self._sent.get(src)
        if sent is None:
            sent = self._sent[src] = (
                self.counter(f"engine.{src}.messages_sent"),
                self.counter(f"engine.{src}.bytes_sent"),
            )
        sent[0].value += 1
        sent[1].value += msg.size

    def on_duplicate(self, msg, transfer, now) -> None:
        self.counter(f"engine.{msg.dest}.duplicates_suppressed").inc()

    def on_complete(self, msg, now) -> None:
        # Completions land on the *sender's* lane so the series lines up
        # with its messages_sent (the event fires receiver-side).
        src = msg.src
        completed = self._completed.get(src)
        if completed is None:
            completed = self._completed[src] = self.counter(
                f"engine.{src}.messages_completed"
            )
        completed.value += 1
        if msg.t_post is not None:
            latency = self._latency.get(src)
            if latency is None:
                latency = self._latency[src] = self.histogram(
                    f"engine.{src}.message_latency_us"
                )
            latency.observe(now - msg.t_post)

    def on_degraded(self, msg, now, node) -> None:
        self.counter(f"engine.{node}.messages_degraded").inc()

    def on_retry(self, msg, old, new, max_retries, now, nic, reason) -> None:
        node = nic.machine.name
        self.counter(f"engine.{node}.retries_issued").inc()
        self.counter(f"engine.{node}.retries_{reason}").inc()

    def on_activation(self, node, outlist, now) -> None:
        activation = self._activations.get(node)
        if activation is None:
            activation = self._activations[node] = (
                self.counter(f"scheduler.{node}.activations"),
                self.histogram(
                    f"scheduler.{node}.outlist_depth", bounds=DEFAULT_DEPTH_BUCKETS
                ),
            )
        activation[0].inc()
        activation[1].observe(len(outlist))

    def on_plan(
        self, node, considered, offsets, size, mode, plan, iterations, cached
    ) -> None:
        plans = self._plans.get(node)
        if plans is None:
            plans = self._plans[node] = (
                self.counter(f"predictor.{node}.plans"),
                self.histogram(
                    f"predictor.{node}.rails_per_plan", bounds=DEFAULT_DEPTH_BUCKETS
                ),
            )
        plans[0].value += 1
        key = (node, cached)
        lookup = self._plan_cache.get(key)
        if lookup is None:
            lookup = self._plan_cache[key] = self.counter(
                f"predictor.{node}.plan_cache_{'hits' if cached else 'misses'}"
            )
        lookup.value += 1
        plans[1].observe(len(plan.nics))

    def on_split(self, node, msg, plan, to_us, now) -> None:
        splits = self._splits.get(node)
        if splits is None:
            splits = self._splits[node] = self.counter(f"strategy.{node}.splits")
        splits.inc()

    def on_aggregate(self, node, msgs, nic, now) -> None:
        aggregations = self._aggregations.get(node)
        if aggregations is None:
            aggregations = self._aggregations[node] = self.counter(
                f"strategy.{node}.aggregations"
            )
        aggregations.inc()

    def on_nic_send(self, nic, transfer) -> None:
        sends = self._nic_sends.get(nic)
        if sends is None:
            q = nic.qualified_name
            sends = self._nic_sends[nic] = (
                self.counter(f"nic.{q}.transfers"),
                self.counter(f"nic.{q}.bytes"),
            )
        sends[0].value += 1
        sends[1].value += transfer.size

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
        # The point-to-point path shares the switched fabrics' metric
        # family.  A wire has no port contention by construction, so only
        # the occupancy side exists (serialization lives in the NIC).
        key = (src, peer)
        wire = self._wires.get(key)
        if wire is None:
            wire = self._wires[key] = self._occupancy(
                f"fabric.wire.{src.qualified_name}->{peer.machine.name}"
            )
        packets, queued, busy = wire
        packets.inc()
        queued.inc(transfer.size)
        busy.inc(src.profile.wire_latency + src.extra_latency)

    def _occupancy(self, prefix: str) -> Tuple[Counter, Counter, Counter]:
        return (
            self.counter(f"{prefix}.packets"),
            self.counter(f"{prefix}.queued_bytes"),
            self.counter(f"{prefix}.busy_us"),
        )

    def on_link(self, switch, src, dst, transfer, start, drain, stall) -> None:
        key = (switch, dst)
        link = self._links.get(key)
        if link is None:
            prefix = f"fabric.{switch.name}.link.{dst.machine.name}"
            link = self._links[key] = self._occupancy(prefix) + (
                self.histogram(f"{prefix}.packet_bytes"),
            )
        packets, queued, busy, sizes = link
        packets.value += 1
        queued.value += transfer.size
        busy.value += drain
        sizes.observe(transfer.size)
        if stall > 0.0:
            trio = self._link_stalls.get(key)
            if trio is None:
                trio = self._link_stalls[key] = self._stall_trio(
                    f"fabric.{switch.name}.link.{dst.machine.name}"
                )
            stalled, stall_total, stalls = trio
            stalled.value += 1
            stall_total.value += stall
            stalls.observe(stall)

    def on_spine(self, switch, src, transfer, spine, start, drain, stall) -> None:
        key = (switch, spine)
        occupancy = self._spines.get(key)
        if occupancy is None:
            occupancy = self._spines[key] = self._occupancy(
                f"fabric.{switch.name}.spine{spine}"
            )
        packets, queued, busy = occupancy
        packets.value += 1
        queued.value += transfer.size
        busy.value += drain
        if stall > 0.0:
            trio = self._spine_stalls.get(key)
            if trio is None:
                trio = self._spine_stalls[key] = self._stall_trio(
                    f"fabric.{switch.name}.spine{spine}"
                )
            stalled, stall_total, stalls = trio
            stalled.value += 1
            stall_total.value += stall
            stalls.observe(stall)

    def on_fabric_drop(self, switch) -> None:
        self.counter(f"fabric.{switch.name}.dropped_packets").inc()

    def on_offload(self, machine, core, issuing_core, preempt, pending, now) -> None:
        # TO accounting: 3 µs to signal an idle core, 6 µs when the
        # pickup preempts a computing thread (§III-D).
        node, topo = machine.name, machine.topology
        self.counter(f"pioman.{node}.offloads").inc()
        if preempt:
            self.counter(f"pioman.{node}.offload_preempts").inc()
        self.counter(f"pioman.{node}.offload_cost_us").inc(
            topo.preempt_cost_us if preempt else topo.signal_cost_us
        )

    def on_rx_interrupt(self, nic, transfer, core, cost) -> None:
        node = nic.machine.name
        self.counter(f"pioman.{node}.interrupts").inc()
        self.counter(f"pioman.{node}.offload_cost_us").inc(
            nic.machine.topology.preempt_cost_us
        )

    def on_rx_spill(self, node) -> None:
        self.counter(f"pioman.{node}.rx_spills").inc()

    def on_fault(self, rule_id, action, now, device, target) -> None:
        if action.action.startswith("silent_"):
            return  # silent faults stay invisible to obs (see Tracer)
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
