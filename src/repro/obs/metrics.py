"""Metrics registry: counters, gauges, virtual-time histograms.

Replaces the ad-hoc per-object counter attributes as the *queryable*
metrics surface (the attributes stay for backwards compatibility; the
registry is the cluster-wide, uniformly-named view).

The registry is a subscriber of the cluster's hook stream
(:mod:`repro.obs.hooks`): its ``on_*`` handlers below are the only place
that knows the metric names.  When metrics are off it is simply not
subscribed.

Determinism contract: instrument names are plain strings, snapshots are
sorted by name, and histogram bucket boundaries are **fixed at creation**
— never derived from the data — so two identical runs produce
byte-identical snapshots.  Values are simulated quantities (µs, bytes,
event counts); wall-clock time never enters the registry.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

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
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigurationError(
                f"histogram {name} needs sorted, non-empty bounds: {bounds!r}"
            )
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                idx = i
                break
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
        buckets = {f"le_{b:g}": c for b, c in zip(self.bounds, self.counts)}
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


class MetricsRegistry:
    """Get-or-create home for every instrument, keyed by name."""

    __slots__ = ("_counters", "_gauges", "_histograms", "enabled")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: subscribed to the hook stream (False: the surface is off)
        self.enabled = True

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

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry into this one (cross-process reduce).

        Counters and histogram contents add; gauges take the incoming
        value (last-merged-wins — merge workers in a deterministic
        order).  Histograms must agree on their bucket boundaries; the
        fixed-at-creation contract makes that hold for same-build
        workers by construction.  Returns ``self`` for chaining.
        """
        for name in sorted(other._counters):
            self.counter(name).value += other._counters[name].value
        for name in sorted(other._gauges):
            self.gauge(name).value = other._gauges[name].value
        for name in sorted(other._histograms):
            theirs = other._histograms[name]
            mine = self.histogram(name, theirs.bounds)
            if mine.bounds != theirs.bounds:
                raise ConfigurationError(
                    f"histogram {name}: bucket boundaries differ "
                    f"({mine.bounds} vs {theirs.bounds})"
                )
            for i, c in enumerate(theirs.counts):
                mine.counts[i] += c
            mine.count += theirs.count
            mine.total += theirs.total
            for attr in ("min", "max"):
                val = getattr(theirs, attr)
                if val is None:
                    continue
                cur = getattr(mine, attr)
                pick = min if attr == "min" else max
                setattr(mine, attr, val if cur is None else pick(cur, val))
        return self

    # ------------------------------------------------------------------ #
    # hook subscriber (repro.obs.hooks): engine facts -> instruments
    # ------------------------------------------------------------------ #

    def on_send(self, msg) -> None:
        self.counter(f"engine.{msg.src}.messages_sent").inc()
        self.counter(f"engine.{msg.src}.bytes_sent").inc(msg.size)

    def on_duplicate(self, msg, transfer, now) -> None:
        self.counter(f"engine.{msg.dest}.duplicates_suppressed").inc()

    def on_complete(self, msg, now) -> None:
        # Completions land on the *sender's* lane so the series lines up
        # with its messages_sent (the event fires receiver-side).
        self.counter(f"engine.{msg.src}.messages_completed").inc()
        if msg.t_post is not None:
            self.histogram(f"engine.{msg.src}.message_latency_us").observe(
                now - msg.t_post
            )

    def on_degraded(self, msg, now, node) -> None:
        self.counter(f"engine.{node}.messages_degraded").inc()

    def on_retry(self, msg, old, new, max_retries, now, nic, reason) -> None:
        node = nic.machine.name
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
        # The point-to-point path shares the switched fabrics' metric
        # family.  A wire has no port contention by construction, so only
        # the occupancy side exists (serialization lives in the NIC).
        prefix = f"fabric.wire.{src.qualified_name}->{peer.machine.name}"
        self.counter(f"{prefix}.packets").inc()
        self.counter(f"{prefix}.queued_bytes").inc(transfer.size)
        self.counter(f"{prefix}.busy_us").inc(
            src.profile.wire_latency + src.extra_latency
        )

    def on_link(self, switch, src, dst, transfer, start, drain, stall) -> None:
        prefix = f"fabric.{switch.name}.link.{dst.machine.name}"
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

    def on_resample(self, nic, blend) -> None:
        self.counter("calibration.resamples").inc()

    def on_fallback(self, nic, node, before, after, confidence) -> None:
        self.counter("calibration.fallback_transitions").inc()

    def on_clamp(self, plan) -> None:
        self.counter("calibration.clamped_splits").inc()


def merge_snapshots(
    snapshots: Iterable[Dict[str, Dict[str, object]]]
) -> Dict[str, Dict[str, object]]:
    """Reduce :meth:`MetricsRegistry.snapshot` dicts from several workers
    into one (the pickled-artifact counterpart of :meth:`~MetricsRegistry.merge`).

    Same semantics: counters and histogram contents add, gauges take the
    last value in iteration order.  The reduce is associative and the
    output name-sorted, so a serial run and any sharded fan-out of the
    same work merge byte-identically.
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, object]] = {}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            gauges[name] = value
        for name, h in snap.get("histograms", {}).items():
            cur = histograms.get(name)
            if cur is None:
                histograms[name] = {
                    "buckets": dict(h["buckets"]),
                    "count": h["count"],
                    "total": h["total"],
                    "min": h["min"],
                    "max": h["max"],
                }
                continue
            if set(cur["buckets"]) != set(h["buckets"]):
                raise ConfigurationError(
                    f"histogram {name}: bucket boundaries differ across "
                    "snapshots"
                )
            for edge, c in h["buckets"].items():
                cur["buckets"][edge] += c
            cur["count"] += h["count"]
            cur["total"] += h["total"]
            for attr, pick in (("min", min), ("max", max)):
                val = h[attr]
                if val is None:
                    continue
                cur[attr] = val if cur[attr] is None else pick(cur[attr], val)
    return {
        "counters": {n: counters[n] for n in sorted(counters)},
        "gauges": {n: gauges[n] for n in sorted(gauges)},
        "histograms": {
            n: {
                "buckets": {
                    e: histograms[n]["buckets"][e]
                    for e in sorted(histograms[n]["buckets"])
                },
                "count": histograms[n]["count"],
                "total": histograms[n]["total"],
                "min": histograms[n]["min"],
                "max": histograms[n]["max"],
            }
            for n in sorted(histograms)
        },
    }
