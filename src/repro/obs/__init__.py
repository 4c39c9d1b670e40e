"""Observability: structured tracing, metrics, prediction accuracy, timelines.

One :class:`Observability` bundle per cluster (``ClusterBuilder
.observability()`` builds it; the config file's ``observability:``
section does the same declaratively) holds the five read-out surfaces:

* :attr:`Observability.tracer` — span-based structured tracer
  (:mod:`repro.obs.tracer`), exported as Chrome ``trace_event`` JSON by
  :mod:`repro.obs.chrome_export`;
* :attr:`Observability.metrics` — counters / gauges / fixed-bucket
  histograms (:mod:`repro.obs.metrics`);
* :attr:`Observability.accuracy` — predicted-vs-actual transfer-time
  telemetry (:mod:`repro.obs.accuracy`);
* :attr:`Observability.flight` — the post-mortem flight recorder
  (:mod:`repro.obs.flight`);
* :attr:`Observability.collectives` — the collective critical-path
  profiler (:mod:`repro.obs.collective`).

Each surface is a subscriber of the cluster's hook stream
(:mod:`repro.obs.hooks`); a disabled surface is simply not subscribed
and stays empty.  With everything off nothing subscribes, and every hook
site costs one attribute read.  The surfaces are **purely passive**:
they read simulated state but never schedule events, occupy resources
or alter control flow, so enabling them moves *no simulated timestamp*
(the determinism tests assert this bit-for-bit).

One more subscriber is not part of the bundle: a caller attaches a
:class:`Timeline` (:mod:`repro.obs.timeline`) to a built cluster or
machine with :meth:`Timeline.record` to get its core, NIC, fault and
retry lanes — overlaps, idle gaps, an ASCII Gantt chart — with CSV
export in :mod:`repro.obs.export`; :func:`explain` breaks one message
into its transfers' phases.

This package never imports the hardware or network model at module
level: the cores and NICs import :mod:`repro.obs.hooks`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.accuracy import PredictionAccuracy, size_bucket
from repro.obs.chrome_export import (
    chrome_trace,
    dumps_chrome_trace,
    export_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.collective import (
    CollectiveProfiler,
    critical_path,
    measured_hop_table,
    predicted_vs_measured,
    stragglers,
)
from repro.obs.explain import explain
from repro.obs.export import (
    export_messages_csv,
    export_timeline_csv,
    load_timeline_csv,
)
from repro.obs.flight import DEFAULT_FLIGHT_CAPACITY, FlightRecorder
from repro.obs.hooks import EVENTS, Hooks
from repro.obs.metrics import (
    DEFAULT_BANDWIDTH_BUCKETS_MBPS,
    DEFAULT_BYTE_BUCKETS,
    DEFAULT_DEPTH_BUCKETS,
    DEFAULT_TIME_BUCKETS_US,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_preset_for,
    merge_snapshots,
)
from repro.obs.timeline import Interval, Timeline
from repro.obs.tracer import DEFAULT_TRACE_LIMIT, Tracer
from repro.util.errors import ConfigurationError


class Observability:
    """The five read-out surfaces of one cluster.

    Parameters
    ----------
    enabled:
        Master switch.  ``False`` subscribes nothing (every surface
        stays empty).
    trace / metrics / accuracy:
        Disable individual surfaces while keeping the others.
    trace_limit:
        Cap on recorded trace events before deterministic dropping
        (``None`` = unbounded).
    flight / flight_capacity:
        The crash-dump flight recorder (:mod:`repro.obs.flight`): a
        bounded ring of recent events dumped on invariant violations,
        degraded sends and calibration ladder drops.
    collectives:
        The collective critical-path profiler
        (:mod:`repro.obs.collective`).
    """

    __slots__ = ("on", "tracer", "metrics", "accuracy", "flight", "collectives")

    def __init__(
        self,
        enabled: bool = True,
        trace: bool = True,
        metrics: bool = True,
        accuracy: bool = True,
        trace_limit: Optional[int] = DEFAULT_TRACE_LIMIT,
        flight: bool = True,
        flight_capacity: Optional[int] = None,
        collectives: bool = True,
    ) -> None:
        self.check_limits(trace_limit, flight_capacity)
        self.on = bool(enabled)
        self.tracer = Tracer(trace_limit)
        self.metrics = MetricsRegistry()
        self.accuracy = PredictionAccuracy()
        self.flight = FlightRecorder(
            DEFAULT_FLIGHT_CAPACITY if flight_capacity is None else flight_capacity
        )
        self.collectives = CollectiveProfiler()
        wanted = (trace, metrics, accuracy, flight, collectives)
        for surface, on in zip(self.surfaces, wanted):
            surface.enabled = self.on and bool(on)

    @property
    def surfaces(self) -> tuple:
        """The five surfaces, in subscription order."""
        return (
            self.tracer, self.metrics, self.accuracy, self.flight, self.collectives
        )

    @staticmethod
    def check_limits(
        trace_limit: Optional[int], flight_capacity: Optional[int]
    ) -> None:
        """Reject non-positive bounds (``None`` means the default)."""
        if trace_limit is not None and trace_limit < 1:
            raise ConfigurationError(
                f"trace_limit must be positive, got {trace_limit}"
            )
        if flight_capacity is not None and flight_capacity < 1:
            raise ConfigurationError(
                f"flight_capacity must be positive, got {flight_capacity}"
            )

    def __repr__(self) -> str:
        if not self.on:
            return "<Observability off>"
        return (
            f"<Observability trace={self.tracer.enabled} "
            f"events={len(self.tracer.events)} accuracy={self.accuracy.enabled}>"
        )

    def subscribe(self, hooks: Hooks) -> None:
        """Subscribe every enabled surface to ``hooks``.

        An enabled bundle also arms prediction stamps on outgoing data
        chunks, whichever surfaces are on (what accuracy telemetry reads).
        """
        if not self.on:
            return
        hooks.stamps = True
        for surface in self.surfaces:
            if surface.enabled:
                hooks.subscribe(surface)

    def chrome_trace(self) -> Dict[str, Any]:
        """The trace so far, with the profiled collectives flushed in."""
        self.collectives.flush_to_tracer(self.tracer)
        return chrome_trace(self.tracer)

    def export_chrome_trace(self, target) -> int:
        """:meth:`chrome_trace` written to ``target``; returns the event
        count."""
        self.collectives.flush_to_tracer(self.tracer)
        return export_chrome_trace(self.tracer, target)

    # ------------------------------------------------------------------ #
    # snapshots
    # ------------------------------------------------------------------ #

    def sample_cluster(self, cluster) -> None:
        """Refresh sampled-state gauges from a built cluster.

        Live counters are incremented at the event sites; gauges capture
        point-in-time state (utilization, queue depths, cache hit rates)
        and are only meaningful after this call.
        """
        if not self.metrics.enabled:
            return
        m = self.metrics
        m.gauge("sim.now_us").set(cluster.sim.now)
        m.gauge("sim.events_processed").set(cluster.sim.events_processed)
        for name in sorted(cluster.machines):
            machine = cluster.machines[name]
            for nic in machine.nics:
                q = nic.qualified_name
                m.gauge(f"nic.{q}.utilization").set(nic.utilization())
                m.gauge(f"nic.{q}.queue_depth").set(nic._tx.queued)
                m.gauge(f"nic.{q}.busy_offset_us").set(
                    nic.busy_until - nic.sim.now
                )
                m.gauge(f"nic.{q}.degraded").set(1.0 if nic.is_degraded else 0.0)
                m.gauge(f"nic.{q}.up").set(1.0 if nic.is_up else 0.0)
            for core in machine.cores:
                m.gauge(f"core.{name}.{core.core_id}.busy_us").set(core.busy_time)
        for name in sorted(cluster.engines):
            engine = cluster.engines[name]
            m.gauge(f"scheduler.{name}.outlist_depth").set(len(engine.scheduler))
            if engine.predictor is not None:
                m.gauge(f"predictor.{name}.plan_cache_hits").set(
                    engine.predictor.plan_cache_hits
                )
                m.gauge(f"predictor.{name}.plan_cache_misses").set(
                    engine.predictor.plan_cache_misses
                )
        calib = cluster.calibration
        if calib is not None:
            # Drift-defense gauges only exist when calibration is armed,
            # so healthy snapshots stay byte-identical with it off.
            for rail in calib.detector.rails():
                m.gauge(f"calibration.{rail}.confidence").set(
                    calib.confidence(rail)
                )

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic dump of every surface (schema in
        ``docs/observability.md``)."""
        return {
            "enabled": self.on,
            "metrics": self.metrics.snapshot(),
            "accuracy": self.accuracy.snapshot(),
            "trace": {
                "events": len(self.tracer.events),
                "dropped": self.tracer.dropped,
            },
            "flight": self.flight.snapshot(),
            "collectives": self.collectives.snapshot(),
        }


__all__ = [
    "Observability",
    "Hooks",
    "EVENTS",
    "Tracer",
    "DEFAULT_TRACE_LIMIT",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_TIME_BUCKETS_US",
    "DEFAULT_DEPTH_BUCKETS",
    "DEFAULT_BYTE_BUCKETS",
    "DEFAULT_BANDWIDTH_BUCKETS_MBPS",
    "bucket_preset_for",
    "merge_snapshots",
    "FlightRecorder",
    "DEFAULT_FLIGHT_CAPACITY",
    "CollectiveProfiler",
    "critical_path",
    "stragglers",
    "predicted_vs_measured",
    "measured_hop_table",
    "PredictionAccuracy",
    "size_bucket",
    "chrome_trace",
    "dumps_chrome_trace",
    "export_chrome_trace",
    "validate_chrome_trace",
    "Timeline",
    "Interval",
    "explain",
    "export_timeline_csv",
    "export_messages_csv",
    "load_timeline_csv",
]
