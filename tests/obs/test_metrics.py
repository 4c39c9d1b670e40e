"""Metrics registry: instruments, snapshot determinism, the off path."""

import json

import pytest

from repro.api import ClusterBuilder
from repro.obs import DEFAULT_DEPTH_BUCKETS, Histogram, MetricsRegistry
from repro.util.errors import ConfigurationError


class TestCounter:
    def test_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(2.5)
        assert reg.counter("a").value == 3.5

    def test_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("a").inc(-1)


class TestGauge:
    def test_moves_both_ways(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(5.0)
        reg.gauge("g").set(2.0)
        assert reg.gauge("g").value == 2.0


class TestHistogram:
    def test_fixed_buckets(self):
        h = Histogram("h", bounds=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        d = h.to_dict()
        assert d["buckets"] == {"le_1": 1, "le_10": 1, "le_100": 1, "inf": 1}
        assert d["count"] == 4
        assert d["min"] == 0.5 and d["max"] == 500.0
        assert h.mean == pytest.approx(138.875)

    def test_boundary_is_inclusive(self):
        h = Histogram("h", bounds=(10.0,))
        h.observe(10.0)
        assert h.to_dict()["buckets"] == {"le_10": 1, "inf": 0}

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", bounds=(5.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram("h", bounds=())

    def test_depth_buckets_cover_small_counts(self):
        h = Histogram("d", bounds=DEFAULT_DEPTH_BUCKETS)
        h.observe(3)
        assert h.to_dict()["buckets"]["le_4"] == 1


class TestSnapshot:
    def test_sorted_and_json_stable(self):
        def fill(reg):
            reg.counter("z.count").inc(2)
            reg.counter("a.count").inc(1)
            reg.gauge("m.gauge").set(7.5)
            reg.histogram("h", bounds=(1.0, 2.0)).observe(1.5)

        a, b = MetricsRegistry(), MetricsRegistry()
        fill(a)
        fill(b)
        sa = json.dumps(a.snapshot(), sort_keys=True)
        sb = json.dumps(b.snapshot(), sort_keys=True)
        assert sa == sb
        assert list(a.snapshot()["counters"]) == ["a.count", "z.count"]


class TestNullMetrics:
    """Observability off: the registry is not subscribed and stays empty,
    and no gauge is sampled into it."""

    def test_inert(self):
        cluster = ClusterBuilder.paper_testbed().build()
        a, b = cluster.sessions("node0", "node1")
        b.irecv(source="node0")
        a.isend("node1", "64K")
        cluster.run()
        assert cluster.obs.metrics not in cluster.hooks.subscribers
        assert cluster.metrics_snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
