"""Metric bucket presets + registry/snapshot merge for sharded fan-out."""

import json

import pytest

from repro.bench.parallel import soak_obs_artifact
from repro.faults import soak
from repro.obs.metrics import (
    DEFAULT_BANDWIDTH_BUCKETS_MBPS,
    DEFAULT_BYTE_BUCKETS,
    DEFAULT_DEPTH_BUCKETS,
    DEFAULT_TIME_BUCKETS_US,
    MetricsRegistry,
    bucket_preset_for,
    merge_snapshots,
)
from repro.util.errors import ConfigurationError


class TestBucketPresets:
    def test_suffix_picks_the_family(self):
        assert bucket_preset_for("fabric.s.link.n.packet_bytes") == DEFAULT_BYTE_BUCKETS
        assert bucket_preset_for("nic.n.throughput_mbps") == DEFAULT_BANDWIDTH_BUCKETS_MBPS
        assert bucket_preset_for("scheduler.n.outlist_depth") == DEFAULT_DEPTH_BUCKETS
        assert bucket_preset_for("engine.n.message_latency_us") == DEFAULT_TIME_BUCKETS_US

    def test_unknown_suffix_keeps_time_buckets(self):
        # pre-fabric histograms must keep their exact boundaries
        assert bucket_preset_for("whatever") == DEFAULT_TIME_BUCKETS_US

    def test_registry_applies_preset_by_name(self):
        reg = MetricsRegistry()
        assert reg.histogram("x.packet_bytes").bounds == DEFAULT_BYTE_BUCKETS
        assert reg.histogram("x.stall_us").bounds == DEFAULT_TIME_BUCKETS_US

    def test_explicit_bounds_win(self):
        reg = MetricsRegistry()
        assert reg.histogram("x_bytes", bounds=(1.0, 2.0)).bounds == (1.0, 2.0)


def _registry(counter=0, gauge=0, values=()):
    reg = MetricsRegistry()
    reg.counter("c").inc(counter)
    reg.gauge("g").set(gauge)
    for v in values:
        reg.histogram("h_us").observe(v)
    return reg


class TestRegistryMerge:
    def test_counters_add_gauges_last_win(self):
        merged = _registry(counter=2, gauge=10).merge(
            _registry(counter=3, gauge=20)
        )
        snap = merged.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 20

    def test_histograms_add_bucketwise(self):
        merged = _registry(values=[1.0, 100.0]).merge(
            _registry(values=[100.0, 9e9])
        )
        h = merged.snapshot()["histograms"]["h_us"]
        assert h["count"] == 4
        assert h["total"] == 201.0 + 9e9
        assert h["min"] == 1.0 and h["max"] == 9e9

    def test_disjoint_names_union(self):
        a = MetricsRegistry()
        a.counter("only.a").inc()
        b = MetricsRegistry()
        b.counter("only.b").inc(2)
        snap = a.merge(b).snapshot()
        assert snap["counters"] == {"only.a": 1, "only.b": 2}

    def test_bucket_mismatch_rejected(self):
        a = MetricsRegistry()
        a.histogram("h", bounds=(1.0, 2.0)).observe(1.0)
        b = MetricsRegistry()
        b.histogram("h", bounds=(1.0, 3.0)).observe(1.0)
        with pytest.raises(ConfigurationError):
            a.merge(b)


class TestSnapshotMerge:
    def test_matches_registry_merge(self):
        a = _registry(counter=2, gauge=10, values=[5.0])
        b = _registry(counter=3, gauge=20, values=[50.0])
        via_snapshots = merge_snapshots([a.snapshot(), b.snapshot()])
        assert via_snapshots == a.merge(b).snapshot()

    def test_associative(self):
        snaps = [
            _registry(counter=i, gauge=i, values=[float(10**i)]).snapshot()
            for i in range(1, 4)
        ]
        left = merge_snapshots([merge_snapshots(snaps[:2]), snaps[2]])
        right = merge_snapshots([snaps[0], merge_snapshots(snaps[1:])])
        assert json.dumps(left, sort_keys=True) == json.dumps(
            right, sort_keys=True
        )

    def test_empty_input_empty_families(self):
        assert merge_snapshots([]) == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_bucket_mismatch_rejected(self):
        a = MetricsRegistry()
        a.histogram("h", bounds=(1.0, 2.0)).observe(1.0)
        b = MetricsRegistry()
        b.histogram("h", bounds=(1.0, 3.0)).observe(1.0)
        with pytest.raises(ConfigurationError):
            merge_snapshots([a.snapshot(), b.snapshot()])


class TestSoakObsArtifact:
    def test_jobs_1_and_jobs_n_merge_byte_identically(self):
        serial = soak(4, jobs=1, obs_metrics=True)
        sharded = soak(4, jobs=2, obs_metrics=True)
        assert json.dumps(
            soak_obs_artifact(serial), sort_keys=True
        ) == json.dumps(soak_obs_artifact(sharded), sort_keys=True)

    def test_artifact_shape(self):
        artifact = soak_obs_artifact(soak(2, jobs=1, obs_metrics=True))
        assert artifact["seeds"] == 2
        assert artifact["metrics"]["counters"]  # merged traffic counters
        assert artifact["flight_dumps"] == []  # both seeds are clean
