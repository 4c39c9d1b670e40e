"""Metric bucket presets: a histogram's boundaries follow its name."""

from repro.obs.metrics import (
    DEFAULT_BANDWIDTH_BUCKETS_MBPS,
    DEFAULT_BYTE_BUCKETS,
    DEFAULT_DEPTH_BUCKETS,
    DEFAULT_TIME_BUCKETS_US,
    MetricsRegistry,
    bucket_preset_for,
)


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

