"""Tests for workload generators and the stream runner."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.runners import build_paper_cluster, default_profiles
from repro.bench.workloads import (
    bursty_stream,
    mixed_stream,
    random_stream,
    run_stream,
    uniform_stream,
)
from repro.util.errors import ConfigurationError
from repro.util.units import KiB, MiB


class TestGenerators:
    def test_uniform_stream_spacing(self):
        sends = uniform_stream(3, 1024, interval=5.0, start=2.0)
        assert sends == [(2.0, 1024, 0), (7.0, 1024, 1), (12.0, 1024, 2)]

    def test_uniform_back_to_back(self):
        sends = uniform_stream(3, 1024)
        assert all(t == 0.0 for t, _, _ in sends)

    def test_uniform_validation(self):
        with pytest.raises(ConfigurationError):
            uniform_stream(0, 1024)
        with pytest.raises(ConfigurationError):
            uniform_stream(1, 1024, interval=-1.0)

    def test_bursty_stream_shape(self):
        sends = bursty_stream(2, 3, 512, burst_gap=100.0)
        assert len(sends) == 6
        assert sum(1 for t, _, _ in sends if t == 0.0) == 3
        assert sum(1 for t, _, _ in sends if t == 100.0) == 3
        assert len({tag for _, _, tag in sends}) == 6

    def test_bursty_validation(self):
        with pytest.raises(ConfigurationError):
            bursty_stream(0, 1, 512, 1.0)

    def test_mixed_stream_sizes(self):
        sends = mixed_stream([10, 20, 30], interval=1.0)
        assert [s for _, s, _ in sends] == [10, 20, 30]

    def test_mixed_validation(self):
        with pytest.raises(ConfigurationError):
            mixed_stream([])

    def test_random_stream_deterministic(self):
        a = random_stream(20, (64, 4096), 10.0, seed=42)
        b = random_stream(20, (64, 4096), 10.0, seed=42)
        assert a == b
        c = random_stream(20, (64, 4096), 10.0, seed=43)
        assert a != c

    def test_random_stream_sizes_in_range(self):
        for _, size, _ in random_stream(50, (100, 1000), 5.0, seed=1):
            assert 100 <= size <= 1000

    def test_random_stream_times_nondecreasing(self):
        times = [t for t, _, _ in random_stream(50, (64, 128), 3.0, seed=7)]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_random_validation(self):
        with pytest.raises(ConfigurationError):
            random_stream(0, (1, 2), 1.0)
        with pytest.raises(ConfigurationError):
            random_stream(1, (10, 5), 1.0)

    def test_random_stream_negative_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            random_stream(1, (1, 2), -1.0)


class TestRunStream:
    @pytest.fixture(scope="class")
    def profiles(self):
        return default_profiles()

    def test_all_messages_complete_and_bytes_conserved(self, profiles):
        cluster = build_paper_cluster("hetero_split", profiles=profiles)
        result = run_stream(cluster, uniform_stream(8, 4 * KiB, interval=2.0))
        assert len(result.messages) == 8
        assert result.total_bytes == 8 * 4 * KiB
        assert all(m.bytes_received == m.size for m in result.messages)

    def test_metrics_positive(self, profiles):
        cluster = build_paper_cluster("greedy", profiles=profiles)
        result = run_stream(cluster, uniform_stream(4, 1 * KiB))
        assert result.throughput_mbps > 0
        assert result.message_rate_per_s > 0
        assert result.mean_latency_us > 0
        assert result.latency_percentile(50) <= result.latency_percentile(100)

    def test_empty_stream_rejected(self, profiles):
        cluster = build_paper_cluster("greedy", profiles=profiles)
        with pytest.raises(ConfigurationError):
            run_stream(cluster, [])

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_streams_always_drain(self, profiles, seed):
        """Property: any random mixed-size stream completes fully, with
        every byte accounted for — no lost or duplicated chunks under
        arbitrary interleavings of eager, rendezvous and split paths."""
        cluster = build_paper_cluster("multicore_split", profiles=profiles)
        sends = random_stream(12, (16, 2 * MiB), mean_interval=50.0, seed=seed)
        result = run_stream(cluster, sends)
        assert len(result.messages) == 12
        for msg in result.messages:
            assert msg.bytes_received == msg.size
            assert msg.t_complete >= msg.t_post
