"""Prediction-accuracy accumulator: buckets, stats, snapshots."""

import pytest

from repro.api import ClusterBuilder
from repro.obs import PredictionAccuracy, size_bucket
from repro.util.units import KiB, MiB


class TestSizeBucket:
    def test_pow2_sizes_sit_on_their_own_edge(self):
        assert size_bucket(4 * KiB) == "4K"
        assert size_bucket(1 * MiB) == "1M"

    def test_intermediate_sizes_round_down(self):
        assert size_bucket(5 * KiB) == "4K"
        assert size_bucket(2 * MiB - 1) == "1M"

    def test_degenerate_sizes(self):
        assert size_bucket(0) == "0B"
        assert size_bucket(1) == "1"


class TestErrorStats:
    def test_signed_and_absolute_errors(self):
        acc = PredictionAccuracy()
        acc.record("n.r0", 4096, predicted=10.0, actual=11.0)
        acc.record("n.r0", 4096, predicted=10.0, actual=9.0)
        s = acc.rail_stats("n.r0")
        assert s.count == 2
        assert s.mean_rel_error == pytest.approx(0.0)
        assert s.mean_abs_rel_error == pytest.approx(0.1)
        assert s.max_abs_error == pytest.approx(1.0)

    def test_zero_prediction_does_not_divide(self):
        acc = PredictionAccuracy()
        acc.record("n.r0", 64, predicted=0.0, actual=1.0)
        assert acc.rail_stats("n.r0").mean_rel_error == 0.0


class TestSnapshot:
    def test_shape_and_sorting(self):
        acc = PredictionAccuracy()
        acc.record("n.z", 4 * KiB, 10.0, 10.0,
                   predicted_completion=12.0, actual_completion=12.5)
        acc.record("n.a", 1 * MiB, 100.0, 101.0)
        snap = acc.snapshot()
        assert snap["samples"] == 2
        assert list(snap["per_rail"]) == ["n.a", "n.z"]
        assert snap["per_rail"]["n.a"]["completion"] is None
        assert snap["per_rail"]["n.z"]["completion"]["count"] == 1
        assert snap["per_bucket"]["n.a"]["1M"]["count"] == 1

    def test_report_renders(self):
        acc = PredictionAccuracy()
        acc.record("n.r0", 4 * KiB, 10.0, 10.5)
        text = acc.report()
        assert "n.r0" in text and "4K" in text

    def test_empty_report(self):
        assert "no samples" in PredictionAccuracy().report()


class TestNullAccuracy:
    """Observability off: the surface is not subscribed, records nothing,
    and the cluster's report says so."""

    def test_inert(self):
        cluster = ClusterBuilder.paper_testbed().build()
        a, b = cluster.sessions("node0", "node1")
        b.irecv(source="node0")
        a.isend("node1", "1M")
        cluster.run()
        acc = cluster.obs.accuracy
        assert cluster.obs.on is False
        assert acc not in cluster.hooks.subscribers
        assert acc.samples == 0
        assert acc.snapshot()["per_rail"] == {}
        assert acc.rails() == []
        assert "disabled" in cluster.accuracy_report()
