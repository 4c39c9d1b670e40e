"""S1 — stream multiplexing (the paper's §II-A / Fig. 1 claims, measured).

Validation contract: dispatching whole messages to idle rails (greedy)
reaches near-aggregate *stream* throughput but leaves the *unloaded*
per-message transfer time at single-rail level; hetero-split matches the
throughput and also cuts the per-message time.
"""

import pytest

from repro.bench.experiments import streams


@pytest.fixture(scope="module")
def result(experiment):
    return experiment("S1")


def test_s1_regeneration(result):
    assert set(result.throughput_mbps) == set(streams.STRATEGIES)


class TestS1Shape:
    def test_greedy_stream_fills_both_rails(self, result):
        assert result.throughput_mbps["greedy"] > 1.5 * result.throughput_mbps["single_rail"]

    def test_greedy_unloaded_latency_is_single_rail(self, result):
        """§II-A: 'each communication flow transfer time is the same as if
        there were a single NIC'."""
        assert result.unloaded_latency_us["greedy"] == pytest.approx(
            result.unloaded_latency_us["single_rail"], rel=0.02
        )

    def test_hetero_cuts_unloaded_latency(self, result):
        assert result.unloaded_latency_us["hetero_split"] < 0.7 * (
            result.unloaded_latency_us["single_rail"]
        )

    def test_hetero_best_throughput(self, result):
        for other in ("single_rail", "round_robin", "greedy"):
            assert (
                result.throughput_mbps["hetero_split"]
                >= result.throughput_mbps[other] - 1e-6
            )

    def test_round_robin_unloaded_latency_worse_than_single(self, result):
        """Blind alternation parks half the messages on the slow rail."""
        assert (
            result.unloaded_latency_us["round_robin"]
            > result.unloaded_latency_us["single_rail"]
        )

    def test_queueing_dominates_saturated_latency(self, result):
        for s in streams.STRATEGIES:
            assert result.queued_mean_latency_us[s] > result.unloaded_latency_us[s]

    def test_render(self, result):
        text = result.render()
        for s in streams.STRATEGIES:
            assert s in text
