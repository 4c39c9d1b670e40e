"""Tests for AdaptiveStrategy: the state-driven §I behaviour."""

import pytest

from repro.api import ClusterBuilder
from repro.bench.runners import default_profiles
from repro.core import MessageStatus, TransferMode
from repro.core.strategies import (
    AdaptiveStrategy,
    AggregateStrategy,
    GreedyStrategy,
    MulticoreSplitStrategy,
)
from repro.util.units import KiB, MiB


@pytest.fixture(scope="module")
def profiles():
    return default_profiles()


def build(strategy, profiles):
    return (
        ClusterBuilder.paper_testbed(strategy=strategy)
        .sampling(profiles=profiles)
        .build()
    )


class TestModeSelection:
    def test_queued_small_pair_aggregates(self, profiles):
        cluster = build("adaptive", profiles)
        a = cluster.session("node0")
        m1 = a.isend("node1", 2 * KiB, tag=1)
        m2 = a.isend("node1", 2 * KiB, tag=2)
        cluster.run()
        assert m2.msg_id in m1.aggregated_with
        strat = cluster.engine("node0").strategy
        assert strat.aggregations == 1
        assert strat.splits == 0

    def test_lone_medium_message_splits_across_cores(self, profiles):
        cluster = (
            ClusterBuilder.paper_testbed(strategy="adaptive")
            .sampling(profiles=profiles)
            .observability()
            .build()
        )
        a, b = cluster.session("node0"), cluster.session("node1")
        b.irecv()
        m = a.isend("node1", 32 * KiB)
        cluster.run()
        assert m.mode is TransferMode.EAGER
        assert len(m.rails_used) == 2
        strat = cluster.engine("node0").strategy
        assert strat.splits == 1
        assert strat.aggregations == 0
        # The metrics registry counts each split once, like the strategy.
        counters = cluster.metrics_snapshot()["counters"]
        assert counters["strategy.node0.splits"] == strat.splits

    def test_large_message_goes_hetero_rendezvous(self, profiles):
        cluster = build("adaptive", profiles)
        a, b = cluster.session("node0"), cluster.session("node1")
        b.irecv()
        m = a.isend("node1", 4 * MiB)
        cluster.run()
        assert m.mode is TransferMode.RENDEZVOUS
        assert len(m.rails_used) == 2

    def test_oversized_batch_falls_back_to_split(self, profiles):
        """Two 48 KiB messages exceed one packet: no aggregation — each is
        handled alone (and may split)."""
        cluster = build("adaptive", profiles)
        a = cluster.session("node0")
        m1 = a.isend("node1", 48 * KiB, tag=1)
        m2 = a.isend("node1", 48 * KiB, tag=2)
        cluster.run()
        assert m1.aggregated_with == []
        assert m1.status is MessageStatus.COMPLETE
        assert m2.status is MessageStatus.COMPLETE

    def test_aggregation_limit_parameter(self, profiles):
        cluster = build(AdaptiveStrategy(aggregation_limit=1 * KiB), profiles)
        a = cluster.session("node0")
        m1 = a.isend("node1", 2 * KiB, tag=1)
        m2 = a.isend("node1", 2 * KiB, tag=2)
        cluster.run()
        assert m1.aggregated_with == []  # over the configured limit


class TestAdaptiveMatchesSpecialists:
    def test_matches_aggregate_on_fig3_workload(self, profiles):
        """On the queued-pair workload, adaptive should tie the dedicated
        aggregation strategy (same decision, same rail family)."""
        results = {}
        for name, strat in (
            ("adaptive", AdaptiveStrategy()),
            ("aggregate", AggregateStrategy()),
        ):
            cluster = build(strat, profiles)
            a = cluster.session("node0")
            m1 = a.isend("node1", 2 * KiB, tag=1)
            m2 = a.isend("node1", 2 * KiB, tag=2)
            cluster.run()
            results[name] = max(m1.t_complete, m2.t_complete)
        assert results["adaptive"] == pytest.approx(results["aggregate"], rel=0.05)

    def test_matches_multicore_on_lone_message(self, profiles):
        results = {}
        for name, strat in (
            ("adaptive", AdaptiveStrategy()),
            ("multicore", MulticoreSplitStrategy()),
        ):
            cluster = build(strat, profiles)
            a, b = cluster.session("node0"), cluster.session("node1")
            b.irecv()
            m = a.isend("node1", 32 * KiB)
            cluster.run()
            results[name] = m.latency
        assert results["adaptive"] == pytest.approx(results["multicore"])

    def test_beats_greedy_on_mixed_burst(self, profiles):
        """A burst of 4 small + 1 medium message: adaptive aggregates the
        small ones and splits the medium one; greedy does neither."""
        def run(strat):
            cluster = build(strat, profiles)
            a, b = cluster.session("node0"), cluster.session("node1")
            for i in range(5):
                b.irecv(tag=i)
            msgs = [a.isend("node1", 1 * KiB, tag=i) for i in range(4)]
            msgs.append(a.isend("node1", 32 * KiB, tag=4))
            cluster.run()
            return max(m.t_complete for m in msgs)

        assert run(AdaptiveStrategy()) < run(GreedyStrategy())
