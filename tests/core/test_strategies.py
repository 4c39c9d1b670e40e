"""Strategy behaviour tests — the paper's qualitative claims at test scale."""

import pytest

from repro.api import ClusterBuilder
from repro.core import MessageStatus, TransferMode, make_strategy
from repro.core.packets import Message
from repro.core.sampling import ProfileStore
from repro.core.strategies import (
    AggregateStrategy,
    GreedyStrategy,
    HeteroSplitStrategy,
    IsoSplitStrategy,
    MulticoreSplitStrategy,
    SingleRailStrategy,
    StaticRatioStrategy,
    strategy_registry,
)
from repro.networks import ElanDriver, MxDriver
from repro.obs import Timeline
from repro.util.errors import ConfigurationError
from repro.util.units import KiB, MiB


@pytest.fixture(scope="module")
def profiles():
    return ProfileStore.sample_drivers([MxDriver(), ElanDriver()])


def build(strategy, profiles, rails=("myri10g", "quadrics")):
    return (
        ClusterBuilder.paper_testbed(strategy=strategy, rails=rails)
        .sampling(profiles=profiles)
        .build()
    )


def one_way(cluster, size, tag=0, posted=True):
    a, b = cluster.session("node0"), cluster.session("node1")
    if posted:
        b.irecv(tag=tag)
    m = a.isend("node1", size, tag=tag)
    cluster.run()
    assert m.status is MessageStatus.COMPLETE
    return m


class TestRegistry:
    def test_all_names_construct(self):
        for name in strategy_registry:
            assert make_strategy(name).engine is None

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_strategy("quantum")


class TestSampledModeChoice:
    """The sampled eager/rendezvous pick reads the threshold of the rail
    that would carry the message; on the paper testbed those are
    50,710 B (myri10g) and 22,831 B (quadrics)."""

    def engine(self, profiles):
        engine = build(HeteroSplitStrategy(), profiles).engines["node0"]
        thresholds = [
            engine.predictor.estimator_for(n).rdv_threshold()
            for n in engine.machine.nics
        ]
        assert thresholds == [50_710, 22_831]
        return engine

    def test_disagreeing_rails_follow_the_less_busy_one(self, profiles):
        engine = self.engine(profiles)
        myri, quadrics = engine.machine.nics
        msg = Message(src="node0", dest="node1", size=30 * KiB)
        quadrics.inject_busy(1000.0)
        assert engine.strategy.choose_mode(msg) is TransferMode.EAGER
        myri.inject_busy(2000.0)
        assert engine.strategy.choose_mode(msg) is TransferMode.RENDEZVOUS

    @pytest.mark.parametrize(
        "size, mode",
        [(1 * KiB, TransferMode.EAGER), (1 * MiB, TransferMode.RENDEZVOUS)],
    )
    def test_agreeing_rails_are_not_priced(self, profiles, monkeypatch, size, mode):
        engine = self.engine(profiles)

        def refuse(*args):
            raise AssertionError("predict called")

        monkeypatch.setattr(engine.predictor, "predict", refuse)
        msg = Message(src="node0", dest="node1", size=size)
        assert engine.strategy.choose_mode(msg) is mode


class TestSingleRail:
    def test_pinned_rail_respected(self, profiles):
        cluster = build(SingleRailStrategy(rail="quadrics"), profiles)
        m = one_way(cluster, 1 * MiB)
        assert m.rails_used == ["node0.quadrics1"]

    def test_default_rail_is_fastest(self, profiles):
        cluster = build(SingleRailStrategy(), profiles)
        m = one_way(cluster, 1 * MiB)
        assert m.rails_used == ["node0.myri10g0"]

    def test_unknown_rail_raises_at_send(self, profiles):
        cluster = build(SingleRailStrategy(rail="ethernet9"), profiles)
        a = cluster.session("node0")
        a.isend("node1", 64)
        with pytest.raises(ConfigurationError):
            cluster.run()


class TestRoundRobin:
    def test_messages_alternate_rails(self, profiles):
        cluster = build("round_robin", profiles)
        a, b = cluster.session("node0"), cluster.session("node1")
        msgs = [a.isend("node1", 1 * KiB, tag=i) for i in range(4)]
        cluster.run()
        rails = [m.rails_used[0].split(".")[1] for m in msgs]
        assert rails == ["myri10g0", "quadrics1", "myri10g0", "quadrics1"]


class TestGreedy:
    def test_two_messages_take_two_rails(self, profiles):
        """Fig. 3 setup: two segments dynamically balanced, one per NIC."""
        cluster = build("greedy", profiles)
        a = cluster.session("node0")
        m1 = a.isend("node1", 8 * KiB, tag=1)
        m2 = a.isend("node1", 8 * KiB, tag=2)
        cluster.run()
        assert m1.rails_used != m2.rails_used
        assert {m1.rails_used[0].split(".")[1], m2.rails_used[0].split(".")[1]} == {
            "myri10g0",
            "quadrics1",
        }

    def test_queued_when_all_rails_busy_then_drained(self, profiles):
        cluster = build("greedy", profiles)
        a = cluster.session("node0")
        eng = cluster.engine("node0")
        for nic in eng.machine.nics:
            nic.inject_busy(300.0)
        m = a.isend("node1", 1 * KiB)
        cluster.sim.run(until=100.0)
        assert m.status is MessageStatus.QUEUED
        cluster.run()
        assert m.status is MessageStatus.COMPLETE
        assert m.t_complete > 300.0


class TestAggregate:
    def test_same_dest_messages_aggregate(self, profiles):
        cluster = build("aggregate", profiles)
        a = cluster.session("node0")
        m1 = a.isend("node1", 2 * KiB, tag=1)
        m2 = a.isend("node1", 2 * KiB, tag=2)
        cluster.run()
        assert m2.msg_id in m1.aggregated_with
        assert m1.rails_used == m2.rails_used

    def test_aggregation_respects_packet_limit(self, profiles):
        cluster = build("aggregate", profiles)
        a = cluster.session("node0")
        big = 48 * KiB
        m1 = a.isend("node1", big, tag=1)
        m2 = a.isend("node1", big, tag=2)  # 96K > 64K limit: no aggregation
        cluster.run()
        assert m1.aggregated_with == []
        assert m1.status is MessageStatus.COMPLETE
        assert m2.status is MessageStatus.COMPLETE

    def test_pinned_rail(self, profiles):
        cluster = build(AggregateStrategy(rail="myri10g"), profiles)
        m = one_way(cluster, 4 * KiB)
        assert m.rails_used == ["node0.myri10g0"]

    def test_aggregation_beats_greedy_for_small_pairs(self, profiles):
        """The Fig. 3 claim, at one size: aggregating two small segments
        on the fastest rail beats balancing them over both rails."""
        results = {}
        for strat in ("aggregate", "greedy"):
            cluster = build(strat, profiles)
            a = cluster.session("node0")
            m1 = a.isend("node1", 1 * KiB, tag=1)
            m2 = a.isend("node1", 1 * KiB, tag=2)
            cluster.run()
            results[strat] = max(m1.t_complete, m2.t_complete)
        assert results["aggregate"] < results["greedy"]


class TestIsoSplit:
    def test_equal_chunks(self, profiles):
        cluster = build("iso_split", profiles)
        m = one_way(cluster, 4 * MiB)
        assert sorted(m.chunk_sizes) == [2 * MiB, 2 * MiB]

    def test_iso_leaves_fast_rail_idle(self, profiles):
        """§IV-A: under iso-split the Myri rail idles ~670 µs at 4 MiB."""
        cluster = build("iso_split", profiles)
        machine = cluster.machines["node0"]
        tl = Timeline.record(machine)
        one_way(cluster, 4 * MiB)
        mx, elan = (f"nic:{nic.name}" for nic in machine.nics)
        assert tl.idle_gap(mx, elan) == pytest.approx(670.0, abs=60.0)


class TestStaticRatio:
    def test_ratio_matches_plateaus(self, profiles):
        cluster = build("static_ratio", profiles)
        m = one_way(cluster, 8 * MiB)
        share = m.chunk_sizes[0] / (8 * MiB)
        mx_bw = profiles["myri10g"].plateau_bandwidth()
        elan_bw = profiles["quadrics"].plateau_bandwidth()
        assert share == pytest.approx(mx_bw / (mx_bw + elan_bw), rel=0.01)

    def test_same_ratio_for_every_size(self, profiles):
        """The §II-A criticism: one ratio regardless of message size."""
        cluster = build("static_ratio", profiles)
        a, b = cluster.session("node0"), cluster.session("node1")
        shares = []
        for i, size in enumerate((256 * KiB, 8 * MiB)):
            b.irecv(tag=i)
            m = a.isend("node1", size, tag=i)
            cluster.run()
            shares.append(m.chunk_sizes[0] / size)
        assert shares[0] == pytest.approx(shares[1], rel=0.01)

    def test_hetero_beats_static_ratio_at_medium_size(self, profiles):
        """'a split ratio for a 8 MB message may not fit a 256 KB one'."""
        lat = {}
        for strat in ("static_ratio", "hetero_split"):
            cluster = build(make_strategy(strat, rdv_threshold=64 * KiB), profiles)
            m = one_way(cluster, 256 * KiB)
            lat[strat] = m.latency
        assert lat["hetero_split"] <= lat["static_ratio"] + 0.5


class TestHeteroSplit:
    def test_chunk_times_equalized_at_4mib(self, profiles):
        """§IV-A's exemplar: both chunks land within ~1% of each other."""
        cluster = build("hetero_split", profiles)
        machine = cluster.machines["node0"]
        tl = Timeline.record(machine)
        one_way(cluster, 4 * MiB)
        # each NIC lane holds its data chunk (the control post is zero-length)
        ends = [tl.span(f"nic:{nic.name}")[1] for nic in machine.nics]
        assert abs(ends[0] - ends[1]) / max(ends) < 0.01

    def test_respects_max_rails(self, profiles):
        cluster = build(HeteroSplitStrategy(max_rails=1), profiles)
        m = one_way(cluster, 4 * MiB)
        assert len(m.rails_used) == 1

    def test_needs_sampling(self):
        with pytest.raises(ConfigurationError):
            ClusterBuilder.paper_testbed(strategy="hetero_split").sampling(
                enabled=False
            ).build()

    def test_busy_rail_avoided(self, profiles):
        """The Fig. 2 rule, live: a rail busy for ages is not used."""
        cluster = build("hetero_split", profiles)
        eng = cluster.engine("node0")
        eng.machine.nic_by_name("myri10g0").inject_busy(1e6)
        m = one_way(cluster, 256 * KiB)
        assert m.rails_used == ["node0.quadrics1"]

    def test_idle_prediction_off_ignores_busy_rail(self, profiles):
        cluster = build(
            HeteroSplitStrategy(use_idle_prediction=False), profiles
        )
        eng = cluster.engine("node0")
        eng.machine.nic_by_name("myri10g0").inject_busy(50_000.0)
        m = one_way(cluster, 256 * KiB)
        # Blind strategy still splits over both rails and pays the wait.
        assert len(m.rails_used) == 2
        assert m.latency > 50_000.0


class TestMulticoreSplit:
    def test_medium_eager_message_splits_across_cores(self, profiles):
        cluster = build("multicore_split", profiles)
        m = one_way(cluster, 32 * KiB)
        assert m.mode is TransferMode.EAGER
        assert len(m.rails_used) == 2
        eng = cluster.engine("node0")
        assert eng.pioman.offloads == 1

    def test_tiny_message_not_split(self, profiles):
        """Fig. 9: below ~4 KiB the offload cost dominates; do not split."""
        cluster = build("multicore_split", profiles)
        m = one_way(cluster, 1 * KiB)
        assert len(m.rails_used) == 1

    def test_split_beats_hetero_single_rail_eager_at_32k(self, profiles):
        lat = {}
        for strat in ("hetero_split", "multicore_split"):
            cluster = build(strat, profiles)
            lat[strat] = one_way(cluster, 32 * KiB).latency
        assert lat["multicore_split"] < lat["hetero_split"]

    def test_no_idle_cores_falls_back_to_single_rail(self, profiles):
        cluster = build("multicore_split", profiles)
        eng = cluster.engine("node0")
        for cid in (1, 2, 3):
            eng.marcel.spawn_compute(
                eng.machine.cores[cid], work_us=None, preemptable=False
            )
        a, b = cluster.session("node0"), cluster.session("node1")
        b.irecv()
        cluster.sim.run(until=1.0)
        m = a.isend("node1", 32 * KiB)
        cluster.sim.run(until=5000.0)
        assert m.status is MessageStatus.COMPLETE
        assert len(m.rails_used) == 1

    def test_preemption_used_when_allowed(self, profiles):
        cluster = build(MulticoreSplitStrategy(allow_preempt=True), profiles)
        eng = cluster.engine("node0")
        for cid in (1, 2, 3):
            eng.marcel.spawn_compute(
                eng.machine.cores[cid], work_us=None, preemptable=True
            )
        a, b = cluster.session("node0"), cluster.session("node1")
        b.irecv()
        cluster.sim.run(until=1.0)
        m = a.isend("node1", 32 * KiB)
        cluster.sim.run(until=5000.0)
        assert m.status is MessageStatus.COMPLETE
        assert len(m.rails_used) == 2
        assert eng.marcel.preemptions >= 1

    def test_rdv_path_unchanged_from_hetero(self, profiles):
        cluster = build("multicore_split", profiles)
        m = one_way(cluster, 4 * MiB)
        assert m.mode is TransferMode.RENDEZVOUS
        assert len(m.rails_used) == 2

    def test_chunked_eager_exceeds_single_rail_limit(self, profiles):
        """A 96 KiB message exceeds the 64 KiB per-rail eager limit but
        fits two chunks — the multicore strategy carries it eagerly."""
        cluster = build(
            MulticoreSplitStrategy(rdv_threshold=256 * KiB), profiles
        )
        m = one_way(cluster, 96 * KiB)
        assert m.mode is TransferMode.EAGER
        assert len(m.rails_used) == 2
        eng = cluster.engine("node0")
        for rail, chunk in zip(m.rails_used, m.chunk_sizes):
            nic = eng.machine.nic_by_name(rail.split(".")[1])
            assert chunk <= nic.profile.eager_limit

    def test_oversized_eager_falls_back_to_rendezvous_when_unsplittable(
        self, profiles
    ):
        """With max_rails=1 the same 96 KiB message cannot be chunked, so
        the safe fallback is a rendezvous — never a protocol error."""
        cluster = build(
            MulticoreSplitStrategy(rdv_threshold=256 * KiB, max_rails=1), profiles
        )
        m = one_way(cluster, 96 * KiB)
        assert m.mode is TransferMode.RENDEZVOUS
        assert m.bytes_received == 96 * KiB
