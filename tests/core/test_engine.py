"""Integration tests: the full engine over the paper's testbed."""

import dataclasses
import gc

import pytest

from repro.api import ClusterBuilder
from repro.core import MessageStatus, TransferMode
from repro.core.sampling import ProfileStore
from repro.networks import rail_profile
from repro.simtime import SimEvent
from repro.util.errors import ConfigurationError, ProtocolError
from repro.util.units import KiB, MiB, bytes_per_us_to_mbps


@pytest.fixture(scope="module")
def profiles():
    return ProfileStore.sample_rails(
        [rail_profile("myri10g"), rail_profile("quadrics")]
    )


def build(strategy, profiles, rails=("myri10g", "quadrics"), **kw):
    return (
        ClusterBuilder.paper_testbed(strategy=strategy, rails=rails)
        .sampling(profiles=profiles)
        .build()
    )


class TestEagerPath:
    def test_small_message_one_way(self, profiles):
        cluster = build("hetero_split", profiles)
        a, b = cluster.session("node0"), cluster.session("node1")
        recv = b.irecv(source="node0")
        m = a.isend("node1", 64)
        cluster.run()
        assert m.status is MessageStatus.COMPLETE
        assert m.mode is TransferMode.EAGER
        assert recv.matched is m
        assert 0 < m.latency < 20.0

    def test_size_string_accepted(self, profiles):
        cluster = build("hetero_split", profiles)
        a, b = cluster.session("node0"), cluster.session("node1")
        b.irecv()
        m = a.isend("node1", "4K")
        assert m.size == 4096

    def test_unknown_destination_rejected(self, profiles):
        cluster = build("hetero_split", profiles)
        a = cluster.session("node0")
        with pytest.raises(ConfigurationError):
            a.isend("node9", 64)

    def test_message_completes_without_posted_recv(self, profiles):
        """Unexpected messages complete and match a later post_recv."""
        cluster = build("hetero_split", profiles)
        a, b = cluster.session("node0"), cluster.session("node1")
        m = a.isend("node1", 64)
        cluster.run()
        assert m.status is MessageStatus.COMPLETE
        recv = b.irecv(source="node0")
        assert recv.matched is m

    def test_recv_matching_by_tag(self, profiles):
        cluster = build("hetero_split", profiles)
        a, b = cluster.session("node0"), cluster.session("node1")
        r5 = b.irecv(tag=5)
        r9 = b.irecv(tag=9)
        m9 = a.isend("node1", 64, tag=9)
        m5 = a.isend("node1", 64, tag=5)
        cluster.run()
        assert r5.matched is m5
        assert r9.matched is m9

    def test_ping_pong_round_trip(self, profiles):
        cluster = build("hetero_split", profiles)
        a, b = cluster.session("node0"), cluster.session("node1")
        sim = cluster.sim

        pong_latency = []

        def on_ping(msg):
            reply = b.isend("node0", 64, tag=1)
            reply.done.subscribe(sim, lambda m: pong_latency.append(sim.now))

        ping = a.isend("node1", 64, tag=0)
        ping.done.subscribe(sim, on_ping)
        cluster.run()
        assert len(pong_latency) == 1
        # Round trip is two comparable one-ways.
        assert pong_latency[0] == pytest.approx(2 * ping.latency, rel=0.2)


class TestRendezvousPath:
    def test_large_message_goes_rendezvous(self, profiles):
        cluster = build("hetero_split", profiles)
        a, b = cluster.session("node0"), cluster.session("node1")
        b.irecv(source="node0")
        m = a.isend("node1", 1 * MiB)
        cluster.run()
        assert m.mode is TransferMode.RENDEZVOUS
        assert m.status is MessageStatus.COMPLETE
        assert m.bytes_received == 1 * MiB

    def test_rdv_waits_for_matching_recv(self, profiles):
        """The data phase must not start before the receive is posted."""
        cluster = build("hetero_split", profiles)
        a, b = cluster.session("node0"), cluster.session("node1")
        sim = cluster.sim
        m = a.isend("node1", 1 * MiB)
        sim.run(until=5000.0)
        assert m.status is MessageStatus.RDV_REQUESTED  # stalled on recv
        b.irecv(source="node0")
        cluster.run()
        assert m.status is MessageStatus.COMPLETE
        assert m.t_complete > 5000.0

    def test_hetero_split_uses_both_rails(self, profiles):
        cluster = build("hetero_split", profiles)
        a, b = cluster.session("node0"), cluster.session("node1")
        b.irecv()
        m = a.isend("node1", 4 * MiB)
        cluster.run()
        assert len(m.rails_used) == 2
        assert sum(m.chunk_sizes) == 4 * MiB

    def test_hetero_split_bandwidth_beats_single_rail(self, profiles):
        results = {}
        for strat in ("single_rail", "hetero_split"):
            cluster = build(strat, profiles)
            a, b = cluster.session("node0"), cluster.session("node1")
            b.irecv()
            m = a.isend("node1", 8 * MiB)
            cluster.run()
            results[strat] = bytes_per_us_to_mbps(8 * MiB / m.latency)
        assert results["hetero_split"] > 1.5 * results["single_rail"]

    def test_wrong_engine_cannot_send_foreign_message(self, profiles):
        cluster = build("hetero_split", profiles)
        eng_a = cluster.engine("node0")
        eng_b = cluster.engine("node1")
        msg = eng_a.isend("node1", 1024)
        with pytest.raises(ProtocolError):
            eng_b.submit_eager_chunks(msg, [(eng_b.machine.nics[0], 1024)])


class TestBidirectional:
    def test_simultaneous_opposite_sends(self, profiles):
        cluster = build("hetero_split", profiles)
        a, b = cluster.session("node0"), cluster.session("node1")
        a.irecv(source="node1")
        b.irecv(source="node0")
        m_ab = a.isend("node1", 1 * MiB)
        m_ba = b.isend("node0", 1 * MiB)
        cluster.run()
        assert m_ab.status is MessageStatus.COMPLETE
        assert m_ba.status is MessageStatus.COMPLETE
        # Full-duplex rails: both directions complete in similar time.
        assert m_ab.latency == pytest.approx(m_ba.latency, rel=0.05)


class TestManyMessages:
    def test_fifo_stream_of_eager_messages(self, profiles):
        cluster = build("greedy", profiles)
        a, b = cluster.session("node0"), cluster.session("node1")
        msgs = [a.isend("node1", 4 * KiB, tag=i) for i in range(20)]
        cluster.run()
        assert all(m.status is MessageStatus.COMPLETE for m in msgs)
        assert cluster.engine("node1").messages_completed == 20

    def test_mixed_sizes_and_modes(self, profiles):
        cluster = build("hetero_split", profiles)
        a, b = cluster.session("node0"), cluster.session("node1")
        for _ in range(4):
            b.irecv()
        sizes = [64, 512 * KiB, 4 * KiB, 2 * MiB]
        msgs = [a.isend("node1", s, tag=i) for i, s in enumerate(sizes)]
        cluster.run()
        for m, s in zip(msgs, sizes):
            assert m.status is MessageStatus.COMPLETE
            assert m.bytes_received == s

    def test_counters(self, profiles):
        cluster = build("hetero_split", profiles)
        a, b = cluster.session("node0"), cluster.session("node1")
        b.irecv()
        a.isend("node1", 1000)
        cluster.run()
        eng = cluster.engine("node0")
        assert eng.messages_sent == 1
        assert eng.bytes_sent == 1000


class TestMessageRecord:
    """What a completed message keeps alive until the run ends: few
    objects the cyclic collector has to scan again at every pass."""

    @staticmethod
    def tracked_objects(msg):
        """GC-tracked objects among the message, its ``done``, its
        transfers, and the containers and events they hold."""
        kept = {}
        for record in (msg, *msg.transfers):
            kept[id(record)] = record
            for f in dataclasses.fields(record):
                value = getattr(record, f.name)
                if isinstance(value, (list, tuple, set, dict, SimEvent)):
                    kept[id(value)] = value
        gc.collect()  # untracks tuples that hold only atoms
        return sum(gc.is_tracked(obj) for obj in kept.values())

    @pytest.mark.parametrize(
        "size, transfers, limit",
        [
            # the message (its own done), its transfers list, one packet
            (1 * KiB, 1, 3),
            # the same, REQ + ACK + 2 chunks, and the interval set
            (4 * MiB, 4, 7),
        ],
    )
    def test_tracked_objects_per_message(self, profiles, size, transfers, limit):
        cluster = build("hetero_split", profiles)
        a, b = cluster.session("node0"), cluster.session("node1")
        b.irecv()
        m = a.isend("node1", size)
        cluster.run()
        assert m.status is MessageStatus.COMPLETE
        assert len(m.transfers) == transfers
        assert self.tracked_objects(m) <= limit

    def test_no_tx_done_without_offload(self, profiles):
        """Only an offloading picker waits on ``tx_done``, so a send the
        app core posts itself never allocates one."""
        cluster = build("hetero_split", profiles)
        a, b = cluster.session("node0"), cluster.session("node1")
        msgs = [a.isend("node1", s, tag=i) for i, s in enumerate((64, 4 * MiB))]
        for i in range(2):
            b.irecv(tag=i)
        cluster.run()
        assert all(m.status is MessageStatus.COMPLETE for m in msgs)
        assert [t.tx_done for m in msgs for t in m.transfers] == [None] * 5


class TestResample:
    def test_resample_swaps_estimators_everywhere(self, profiles):
        cluster = build("hetero_split", profiles)
        old_predictors = {n: e.predictor for n, e in cluster.engines.items()}
        fresh = cluster.resample("node0.myri10g0", blend=1.0)
        assert cluster.profiles is fresh
        for name, engine in cluster.engines.items():
            assert engine.predictor is not old_predictors[name]

    def test_resample_restores_split_quality_after_degradation(self):
        """The A8 scenario as an API workflow: degrade, observe, resample."""
        def build_degraded(profiles_arg):
            b = ClusterBuilder(strategy="hetero_split")
            b.add_node("node0").add_node("node1")
            b.add_rail(
                rail_profile("myri10g", dma_rate=rail_profile("myri10g").dma_rate / 2),
                "node0",
                "node1",
            )
            b.add_rail("quadrics", "node0", "node1")
            if profiles_arg is not None:
                b.sampling(profiles=profiles_arg)
            return b.build()

        def one_way(cluster):
            a, b = cluster.session("node0"), cluster.session("node1")
            b.irecv()
            m = a.isend("node1", 4 * MiB)
            cluster.run()
            return m.latency

        stale_profiles = ProfileStore.sample_rails(
            [rail_profile("myri10g"), rail_profile("quadrics")]
        )
        stale = one_way(build_degraded(stale_profiles))

        cluster = build_degraded(stale_profiles)
        cluster.resample("node0.myri10g0", blend=1.0)
        fresh = one_way(cluster)
        assert fresh < 0.85 * stale


class TestBuilderValidation:
    def test_no_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterBuilder().build()

    def test_no_rails_rejected(self):
        b = ClusterBuilder()
        b.add_node("x")
        b.add_node("y")
        with pytest.raises(ConfigurationError):
            b.build()

    def test_duplicate_node_rejected(self):
        b = ClusterBuilder()
        b.add_node("x")
        with pytest.raises(ConfigurationError):
            b.add_node("x")

    def test_rail_to_unknown_node_rejected(self):
        b = ClusterBuilder()
        b.add_node("x")
        with pytest.raises(ConfigurationError):
            b.add_rail("myri10g", "x", "ghost")

    def test_per_node_strategy_override(self, profiles):
        cluster = (
            ClusterBuilder.paper_testbed(strategy="hetero_split")
            .strategy_for("node1", "greedy")
            .sampling(profiles=profiles)
            .build()
        )
        assert cluster.engine("node0").strategy.name == "hetero_split"
        assert cluster.engine("node1").strategy.name == "greedy"

    def test_per_node_strategy_before_its_node(self, profiles):
        b = ClusterBuilder("hetero_split").strategy_for("late", "greedy")
        b.add_node("early").add_node("late").add_rail("myri10g", "early", "late")
        cluster = b.sampling(profiles=profiles).build()
        assert cluster.engine("late").strategy.name == "greedy"

    def test_per_node_strategy_for_unknown_node_rejected(self, profiles):
        builder = (
            ClusterBuilder.paper_testbed(strategy="hetero_split")
            .strategy_for("nod1", "greedy")
            .strategy_for("node9", "greedy")
            .sampling(profiles=profiles)
        )
        with pytest.raises(
            ConfigurationError,
            match=r"unknown node\(s\) \['nod1', 'node9'\]; "
            r"known: \['node0', 'node1'\]",
        ):
            builder.build()

    def test_unknown_session_rejected(self, profiles):
        cluster = build("greedy", profiles)
        with pytest.raises(ConfigurationError):
            cluster.session("nebula")
