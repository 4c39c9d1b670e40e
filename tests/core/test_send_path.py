"""Contracts of the engine's per-message eager send path.

Up-rail views, the mode decision, aggregate bookkeeping, the fastest-rail
tie rule and the one-chunk submission: each is exercised directly on a
built cluster, without running the simulator unless a test says so.
"""

import dataclasses

import pytest

from repro.api import ClusterBuilder
from repro.bench.runners import default_profiles
from repro.core import MessageStatus, TransferMode
from repro.core.estimator import NicEstimator
from repro.core.packets import Message
from repro.core.rendezvous import make_eager_chunks, make_eager_packet
from repro.hardware.topology import Fabric
from repro.util.errors import ProtocolError, SamplingError, SchedulingError

RAILS = ("myri10g", "quadrics")


@pytest.fixture(scope="module")
def profiles():
    return default_profiles(RAILS)


def flat(profiles, strategy="hetero_split", n=3):
    """``n`` nodes on one flat switch per rail: node0 reaches every peer
    over the same two NICs."""
    return (
        ClusterBuilder(strategy)
        .fabric(Fabric.flat(n, rails=RAILS))
        .sampling(profiles=profiles)
        .build()
    )


def message(size=64, dest="node1"):
    return Message(src="node0", dest=dest, size=size)


class TestUpRailViews:
    def test_all_up_is_the_shared_route_tuple(self, profiles):
        eng = flat(profiles).engine("node0")
        msg = message()
        rails = eng.rails_to("node1", msg)
        assert isinstance(rails, tuple)
        assert rails == tuple(eng.machine.nics)
        assert eng.rails_to("node2") is rails
        assert msg.rail_notes == ()

    def test_one_rail_down_lists_the_up_rails_and_notes_it_once(self, profiles):
        eng = flat(profiles).engine("node0")
        down, up = eng.machine.nics
        msg = message()
        down.fail()
        assert list(eng.rails_to("node1", msg)) == [up]
        assert list(eng.rails_to("node1", msg)) == [up]
        assert msg.rail_notes == (f"{down.qualified_name}: down (first at t=0.00us)",)
        # the shared route still lists both rails
        assert eng.all_rails_to("node1") == [down, up]
        down.recover()
        assert eng.rails_to("node1") is eng.rails_to("node2")

    def test_sendable_needs_one_up_rail(self, profiles):
        eng = flat(profiles).engine("node0")
        msg = message()
        for nic in eng.machine.nics:
            assert eng.sendable(msg)
            nic.fail()
        assert not eng.sendable(msg)
        assert msg.rail_notes == ("all rails: down towards node1 (first at t=0.00us)",)
        with pytest.raises(SchedulingError, match="are down"):
            eng.rails_to("node1")


class TestModeDecision:
    def test_every_rail_is_asked(self, profiles, monkeypatch):
        """Each rail's estimator sees the size, so every mode memo fills
        as it did when the modes were gathered into a set."""
        eng = flat(profiles).engine("node0")
        asked = []
        best_mode = NicEstimator.best_mode

        def spy(est, size):
            asked.append((est.name, size))
            return best_mode(est, size)

        monkeypatch.setattr(NicEstimator, "best_mode", spy)
        assert eng.strategy.choose_mode(message(size=300)) is TransferMode.EAGER
        assert sorted(asked) == [("myri10g", 300), ("quadrics", 300)]

    def test_missing_profile_raises_sampling_error(self, profiles):
        eng = flat(profiles).engine("node0")
        del eng.predictor.estimators[eng.machine.nics[1].profile.name]
        with pytest.raises(SamplingError, match="no sampling profile"):
            eng.strategy.choose_mode(message())


class TestFastestRail:
    def test_a_tie_goes_to_the_first_rail_in_route_order(self, profiles, monkeypatch):
        eng = flat(profiles).engine("node0")
        first, second = eng.rails_to("node1")
        times = {first: 5.0, second: 5.0}
        monkeypatch.setattr(eng.predictor, "predict", lambda n, s, m: times[n])
        pick = eng.strategy.fastest_rail
        assert pick("node1", 64, TransferMode.EAGER) is first
        times[second] = 4.0
        assert pick("node1", 64, TransferMode.EAGER) is second


class TestAggregateBookkeeping:
    def test_aggregated_with_and_out_list_order(self, profiles):
        eng = flat(profiles, strategy="aggregate").engine("node0")
        msgs = [eng.isend("node1", 16 + i, tag=i) for i in range(6)]
        batch = [msgs[4], msgs[1], msgs[2]]
        eng.submit_aggregated_eager(batch, eng.machine.nics[0])
        ids = tuple(m.msg_id for m in batch)
        packet = batch[0].transfers[-1]
        assert packet.aggregated_ids == ids
        for m in batch:
            assert m.aggregated_with == tuple(i for i in ids if i != m.msg_id)
            assert m.transfers == [packet]
            assert m.status is MessageStatus.IN_TRANSFER
        assert list(eng.scheduler) == [msgs[0], msgs[3], msgs[5]]

    def test_a_message_not_queued_raises(self, profiles):
        eng = flat(profiles, strategy="aggregate").engine("node0")
        msgs = [eng.isend("node1", 16, tag=i) for i in range(3)]
        eng.submit_aggregated_eager(msgs[:2], eng.machine.nics[0])
        with pytest.raises(SchedulingError, match="not in the out-list"):
            eng.scheduler.remove(msgs[0])
        with pytest.raises(SchedulingError, match="not in the out-list"):
            eng.scheduler.remove(msgs[2], msgs[2])
        with pytest.raises(SchedulingError, match="not in the out-list"):
            eng.submit_aggregated_eager([msgs[1]], eng.machine.nics[0])


class TestOneChunkSubmit:
    def test_packet_equals_the_one_chunk_of_the_general_builder(self):
        msg = message(size=1000)
        packet = make_eager_packet(msg, 1000)
        (chunk,) = make_eager_chunks(msg, [1000])
        ignore = {"transfer_id"}
        for f in dataclasses.fields(packet):
            if f.name not in ignore:
                assert getattr(packet, f.name) == getattr(chunk, f.name), f.name

    def test_size_mismatch_is_still_refused(self, profiles):
        eng = flat(profiles).engine("node0")
        msg = eng.isend("node1", 1000)
        with pytest.raises(ProtocolError, match="sum to 999"):
            eng.submit_eager_chunks(msg, [(eng.machine.nics[0], 999)])

    def test_whole_eager_send_records(self, profiles):
        cluster = flat(profiles, strategy="single_rail")
        eng = cluster.engine("node0")
        cluster.session("node1").irecv()
        msg = eng.isend("node1", 1000)
        cluster.run()
        assert msg.status is MessageStatus.COMPLETE
        (packet,) = msg.transfers
        assert (packet.size, packet.offset, packet.chunk_count) == (1000, 0, 1)
        (rail,) = msg.rails_used
        assert rail in {n.qualified_name for n in eng.machine.nics}
        assert msg.chunk_sizes == (1000,)
