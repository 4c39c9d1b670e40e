"""Protocol-sequence tests: tricky interleavings of the rendezvous and
eager state machines the figure-level tests never hit."""

import pytest

from repro.api import ClusterBuilder
from repro.bench.runners import default_profiles
from repro.core import MessageStatus
from repro.util.errors import ProtocolError
from repro.util.units import KiB, MiB


@pytest.fixture(scope="module")
def profiles():
    return default_profiles()


@pytest.fixture
def cluster(profiles):
    return (
        ClusterBuilder.paper_testbed(strategy="hetero_split")
        .sampling(profiles=profiles)
        .build()
    )


class TestRendezvousSequences:
    def test_two_pending_rdv_matched_by_posting_order(self, cluster):
        """Two rendezvous requests stall on receives; each later post_recv
        unblocks exactly one (matching by tag)."""
        a, b = cluster.session("node0"), cluster.session("node1")
        sim = cluster.sim
        m1 = a.isend("node1", 1 * MiB, tag=1)
        m2 = a.isend("node1", 1 * MiB, tag=2)
        sim.run(until=2000.0)
        assert m1.status is MessageStatus.RDV_REQUESTED
        assert m2.status is MessageStatus.RDV_REQUESTED
        b.irecv(tag=2)
        cluster.run()
        assert m2.status is MessageStatus.COMPLETE
        assert m1.status is MessageStatus.RDV_REQUESTED
        b.irecv(tag=1)
        cluster.run()
        assert m1.status is MessageStatus.COMPLETE

    def test_wildcard_recv_unblocks_rendezvous(self, cluster):
        a, b = cluster.session("node0"), cluster.session("node1")
        m = a.isend("node1", 1 * MiB, tag=42)
        cluster.sim.run(until=100.0)
        h = b.irecv()  # no source, no tag
        cluster.run()
        assert m.status is MessageStatus.COMPLETE
        assert h.matched is m

    def test_interleaved_bidirectional_rendezvous(self, cluster):
        a, b = cluster.session("node0"), cluster.session("node1")
        a.irecv(source="node1")
        b.irecv(source="node0")
        m_ab = a.isend("node1", 2 * MiB)
        m_ba = b.isend("node0", 3 * MiB)
        cluster.run()
        assert m_ab.status is MessageStatus.COMPLETE
        assert m_ba.status is MessageStatus.COMPLETE
        assert m_ab.bytes_received == 2 * MiB
        assert m_ba.bytes_received == 3 * MiB

    def test_eager_overtakes_stalled_rendezvous(self, cluster):
        """A stalled rendezvous must not head-of-line-block later eager
        traffic on other tags."""
        a, b = cluster.session("node0"), cluster.session("node1")
        big = a.isend("node1", 4 * MiB, tag=1)   # no recv posted yet
        b.irecv(tag=2)
        small = a.isend("node1", 4 * KiB, tag=2)
        cluster.sim.run(until=5000.0)
        assert small.status is MessageStatus.COMPLETE
        assert big.status is MessageStatus.RDV_REQUESTED
        b.irecv(tag=1)
        cluster.run()
        assert big.status is MessageStatus.COMPLETE


class TestReceiveMatching:
    def test_fifo_matching_among_equal_recvs(self, cluster):
        """Two identical wildcard receives match completions in post order."""
        a, b = cluster.session("node0"), cluster.session("node1")
        h1 = b.irecv(source="node0")
        h2 = b.irecv(source="node0")
        m1 = a.isend("node1", 1 * KiB, tag=1)
        cluster.run()
        m2 = a.isend("node1", 1 * KiB, tag=2)
        cluster.run()
        assert h1.matched is m1
        assert h2.matched is m2

    def test_unexpected_queue_preserves_order(self, cluster):
        a, b = cluster.session("node0"), cluster.session("node1")
        m1 = a.isend("node1", 1 * KiB, tag=1)
        m2 = a.isend("node1", 1 * KiB, tag=2)
        cluster.run()
        # Both completed unexpectedly; wildcard recvs drain FIFO.
        h1 = b.irecv()
        h2 = b.irecv()
        assert h1.matched in (m1, m2)
        assert h2.matched is (m2 if h1.matched is m1 else m1)

    def test_tag_specific_recv_skips_nonmatching_unexpected(self, cluster):
        a, b = cluster.session("node0"), cluster.session("node1")
        m1 = a.isend("node1", 1 * KiB, tag=1)
        cluster.run()
        h9 = b.irecv(tag=9)
        assert h9.matched is None  # still pending
        m9 = a.isend("node1", 1 * KiB, tag=9)
        cluster.run()
        assert h9.matched is m9
        assert b.irecv(tag=1).matched is m1


class TestRecvCancellation:
    def test_cancelled_recv_never_matches(self, cluster):
        a, b = cluster.session("node0"), cluster.session("node1")
        h = b.irecv(tag=7)
        assert b.cancel(h) is True
        m = a.isend("node1", 1 * KiB, tag=7)
        cluster.run()
        assert h.matched is None
        # The message completed unexpectedly and matches a fresh recv.
        assert b.irecv(tag=7).matched is m

    def test_cancel_after_match_returns_false(self, cluster):
        a, b = cluster.session("node0"), cluster.session("node1")
        h = b.irecv(tag=8)
        a.isend("node1", 1 * KiB, tag=8)
        cluster.run()
        assert b.cancel(h) is False
        assert h.matched is not None

    def test_cancel_foreign_handle_raises(self, cluster):
        a, b = cluster.session("node0"), cluster.session("node1")
        h = b.irecv(tag=99)
        with pytest.raises(ProtocolError):
            a.cancel(h)
        assert b.cancel(h) is True

    def test_cancelled_recv_keeps_rendezvous_waiting(self, cluster):
        a, b = cluster.session("node0"), cluster.session("node1")
        h = b.irecv(tag=11)
        assert b.cancel(h)
        m = a.isend("node1", 1 * MiB, tag=11)
        cluster.sim.run(until=cluster.sim.now + 3000.0)
        assert m.status is MessageStatus.RDV_REQUESTED
        b.irecv(tag=11)
        cluster.run()
        assert m.status is MessageStatus.COMPLETE

    def test_cancel_does_not_withdraw_a_rendezvous_ack(self, cluster):
        """A post releases the REQ parked before it at once; cancelling the
        post leaves that ACK out, so the data flows and the message ends
        up unexpected, taken by the next matching post."""
        a, b = cluster.session("node0"), cluster.session("node1")
        m = a.isend("node1", 1 * MiB, tag=1)
        cluster.sim.run(until=cluster.sim.now + 3000.0)
        assert cluster.engines["node1"].matcher.pending()[2] == [m]
        h = b.irecv(tag=1)
        assert b.cancel(h) is True
        cluster.run()
        assert m.status is MessageStatus.COMPLETE
        assert h.matched is None
        assert b.irecv(tag=1).matched is m


class TestAccountingGuards:
    def test_double_chunk_completion_raises(self, cluster):
        """Feeding a duplicated chunk into the receive path is a loud
        protocol error, not silent corruption."""
        a, b = cluster.session("node0"), cluster.session("node1")
        b.irecv()
        m = a.isend("node1", 1 * KiB)
        cluster.run()
        with pytest.raises(ProtocolError):
            m.account_chunk(1 * KiB)
