"""Unit tests for the rendezvous/eager wire-format constructors."""

import pytest

from repro.core.packets import Message
from repro.core.rendezvous import (
    make_aggregated_eager,
    make_eager_chunks,
    make_rdv_ack,
    make_rdv_chunks,
    make_rdv_req,
)
from repro.networks import TransferKind
from repro.util.errors import ProtocolError


def msg(size=1024, dest="b", tag=0):
    return Message(src="a", dest=dest, size=size, tag=tag)


class TestControlPackets:
    def test_req_carries_message_and_zero_size(self):
        m = msg()
        t = make_rdv_req(m)
        assert t.kind is TransferKind.RDV_REQ
        assert t.size == 0
        assert t.message is m
        assert t.messages == ()
        assert t.msg_id == m.msg_id

    def test_ack_mirrors_req(self):
        m = msg()
        t = make_rdv_ack(m)
        assert t.kind is TransferKind.RDV_ACK
        assert t.message is m
        assert t.messages == ()


class TestDataChunks:
    def test_offsets_are_cumulative(self):
        m = msg(100)
        chunks = make_rdv_chunks(m, [60, 40])
        assert [c.offset for c in chunks] == [0, 60]
        assert [c.size for c in chunks] == [60, 40]
        assert all(c.chunk_count == 2 for c in chunks)
        assert [c.chunk_index for c in chunks] == [0, 1]

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            make_rdv_chunks(msg(100), [60, 60])

    def test_nonpositive_chunk_rejected(self):
        with pytest.raises(ProtocolError):
            make_rdv_chunks(msg(100), [100, 0])

    def test_eager_chunks_same_rules(self):
        m = msg(100)
        chunks = make_eager_chunks(m, [50, 50])
        assert all(c.kind is TransferKind.EAGER for c in chunks)
        with pytest.raises(ProtocolError):
            make_eager_chunks(msg(100), [10, 80])

    def test_zero_size_message_single_chunk_allowed(self):
        m = msg(0)
        chunks = make_eager_chunks(m, [0])
        assert chunks[0].size == 0


class TestAggregation:
    def test_packet_carries_all_messages(self):
        ms = [msg(10), msg(20), msg(30)]
        t = make_aggregated_eager(ms)
        assert t.size == 60
        assert t.messages == tuple(ms)
        assert t.message is ms[0]
        assert t.aggregated_ids == tuple(m.msg_id for m in ms)

    def test_mixed_destinations_rejected(self):
        with pytest.raises(ProtocolError):
            make_aggregated_eager([msg(10, dest="b"), msg(10, dest="c")])

    def test_empty_rejected(self):
        with pytest.raises(ProtocolError):
            make_aggregated_eager([])
