"""Unit tests for Message accounting and RecvHandle matching."""

import pytest

from repro.core.packets import Message, MessageStatus, RecvHandle
from repro.util.errors import ProtocolError


def msg(size=1024, src="a", dest="b", tag=0):
    return Message(src=src, dest=dest, size=size, tag=tag)


class TestMessageAccounting:
    def test_single_chunk_completes(self):
        m = msg(100)
        m.expect_chunks(1)
        assert m.account_chunk(100) is True
        assert m.chunks_received == 1
        assert m.bytes_received == 100

    def test_multi_chunk_completes_on_last(self):
        m = msg(100)
        m.expect_chunks(3)
        assert m.account_chunk(40) is False
        assert m.account_chunk(30) is False
        assert m.account_chunk(30) is True

    def test_chunk_before_expect_raises(self):
        with pytest.raises(ProtocolError):
            msg().account_chunk(10)

    def test_too_many_chunks_raises(self):
        m = msg(10)
        m.expect_chunks(1)
        m.account_chunk(10)
        with pytest.raises(ProtocolError):
            m.account_chunk(1)

    def test_byte_mismatch_raises(self):
        m = msg(100)
        m.expect_chunks(2)
        m.account_chunk(40)
        with pytest.raises(ProtocolError):
            m.account_chunk(40)  # only 80 of 100

    def test_changing_chunk_count_raises(self):
        m = msg(100)
        m.expect_chunks(2)
        with pytest.raises(ProtocolError):
            m.expect_chunks(3)

    def test_re_expecting_same_count_ok(self):
        m = msg(100)
        m.expect_chunks(2)
        m.expect_chunks(2)

    def test_zero_chunks_rejected(self):
        with pytest.raises(ProtocolError):
            msg().expect_chunks(0)

    def test_negative_size_rejected(self):
        with pytest.raises(ProtocolError):
            msg(size=-1)

    def test_latency_none_until_complete(self):
        m = msg()
        assert m.latency is None
        m.t_post, m.t_complete = 10.0, 25.0
        assert m.latency == 15.0

    def test_ids_are_unique(self):
        assert msg().msg_id != msg().msg_id

    def test_equality_is_identity_and_messages_hash(self):
        m = msg()
        twin = Message(src=m.src, dest=m.dest, size=m.size, tag=m.tag, msg_id=m.msg_id)
        assert m == m and m != twin
        assert {m: "m", twin: "twin"}[m] == "m"
        h = RecvHandle(node="b", source="a", tag=5)
        assert h != RecvHandle(node="b", source="a", tag=5)
        assert h in {h}


class TestRailNotes:
    def test_repeat_note_keeps_its_first_stamp(self):
        m = msg()
        m.note_rail_avoided("node0.myri10g0", "down", 1.0)
        m.note_rail_avoided("node0.myri10g0", "down", 2.0)
        m.note_rail_avoided("node0.quadrics1", "down")
        m.note_rail_avoided("node0.quadrics1", "down")
        assert m.rail_notes == (
            "node0.myri10g0: down (first at t=1.00us)",
            "node0.quadrics1: down",
        )

    @pytest.mark.parametrize(
        "first, second", [("down (failover)", "down"), ("down", "down (failover)")]
    )
    def test_a_reason_sharing_a_prefix_is_its_own_note(self, first, second):
        m = msg()
        m.note_rail_avoided("node0.myri10g0", first, 1.0)
        m.note_rail_avoided("node0.myri10g0", second, 2.0)
        assert m.rail_notes == (
            f"node0.myri10g0: {first} (first at t=1.00us)",
            f"node0.myri10g0: {second} (first at t=2.00us)",
        )


A, B, C = (0, 10), (10, 10), (20, 10)


class TestDeliveryRegistration:
    @pytest.mark.parametrize(
        "deliveries, first_time",
        [
            ([A, A], [True, False]),
            ([A, B, A], [True, True, False]),
            ([A, B, B], [True, True, False]),
            ([B, A, B], [True, True, False]),
            ([B, A, A], [True, True, False]),
            ([A, B, C, B, A, C], [True, True, True, False, False, False]),
        ],
    )
    def test_duplicates_are_suppressed_and_counted(self, deliveries, first_time):
        m = msg(30)
        assert [m.register_delivery(key) for key in deliveries] == first_time
        assert m.duplicates_suppressed == first_time.count(False)

    def test_interval_set_is_built_for_a_second_interval_only(self):
        m = msg(30)
        m.register_delivery(A)
        m.register_delivery(A)
        assert m.delivered_intervals is None
        m.register_delivery(B)
        assert m.delivered_intervals == {A, B}


class TestRecvHandleMatching:
    def test_wildcard_matches_anything(self):
        h = RecvHandle(node="b")
        assert h.matches(msg(src="a", tag=7))
        assert h.matches(msg(src="z", tag=0))

    def test_source_filter(self):
        h = RecvHandle(node="b", source="a")
        assert h.matches(msg(src="a"))
        assert not h.matches(msg(src="c"))

    def test_tag_filter(self):
        h = RecvHandle(node="b", tag=5)
        assert h.matches(msg(tag=5))
        assert not h.matches(msg(tag=6))

    def test_combined_filter(self):
        h = RecvHandle(node="b", source="a", tag=5)
        assert h.matches(msg(src="a", tag=5))
        assert not h.matches(msg(src="a", tag=6))
        assert not h.matches(msg(src="c", tag=5))
