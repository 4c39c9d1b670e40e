"""Tests for the per-message phase breakdown (obs.explain)."""

import pytest

from repro.api import ClusterBuilder
from repro.bench.runners import default_profiles
from repro.obs import explain
from repro.util.errors import ConfigurationError
from repro.util.units import KiB, MiB


@pytest.fixture(scope="module")
def cluster():
    return (
        ClusterBuilder.paper_testbed(strategy="hetero_split")
        .sampling(profiles=default_profiles())
        .build()
    )


def one_way(cluster, size, tag):
    a, b = cluster.session("node0"), cluster.session("node1")
    b.irecv(tag=tag)
    m = a.isend("node1", size, tag=tag)
    cluster.run()
    return m


class TestTransferRecording:
    def test_rdv_message_records_handshake_and_chunks(self, cluster):
        m = one_way(cluster, 4 * MiB, tag=1)
        kinds = sorted(t.kind.value for t in m.transfers)
        assert kinds == ["rdv-ack", "rdv-data", "rdv-data", "rdv-req"]
        data = [t for t in m.transfers if t.kind.value == "rdv-data"]
        assert sum(t.size for t in data) == 4 * MiB

    def test_eager_message_records_single_packet(self, cluster):
        m = one_way(cluster, 2 * KiB, tag=2)
        assert len(m.transfers) == 1
        assert m.transfers[0].size == 2 * KiB

    def test_aggregated_messages_share_the_packet(self):
        cluster = (
            ClusterBuilder.paper_testbed(strategy="aggregate")
            .sampling(profiles=default_profiles())
            .build()
        )
        a = cluster.session("node0")
        m1 = a.isend("node1", 1 * KiB, tag=1)
        m2 = a.isend("node1", 1 * KiB, tag=2)
        cluster.run()
        assert m1.transfers and m1.transfers[0] is m2.transfers[0]

    def test_timestamps_ordered_per_transfer(self, cluster):
        m = one_way(cluster, 1 * MiB, tag=3)
        for t in m.transfers:
            assert t.t_submit <= t.t_wire_start <= t.t_tx_done
            assert t.t_tx_done <= t.t_delivered <= t.t_complete


class TestExplainRendering:
    def test_report_contains_phases_and_rails(self, cluster):
        m = one_way(cluster, 4 * MiB, tag=4)
        text = explain(m)
        assert "rdv-req" in text and "rdv-data" in text
        assert "myri10g0" in text and "quadrics1" in text
        assert "latency" in text
        assert "queue" in text and "flight" in text

    def test_undispatched_message_rejected(self):
        from repro.core.packets import Message

        with pytest.raises(ConfigurationError):
            explain(Message(src="a", dest="b", size=10))
