"""Tests for the Session API, including process-style wait."""

import pytest

from repro.api import ClusterBuilder
from repro.core.sampling import ProfileStore
from repro.networks import rail_profile
from repro.util.units import KiB, MiB


@pytest.fixture(scope="module")
def profiles():
    return ProfileStore.sample_rails(
        [rail_profile("myri10g"), rail_profile("quadrics")]
    )


@pytest.fixture
def cluster(profiles):
    return (
        ClusterBuilder.paper_testbed(strategy="hetero_split")
        .sampling(profiles=profiles)
        .build()
    )


class TestSessionBasics:
    def test_node_property(self, cluster):
        assert cluster.session("node0").node == "node0"

    def test_isend_parses_size_strings(self, cluster):
        a, b = cluster.session("node0"), cluster.session("node1")
        b.irecv()
        m = a.isend("node1", "2K")
        assert m.size == 2048


class TestProcessStyle:
    def test_wait_returns_completed_message(self, cluster):
        a, b = cluster.session("node0"), cluster.session("node1")
        sim = cluster.sim
        results = []

        def receiver():
            h = b.irecv(source="node0")
            msg = yield from b.wait(h)
            results.append((msg.size, sim.now))

        def sender():
            m = a.isend("node1", 4 * KiB)
            msg = yield from a.wait(m)
            results.append(("sender-saw", msg.size))

        sim.spawn(receiver())
        sim.spawn(sender())
        cluster.run()
        assert ("sender-saw", 4 * KiB) in results
        recv_entries = [r for r in results if r[0] == 4 * KiB]
        assert len(recv_entries) == 1
        assert recv_entries[0][1] > 0  # completed at a positive instant

    def test_process_style_ping_pong(self, cluster):
        a, b = cluster.session("node0"), cluster.session("node1")
        sim = cluster.sim
        rtts = []

        def pong_side():
            for _ in range(3):
                h = b.irecv(source="node0")
                yield from b.wait(h)
                b.isend("node0", 1 * KiB)

        def ping_side():
            for _ in range(3):
                t0 = sim.now
                a.isend("node1", 1 * KiB)
                h = a.irecv(source="node1")
                yield from a.wait(h)
                rtts.append(sim.now - t0)

        sim.spawn(pong_side())
        sim.spawn(ping_side())
        cluster.run()
        assert len(rtts) == 3
        # Steady state: identical round trips (deterministic simulator).
        assert rtts[1] == pytest.approx(rtts[2])
