"""Wire-path delivery integrity: stamps, dedup, retry-race cancellation."""

import pytest

from repro.api import ClusterBuilder, FaultSchedule
from repro.core.invariants import InvariantViolation
from repro.networks import nic as nic_module
from repro.networks.transfer import TransferKind, wire_checksum


def paper_pair(**builder_kw):
    builder = ClusterBuilder.paper_testbed(strategy="hetero_split")
    for name, value in builder_kw.items():
        getattr(builder, name)(**value)
    cluster = builder.build()
    return cluster, *cluster.sessions("node0", "node1")


def flapping_pair(**builder_kw):
    """``paper_pair`` with the fast rail flapping and retries on."""
    schedule = FaultSchedule(seed=11).flapping(
        "node0.myri10g0", period=400.0, duty=0.5, start=100.0, cycles=4
    )
    return paper_pair(
        faults={"schedule": schedule}, resilience={"timeout": "200us"},
        **builder_kw,
    )


def stamped_sends(cluster, sender, receiver, sizes):
    """Send ``sizes`` to node1, run to drain; return every transfer."""
    msgs = []
    for size in sizes:
        receiver.irecv(source="node0")
        msgs.append(sender.isend("node1", size))
    cluster.run()
    assert all(msg.t_complete is not None for msg in msgs)
    return [t for msg in msgs for t in msg.transfers]


class TestWireStamps:
    """The invariant monitor verifies checksums at ``on_delivery``, so
    ``Nic.submit`` stamps one exactly while an ``on_delivery``
    subscriber is there; the sequence number is stamped always."""

    #: a 4 MiB ``hetero_split`` send, and sends whose chunks are retried
    #: while the fast rail flaps
    SCENARIOS = [(paper_pair, ["4M"]), (flapping_pair, ["4K", "64K", "1M", "4M"])]

    def test_every_transfer_carries_seq_and_checksum(self):
        for make, sizes in self.SCENARIOS:
            cluster, sender, receiver = make(invariants={})
            transfers = stamped_sends(cluster, sender, receiver, sizes)
            if make is flapping_pair:
                assert any(t.retry_of is not None for t in transfers)
            for t in transfers:
                assert t.seq_no is not None
                assert t.checksum == wire_checksum(t)

    def test_without_a_monitor_no_checksum_is_computed(self, monkeypatch):
        def never(transfer):
            raise AssertionError("wire_checksum called with no monitor")

        monkeypatch.setattr(nic_module, "wire_checksum", never)
        for make, sizes in self.SCENARIOS:
            cluster, sender, receiver = make()
            assert cluster.invariants is None
            transfers = stamped_sends(cluster, sender, receiver, sizes)
            if make is flapping_pair:
                assert any(t.retry_of is not None for t in transfers)
            for t in transfers:
                assert t.seq_no is not None
                assert t.checksum is None

    def test_armed_monitor_catches_a_rewire_in_the_nic_queue(self, monkeypatch):
        """A chunk rewired after ``submit`` stamped it, before its
        transmit starts, arrives with a stale checksum."""
        rdv_start = nic_module.Nic._rdv_start

        def rewired(self, transfer, core):
            transfer.chunk_index += 7
            rdv_start(self, transfer, core)

        monkeypatch.setattr(nic_module.Nic, "_rdv_start", rewired)
        cluster, sender, receiver = paper_pair(invariants={})
        receiver.irecv(source="node0")
        sender.isend("node1", "4M")
        with pytest.raises(InvariantViolation, match="chunk-checksum"):
            cluster.run()

    def test_seq_numbers_strictly_increase_per_message(self):
        cluster, sender, receiver = paper_pair()
        receiver.irecv(source="node0")
        msg = sender.isend("node1", "4M")
        cluster.run()
        seqs = [t.seq_no for t in msg.transfers]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_messages_number_independently(self):
        cluster, sender, receiver = paper_pair()
        for tag in range(2):
            receiver.irecv(tag=tag)
            sender.isend("node1", "4K", tag=tag)
        cluster.run()
        for engine in cluster.engines.values():
            for msg in engine.sent_log:
                assert min(t.seq_no for t in msg.transfers) == 0


class TestDuplicateSuppression:
    def test_redelivery_is_suppressed_not_summed(self):
        cluster, sender, receiver = paper_pair()
        receiver.irecv(source="node0")
        msg = sender.isend("node1", "4K")
        cluster.run()
        assert msg.t_complete is not None
        bytes_before = msg.bytes_received
        eager = next(t for t in msg.transfers if t.kind is TransferKind.EAGER)
        # Replay the delivery — a late original racing a retry would look
        # exactly like this on the receive path.
        cluster.engine("node1")._on_eager(eager)
        assert msg.bytes_received == bytes_before
        assert msg.duplicates_suppressed == 1
        assert cluster.engine("node1").duplicates_suppressed == 1

    def test_chunk_key_is_stable_across_retries(self):
        cluster, sender, receiver = paper_pair()
        receiver.irecv(source="node0")
        msg = sender.isend("node1", "4K")
        cluster.run()
        eager = next(t for t in msg.transfers if t.kind is TransferKind.EAGER)
        clone = cluster.engine("node0")._clone_transfer(eager)
        assert clone.chunk_key == eager.chunk_key
        assert clone.retry_of == eager.transfer_id


class TestSupersededCancellation:
    """Satellite regression: a retry cancels its original's pending wire
    event, so the late original can never race the retry into the
    receiver's accounting."""

    def test_retry_mid_flight_cancels_original_delivery(self):
        cluster, sender, receiver = paper_pair(
            invariants={}, resilience={"timeout": "500us", "max_retries": 4}
        )
        engine = cluster.engine("node0")
        receiver.irecv(source="node0")
        msg = sender.isend("node1", "4K")
        state = {}

        def probe():
            eager = next(
                (t for t in msg.transfers if t.kind is TransferKind.EAGER),
                None,
            )
            if state or (eager is not None and eager.t_delivered is not None):
                return
            if eager is not None and eager.wire_event is not None:
                state["old"] = eager
                assert engine._resubmit_transfer(eager, "test-race")
            else:
                cluster.sim.schedule(0.05, probe)

        cluster.sim.schedule(0.05, probe)
        cluster.run()
        old = state["old"]
        assert old.superseded and old.retried
        assert old.wire_event is None
        assert engine.deliveries_cancelled == 1
        assert engine.retries_issued == 1
        # Exactly-once: the retry delivered, the original never landed.
        assert msg.t_complete is not None
        assert msg.bytes_received == msg.size
        assert msg.duplicates_suppressed == 0
        cluster.check_drain()


class TestDrainAccounting:
    def test_clean_run_drains_quietly(self):
        cluster, sender, receiver = paper_pair(invariants={})
        receiver.irecv(source="node0")
        sender.isend("node1", "1M")
        cluster.run()
        assert cluster.drain_report() == []
        cluster.check_drain()

    def test_unmatched_rendezvous_is_a_diagnosed_hang(self):
        cluster, sender, receiver = paper_pair(invariants={})
        msg = sender.isend("node1", "4M")  # no matching irecv: REQ parks
        cluster.run()
        report = cluster.drain_report()
        assert len(report) == 1
        assert f"msg {msg.msg_id}" in report[0]
        with pytest.raises(InvariantViolation, match="drain-no-stuck"):
            cluster.check_drain()

    def test_check_drain_without_monitor_still_guards(self):
        cluster, sender, receiver = paper_pair()
        assert cluster.invariants is None
        sender.isend("node1", "4M")
        cluster.run()
        with pytest.raises(InvariantViolation, match="drain-no-stuck"):
            cluster.check_drain()

    @pytest.mark.parametrize("monitor", [True, False])
    def test_both_audits_write_one_diagnosis(self, monitor):
        cluster, sender, receiver = paper_pair(
            invariants={"enabled": monitor}
        )
        sender.isend("node1", "4M")
        cluster.run()
        (stuck,) = cluster.drain_report()
        with pytest.raises(InvariantViolation) as err:
            cluster.check_drain()
        assert err.value.invariant == "drain-no-stuck"
        assert err.value.detail == (
            f"1 message(s) non-terminal at drain: {stuck}"
        )

    def test_drain_stuck_degrades_with_diagnosis(self):
        cluster, sender, receiver = paper_pair(invariants={})
        msg = sender.isend("node1", "4M")
        cluster.run()
        drained = cluster.drain_stuck()
        assert drained == [msg]
        assert msg.outcome is not None
        assert "stuck at drain" in msg.outcome.reason
        cluster.check_drain()  # degraded is terminal: audit now passes
