"""Integration tests for the NIC send pipelines and state machine."""

import pytest

from repro.networks import Transfer, TransferKind
from repro.util.errors import ConfigurationError, SchedulingError, SimulationError

from tests.conftest import wire_pair
from repro.networks import MxDriver, ElanDriver, Nic


def eager(size, msg_id=0, **kw):
    return Transfer(kind=TransferKind.EAGER, size=size, msg_id=msg_id, **kw)


def rdv_data(size, msg_id=0, **kw):
    return Transfer(kind=TransferKind.RDV_DATA, size=size, msg_id=msg_id, **kw)


class TestEagerPipeline:
    def test_delivery_time_matches_model(self, sim, single_rail_pair):
        node_a, node_b = single_rail_pair
        nic = node_a.nics[0]
        p = nic.profile
        t = eager(4096)
        nic.submit(t, node_a.cores[0])
        sim.run()
        expected = p.post_overhead + p.pio_copy_time(4096) + p.wire_latency
        assert t.t_delivered == pytest.approx(expected)

    def test_send_core_occupied_for_post_plus_copy(self, sim, single_rail_pair):
        node_a, _ = single_rail_pair
        nic, core = node_a.nics[0], node_a.cores[0]
        p = nic.profile
        nic.submit(eager(8192), core)
        sim.run()
        assert core.busy_time == pytest.approx(p.eager_send_cpu(8192))

    def test_two_eager_sends_same_core_serialize(self, sim, paper_pair):
        """One core driving two rails: PIO copies serialize (Fig. 4a)."""
        node_a, node_b = paper_pair
        mx, elan = node_a.nics
        core = node_a.cores[0]
        t1, t2 = eager(8192, msg_id=1), eager(8192, msg_id=2)
        mx.submit(t1, core)
        elan.submit(t2, core)
        sim.run()
        # t2's wire phase cannot start before t1's copy released the core.
        t1_copy_end = t1.t_delivered - mx.profile.wire_latency
        assert t2.t_wire_start >= t1_copy_end - 1e-9

    def test_two_eager_sends_two_cores_overlap(self, sim, paper_pair):
        """Two cores driving two rails: copies overlap (Fig. 4c)."""
        node_a, _ = paper_pair
        mx, elan = node_a.nics
        t1, t2 = eager(8192, msg_id=1), eager(8192, msg_id=2)
        mx.submit(t1, node_a.cores[0])
        elan.submit(t2, node_a.cores[1])
        sim.run()
        # Both wire phases start within the post overhead of each other.
        assert abs(t1.t_wire_start - t2.t_wire_start) <= 0.1

    def test_oversized_eager_rejected(self, sim, single_rail_pair):
        node_a, _ = single_rail_pair
        nic = node_a.nics[0]
        with pytest.raises(SchedulingError):
            nic.submit(eager(nic.profile.eager_limit + 1), node_a.cores[0])

    def test_unwired_nic_rejected(self, sim):
        from repro.hardware import Machine

        node = Machine(sim, "lonely")
        nic = Nic(node, MxDriver())
        with pytest.raises(ConfigurationError):
            nic.submit(eager(16), node.cores[0])

    def test_foreign_core_rejected(self, sim, paper_pair):
        node_a, node_b = paper_pair
        with pytest.raises(SchedulingError):
            node_a.nics[0].submit(eager(16), node_b.cores[0])


class TestRdvPipeline:
    def test_delivery_time_matches_model(self, sim, single_rail_pair):
        node_a, _ = single_rail_pair
        nic = node_a.nics[0]
        p = nic.profile
        size = 1 << 20
        t = rdv_data(size)
        nic.submit(t, node_a.cores[0])
        sim.run()
        expected = p.rdv_send_cpu() + p.rdv_nic_time(size) + p.wire_latency
        assert t.t_delivered == pytest.approx(expected)

    def test_cpu_cost_is_size_independent(self, sim, single_rail_pair):
        node_a, _ = single_rail_pair
        nic, core = node_a.nics[0], node_a.cores[0]
        nic.submit(rdv_data(8 << 20), core)
        sim.run()
        assert core.busy_time == pytest.approx(nic.profile.rdv_send_cpu())

    def test_two_dma_on_one_nic_serialize(self, sim, single_rail_pair):
        node_a, _ = single_rail_pair
        nic = node_a.nics[0]
        size = 1 << 20
        t1, t2 = rdv_data(size, msg_id=1), rdv_data(size, msg_id=2)
        nic.submit(t1, node_a.cores[0])
        nic.submit(t2, node_a.cores[1])
        sim.run()
        assert t2.t_wire_start >= t1.t_wire_start + nic.profile.rdv_nic_time(size) - 1e-9

    def test_dma_frees_core_during_transfer(self, sim, single_rail_pair):
        """The core is released while the NIC streams — DMA, not PIO."""
        node_a, _ = single_rail_pair
        nic, core = node_a.nics[0], node_a.cores[0]
        nic.submit(rdv_data(8 << 20), core)
        sim.schedule(5.0, lambda: core.run(1.0))  # core is free at t=5
        sim.run()
        # The extra work finished long before the DMA drained.
        assert core.busy_time == pytest.approx(nic.profile.rdv_send_cpu() + 1.0)


class TestControlPipeline:
    def test_control_packet_time(self, sim, single_rail_pair):
        node_a, _ = single_rail_pair
        nic = node_a.nics[0]
        p = nic.profile
        t = Transfer(kind=TransferKind.RDV_REQ, size=0, msg_id=0)
        nic.submit(t, node_a.cores[0])
        sim.run()
        assert t.t_delivered == pytest.approx(p.post_overhead + p.wire_latency)

    def test_is_control_classification(self):
        assert TransferKind.RDV_REQ.is_control
        assert TransferKind.RDV_ACK.is_control
        assert not TransferKind.EAGER.is_control
        assert not TransferKind.RDV_DATA.is_control


class TestNicState:
    def test_fresh_nic_is_idle(self, sim, single_rail_pair):
        node_a, _ = single_rail_pair
        assert node_a.nics[0].is_idle

    def test_busy_until_predicts_dma_drain(self, sim, single_rail_pair):
        node_a, _ = single_rail_pair
        nic = node_a.nics[0]
        size = 1 << 20
        nic.submit(rdv_data(size), node_a.cores[0])
        predicted = nic.busy_until
        assert predicted == pytest.approx(nic.profile.rdv_nic_time(size))
        assert not nic.is_idle

    def test_busy_until_accumulates_queue(self, sim, single_rail_pair):
        node_a, _ = single_rail_pair
        nic = node_a.nics[0]
        size = 1 << 20
        nic.submit(rdv_data(size, msg_id=1), node_a.cores[0])
        nic.submit(rdv_data(size, msg_id=2), node_a.cores[1])
        assert nic.busy_until == pytest.approx(2 * nic.profile.rdv_nic_time(size))

    def test_inject_busy_occupies_tx(self, sim, single_rail_pair):
        node_a, _ = single_rail_pair
        nic = node_a.nics[0]
        nic.inject_busy(500.0)
        assert nic.busy_until == pytest.approx(500.0)
        t = rdv_data(1 << 20)
        nic.submit(t, node_a.cores[0])
        sim.run()
        assert t.t_wire_start >= 500.0

    def test_negative_injection_rejected(self, sim, single_rail_pair):
        node_a, _ = single_rail_pair
        with pytest.raises(SchedulingError):
            node_a.nics[0].inject_busy(-1.0)

    def test_counters(self, sim, single_rail_pair):
        node_a, _ = single_rail_pair
        nic = node_a.nics[0]
        nic.submit(eager(100, msg_id=1), node_a.cores[0])
        nic.submit(eager(200, msg_id=2), node_a.cores[0])
        sim.run()
        assert nic.bytes_sent == 300
        assert nic.transfers_sent == 2

    def test_utilization_during_dma(self, sim, single_rail_pair):
        node_a, _ = single_rail_pair
        nic = node_a.nics[0]
        size = 1 << 20
        nic.submit(rdv_data(size), node_a.cores[0])
        sim.run()
        dma = nic.profile.rdv_nic_time(size)
        # NIC was busy for the DMA out of the whole run window.
        expected = dma / sim.now
        assert nic.utilization() == pytest.approx(expected, rel=1e-6)


class TxLog:
    """Every transmit-engine interval a NIC reports, in emission order."""

    def __init__(self):
        self.intervals = []

    def on_tx(self, nic, transfer, start, now):
        self.intervals.append((start, now, transfer.kind.value, transfer.aborted))

    def on_busy(self, device, start, now, label):
        self.intervals.append((start, now, "background", False))


class TestBusyTime:
    def test_fresh_nic_has_no_busy_time(self, sim, single_rail_pair):
        nic = single_rail_pair[0].nics[0]
        assert nic.busy_time == 0.0
        assert nic.utilization() == 0.0

    def test_sums_every_interval_in_record_order(self, sim, single_rail_pair):
        """Background work, transfers and a DMA aborted mid-transmit (the
        engine stays held until its scheduled end) all count."""
        node_a, _ = single_rail_pair
        nic = node_a.nics[0]
        log = TxLog()
        nic.hooks.subscribe(log)
        nic.inject_busy(25.0)
        nic.submit(eager(4096, msg_id=1), node_a.cores[0])
        doomed = rdv_data(1 << 20, msg_id=2)
        nic.submit(doomed, node_a.cores[1])
        nic.submit(
            Transfer(kind=TransferKind.RDV_REQ, size=0, msg_id=3), node_a.cores[0]
        )
        sim.schedule(100.0, nic.fail)
        sim.run()
        assert doomed.aborted and doomed.t_wire_start < 100.0 < doomed.t_tx_done
        # the control post takes no transmit-engine time and goes first
        assert [label for _, _, label, _ in log.intervals] == [
            "rdv-req", "background", "eager", "rdv-data",
        ]
        assert log.intervals[-1][3]  # the aborted DMA
        expected = 0.0
        for start, end, _, _ in log.intervals:
            expected += end - start
        assert nic.busy_time == expected
        assert nic.utilization() == nic.busy_time / sim.now


class TestRxHandler:
    def test_rx_handler_invoked_on_delivery(self, sim, single_rail_pair):
        node_a, node_b = single_rail_pair
        got = []
        node_b.nics[0].rx_handler = got.append
        t = eager(64)
        node_a.nics[0].submit(t, node_a.cores[0])
        sim.run()
        assert got == [t]

    def test_done_event_returned(self, sim, single_rail_pair):
        node_a, node_b = single_rail_pair
        t = eager(64)
        done = node_a.nics[0].submit(t, node_a.cores[0])
        fired = []
        node_b.nics[0].rx_handler = lambda tr: tr.done.trigger(tr)
        done.subscribe(sim, fired.append)
        sim.run()
        assert fired == [t]


class TestTransmitSlotMisuse:
    """The callback send pipelines keep the transmit slot's release checks."""

    def test_releasing_ungranted_slot_rejected(self, sim, single_rail_pair):
        node_a, _ = single_rail_pair
        nic = node_a.nics[0]
        nic.submit(rdv_data(1 << 20), node_a.cores[0])
        sim.run(until=50.0)  # the DMA holds the transmit engine now
        assert nic._tx.in_use == 1
        queued = nic._tx.acquire(lambda req: None)
        with pytest.raises(SimulationError, match="ungranted"):
            nic._tx.release(queued)

    def test_double_release_rejected(self, sim, single_rail_pair):
        node_a, _ = single_rail_pair
        nic = node_a.nics[0]
        granted = []
        nic._tx.acquire(granted.append)
        sim.run()
        (req,) = granted
        nic._tx.release(req)
        with pytest.raises(SimulationError, match="double release"):
            nic._tx.release(req)
