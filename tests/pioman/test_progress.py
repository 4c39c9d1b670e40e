"""Tests for the PIOMan progress engine: rx serialization and offloading."""

import pytest

from repro.networks import Transfer, TransferKind
from repro.pioman import PiomanEngine, SendRequest
from repro.threading import MarcelScheduler

from tests.conftest import wire_pair
from repro.networks import rail_profile


def eager(size, msg_id=0):
    return Transfer(kind=TransferKind.EAGER, size=size, msg_id=msg_id)


@pytest.fixture
def rig(sim):
    """Paper testbed + pioman on both nodes."""
    node_a, node_b = wire_pair(
        sim, [rail_profile("myri10g"), rail_profile("quadrics")]
    )
    pio_a = PiomanEngine(node_a)
    pio_b = PiomanEngine(node_b)
    pio_a.bind()
    pio_b.bind()
    return node_a, node_b, pio_a, pio_b


class TestReceiveSide:
    def test_eager_completion_includes_recv_cpu(self, sim, rig):
        node_a, node_b, _, pio_b = rig
        nic = node_a.nics[0]
        p = nic.profile
        t = eager(4096)
        nic.submit(t, node_a.cores[0])
        sim.run()
        assert t.t_complete == pytest.approx(
            t.t_delivered + p.eager_recv_cpu(4096)
        )
        assert t.t_complete == pytest.approx(p.eager_oneway(4096))

    def test_control_completion_pays_detect_only(self, sim, rig):
        node_a, _, _, pio_b = rig
        nic = node_a.nics[0]
        t = Transfer(kind=TransferKind.RDV_REQ, size=0, msg_id=0)
        nic.submit(t, node_a.cores[0])
        sim.run()
        assert t.t_complete == pytest.approx(
            t.t_delivered + nic.profile.poll_detect
        )

    def test_simultaneous_receptions_serialize_on_poll_core(self, sim, rig):
        """Two rails delivering together: the poll core serializes copies —
        the receive half of the paper's §II-C observation."""
        node_a, node_b, _, pio_b = rig
        mx, elan = node_a.nics
        t1, t2 = eager(8192, 1), eager(8192, 2)
        mx.submit(t1, node_a.cores[0])
        elan.submit(t2, node_a.cores[1])
        sim.run()
        first, second = sorted([t1, t2], key=lambda t: t.t_complete)
        # The later completion waited for the earlier receive copy.
        rx_cost_second = (
            node_b.nic_by_name(second.nic_name.split(".")[1])
            .profile.eager_recv_cpu(second.size)
        )
        assert second.t_complete >= first.t_complete + rx_cost_second - 1e-6 or (
            second.t_delivered >= first.t_complete
        )
        # Poll core did both copies back to back.
        assert pio_b.events_detected == 2

    def test_rx_dispatch_hook_called(self, sim, rig):
        node_a, _, _, pio_b = rig
        got = []
        pio_b.rx_dispatch = lambda t, nic: got.append((t.msg_id, nic.name))
        node_a.nics[0].submit(eager(64, msg_id=7), node_a.cores[0])
        sim.run()
        assert got == [(7, node_a.nics[0].name)]


class TestAvailableCores:
    def test_idle_cores_listed_before_preemptable(self, sim, rig):
        node_a, _, pio_a, _ = rig
        marcel = pio_a.marcel
        marcel.spawn_compute(node_a.cores[3], work_us=None)
        sim.schedule(1.0, lambda: None)
        sim.run()
        avail = pio_a.available_cores(exclude=node_a.cores[0])
        assert [(c.core_id, p) for c, p in avail] == [(1, False), (2, False), (3, True)]

    def test_exclude_issuing_core(self, sim, rig):
        node_a, _, pio_a, _ = rig
        avail = pio_a.available_cores(exclude=node_a.cores[0])
        assert all(c is not node_a.cores[0] for c, _ in avail)


class TestSendOffloading:
    def test_remote_submission_starts_after_3us(self, sim, rig):
        """Fig. 7: registration, signal, remote pickup at TO = 3 µs."""
        node_a, _, pio_a, _ = rig
        mx, elan = node_a.nics
        reqs = [
            SendRequest(transfer=eager(4096, 1), nic=mx),
            SendRequest(transfer=eager(4096, 2), nic=elan),
        ]
        pio_a.register_sends(reqs, issuing_core=node_a.cores[0])
        sim.run()
        # First request picked locally at once; second on a remote core 3us later.
        assert reqs[0].t_picked == pytest.approx(0.0)
        assert reqs[0].picked_by_core == 0
        assert reqs[1].t_picked == pytest.approx(3.0)
        assert reqs[1].picked_by_core != 0
        assert pio_a.offloads == 1

    def test_parallel_offload_overlaps_pio_copies(self, sim, rig):
        """Two chunks on two cores: copies overlap (the Fig. 4c win)."""
        node_a, _, pio_a, _ = rig
        mx, elan = node_a.nics
        t1, t2 = eager(16384, 1), eager(16384, 2)
        pio_a.register_sends(
            [SendRequest(t1, mx), SendRequest(t2, elan)],
            issuing_core=node_a.cores[0],
        )
        sim.run()
        # t2's copy started before t1's copy finished.
        assert t2.t_wire_start < t1.t_wire_start + mx.profile.pio_setup + 16384 / mx.profile.pio_rate

    def test_no_idle_core_falls_back_to_issuing_core(self, sim, rig):
        node_a, _, pio_a, _ = rig
        marcel = pio_a.marcel
        for cid in (1, 2, 3):
            marcel.spawn_compute(node_a.cores[cid], work_us=None, preemptable=False)
        reqs = [
            SendRequest(eager(1024, 1), node_a.nics[0]),
            SendRequest(eager(1024, 2), node_a.nics[1]),
        ]
        sim.schedule(
            1.0,
            lambda: pio_a.register_sends(reqs, issuing_core=node_a.cores[0]),
        )
        sim.run(until=500.0)
        # Everything was picked by core 0, serialized.
        assert [r.picked_by_core for r in reqs] == [0, 0]
        assert pio_a.offloads == 0

    def test_preempting_pickup_costs_6us(self, sim, rig):
        node_a, _, pio_a, _ = rig
        marcel = pio_a.marcel
        # Only core 1 available, and it computes (preemptable).
        marcel.spawn_compute(node_a.cores[2], work_us=None, preemptable=False)
        marcel.spawn_compute(node_a.cores[3], work_us=None, preemptable=False)
        thread = marcel.spawn_compute(node_a.cores[1], work_us=None, preemptable=True)
        reqs = [
            SendRequest(eager(1024, 1), node_a.nics[0]),
            SendRequest(eager(1024, 2), node_a.nics[1]),
        ]
        sim.schedule(10.0, lambda: pio_a.register_sends(reqs, issuing_core=node_a.cores[0]))
        sim.run(until=200.0)
        assert reqs[1].t_picked == pytest.approx(16.0)  # 10 + 6 µs preempt
        assert reqs[1].picked_by_core == 1
        assert thread.preempt_count == 1

    def test_preempted_victim_resumes_after_the_copy_drains(self, sim, rig):
        """The picker hands Marcel the transfer's ``tx_done``: the thread
        it preempted gets its core back only once the PIO copy drained."""
        node_a, _, pio_a, _ = rig
        marcel = pio_a.marcel
        marcel.spawn_compute(node_a.cores[2], work_us=None, preemptable=False)
        marcel.spawn_compute(node_a.cores[3], work_us=None, preemptable=False)
        thread = marcel.spawn_compute(node_a.cores[1], work_us=None, preemptable=True)
        resumed = []
        resume = thread.resume

        def recording_resume():
            resumed.append(sim.now)
            resume()

        thread.resume = recording_resume
        reqs = [
            SendRequest(eager(1024, 1), node_a.nics[0]),
            SendRequest(eager(16384, 2), node_a.nics[1]),
        ]
        sim.schedule(10.0, lambda: pio_a.register_sends(reqs, issuing_core=node_a.cores[0]))
        sim.run(until=500.0)
        offloaded = reqs[1].transfer
        assert reqs[1].picked_by_core == 1
        assert offloaded.tx_done is not None and offloaded.tx_done.triggered
        assert offloaded.t_tx_done > offloaded.t_cpu_start > reqs[1].t_picked
        assert resumed == [offloaded.t_tx_done]
        assert thread.preempt_count == 1

    def test_direct_submit_allocates_no_tx_done(self, sim, rig):
        """Nothing waits on a transfer the NIC gets straight from a core
        (or aborts on a dead link), so it never gets a ``tx_done``."""
        node_a, _, _, _ = rig
        mx, elan = node_a.nics
        sent, aborted = eager(1024, 1), eager(1024, 2)
        elan.fail()
        mx.submit(sent, node_a.cores[0])
        elan.submit(aborted, node_a.cores[0])
        sim.run()
        assert sent.t_complete is not None and aborted.aborted
        assert sent.tx_done is None and aborted.tx_done is None

    def test_empty_registration_is_noop(self, sim, rig):
        _, _, pio_a, _ = rig
        assert pio_a.register_sends([], issuing_core=None) == []


class TestInterruptDetection:
    """§III-A: PIOMan falls back to interrupt-based blocking calls when
    computing threads occupy the CPUs."""

    def _occupy_all_cores(self, pio, node):
        for core in node.cores:
            pio.marcel.spawn_compute(core, work_us=None, preemptable=True)

    def test_busy_receiver_still_receives(self, sim, rig):
        """Without the interrupt path this would starve forever."""
        node_a, node_b, _, pio_b = rig
        self._occupy_all_cores(pio_b, node_b)
        sim.schedule(1.0, lambda: None)
        sim.run()
        t = eager(4096)
        node_a.nics[0].submit(t, node_a.cores[0])
        sim.run(until=500.0)
        assert t.t_complete is not None
        assert pio_b.interrupts == 1
        assert pio_b.marcel.preemptions == 1

    def test_interrupt_pays_preempt_cost(self, sim, rig):
        node_a, node_b, _, pio_b = rig
        self._occupy_all_cores(pio_b, node_b)
        sim.schedule(1.0, lambda: None)
        sim.run()
        t = eager(4096)
        node_a.nics[0].submit(t, node_a.cores[0])
        sim.run(until=500.0)
        p = node_a.nics[0].profile
        # completion ≥ uncontended one-way + the 6 µs preempt window
        assert t.t_complete >= p.eager_oneway(4096) + 6.0 - 1e-6

    def test_compute_thread_resumes_after_interrupt(self, sim, rig):
        node_a, node_b, _, pio_b = rig
        thread = pio_b.marcel.spawn_compute(
            node_b.cores[0], work_us=300.0, preemptable=True
        )
        sim.schedule(1.0, lambda: None)
        sim.run()
        for core in node_b.cores[1:]:
            pio_b.marcel.spawn_compute(core, work_us=None, preemptable=True)
        sim.schedule(1.0, lambda: None)
        sim.run()
        node_a.nics[0].submit(eager(4096), node_a.cores[0])
        sim.run(until=1000.0)
        assert thread.done
        assert thread.progress == pytest.approx(300.0)

    def test_back_to_back_interrupts_all_processed(self, sim, rig):
        """Two arrivals while the receiver computes: neither is lost and
        the mid-preemption race resolves."""
        node_a, node_b, _, pio_b = rig
        self._occupy_all_cores(pio_b, node_b)
        sim.schedule(1.0, lambda: None)
        sim.run()
        t1, t2 = eager(8192, 1), eager(8192, 2)
        node_a.nics[0].submit(t1, node_a.cores[0])
        node_a.nics[1].submit(t2, node_a.cores[1])
        sim.run(until=2000.0)
        assert t1.t_complete is not None
        assert t2.t_complete is not None
        assert pio_b.interrupts == 2

    def test_idle_core_preferred_over_interrupt(self, sim, rig):
        """With an idle core available, spill there instead of preempting
        (cheaper and the paper's stated preference)."""
        node_a, node_b, _, pio_b = rig
        pio_b.marcel.spawn_compute(node_b.cores[0], work_us=None, preemptable=True)
        sim.schedule(1.0, lambda: None)
        sim.run()
        t = eager(4096)
        node_a.nics[0].submit(t, node_a.cores[0])
        sim.run(until=500.0)
        assert t.t_complete is not None
        assert pio_b.interrupts == 0
        assert pio_b.rx_spills == 1
        assert pio_b.marcel.preemptions == 0


class TestMulticoreRx:
    @pytest.fixture
    def multicore_rig(self, sim):
        node_a, node_b = wire_pair(
            sim, [rail_profile("myri10g"), rail_profile("quadrics")]
        )
        pio_a = PiomanEngine(node_a)
        pio_b = PiomanEngine(node_b, multicore_rx=True)
        pio_a.bind()
        pio_b.bind()
        return node_a, node_b, pio_a, pio_b

    def test_simultaneous_receptions_spill_to_idle_core(self, sim, multicore_rig):
        node_a, node_b, _, pio_b = multicore_rig
        mx, elan = node_a.nics
        t1, t2 = eager(16384, 1), eager(16384, 2)
        mx.submit(t1, node_a.cores[0])
        elan.submit(t2, node_a.cores[1])
        sim.run()
        assert pio_b.rx_spills == 1
        # Both receive copies overlapped: completions are close together
        # instead of one full copy apart.
        copy = node_b.nics[0].profile.eager_recv_cpu(16384)
        assert abs(t1.t_complete - t2.t_complete) < copy

    def test_single_arrival_stays_on_poll_core(self, sim, multicore_rig):
        node_a, node_b, _, pio_b = multicore_rig
        node_a.nics[0].submit(eager(4096), node_a.cores[0])
        sim.run()
        assert pio_b.rx_spills == 0
        assert node_b.cores[0].busy_time > 0

    def test_disabled_by_default(self, sim, rig):
        _, _, _, pio_b = rig
        assert not pio_b.multicore_rx
