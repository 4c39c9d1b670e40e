"""End-to-end graceful degradation through the front-door API.

The tentpole acceptance scenario lives here: a NIC dies mid-transfer and
the send still completes on the surviving rails — deterministically.
"""

import pytest

from repro.api import ClusterBuilder, FaultSchedule, RunResult
from repro.bench.runners import default_profiles
from repro.core import MessageStatus
from repro.core.packets import DegradedSend, TransferMode
from repro.networks import MxDriver
from repro.obs import Timeline, explain
from repro.util.units import MiB

from tests.conftest import wire_pair


def faulty_cluster(schedule, timeout="200us", **resilience):
    builder = ClusterBuilder.paper_testbed(strategy="hetero_split").sampling(
        profiles=default_profiles()
    )
    if schedule is not None:
        builder.faults(schedule)
    builder.resilience(timeout=timeout, **resilience)
    return builder.build()


def one_send(cluster, size=4 * MiB):
    sender, receiver = cluster.sessions("node0", "node1")
    receiver.irecv(source="node0")
    msg = sender.isend("node1", size)
    result = cluster.run()
    return msg, result


class TestNicDownMidTransfer:
    """The acceptance criterion, verbatim."""

    SCHEDULE = dict(nic="node0.myri10g0", at=150.0, duration=2000.0)

    def run_once(self):
        schedule = FaultSchedule(seed=7).nic_down(**self.SCHEDULE)
        return one_send(faulty_cluster(schedule))

    def test_send_completes_on_surviving_rail(self):
        msg, result = self.run_once()
        assert msg.status is MessageStatus.COMPLETE
        assert msg.outcome is None
        assert msg.retries == 1
        assert result.faults_fired == 2
        # the lost chunk was reissued on the surviving rail
        lost = [t for t in msg.transfers if t.aborted]
        retried = [t for t in msg.transfers if t.retry_of is not None]
        assert len(lost) == 1 and len(retried) == 1
        assert retried[0].retry_of == lost[0].transfer_id
        assert "quadrics" in retried[0].nic_name

    def test_double_run_is_bit_identical(self):
        m1, r1 = self.run_once()
        m2, r2 = self.run_once()
        assert m1.t_complete == m2.t_complete
        assert float(r1) == float(r2)
        assert r1.events_processed == r2.events_processed
        assert [
            (t.kind, t.t_submit, t.t_tx_done, t.t_delivered)
            for t in m1.transfers
        ] == [
            (t.kind, t.t_submit, t.t_tx_done, t.t_delivered)
            for t in m2.transfers
        ]

    def test_explain_reports_the_fault_story(self):
        msg, _ = self.run_once()
        report = explain(msg)
        assert "retries: 1" in report
        assert "LOST(nic-down)" in report
        assert "RETRY(of #" in report
        assert "rails avoided:" in report
        assert "node0.myri10g0: down" in report

    def test_timeline_gains_fault_and_retry_lanes(self):
        schedule = FaultSchedule(seed=7).nic_down(**self.SCHEDULE)
        cluster = faulty_cluster(schedule)
        tl = Timeline.record(cluster.machines["node0"])
        merged = Timeline.record(cluster)
        one_send(cluster)
        assert "fault:myri10g0" in tl.lanes
        assert "retry" in tl.lanes
        (window,) = tl.intervals("fault:myri10g0")
        assert (window.start, window.end, window.label) == (150.0, 2150.0, "down")
        assert tl.intervals("retry")
        assert "node0/fault:myri10g0" in merged.lanes
        assert "node0/retry" in merged.lanes


class TestDegradedSend:
    def test_all_rails_down_degrades_instead_of_hanging(self):
        schedule = (
            FaultSchedule(seed=1)
            .nic_down("myri10g0", at=50.0)
            .nic_down("quadrics1", at=50.0)
        )
        cluster = faulty_cluster(schedule, max_retries=3)
        msg, result = one_send(cluster)
        # The run DRAINED (no hang) and the message was declared degraded.
        assert msg.status is MessageStatus.DEGRADED
        assert isinstance(msg.outcome, DegradedSend)
        assert msg.outcome.size == 4 * MiB
        assert 0.0 <= msg.outcome.delivered_fraction < 1.0
        assert msg.done.triggered
        assert cluster.engine("node0").messages_degraded == 1

    def test_degraded_outcome_in_explain(self):
        schedule = (
            FaultSchedule(seed=1)
            .nic_down("myri10g0", at=50.0)
            .nic_down("quadrics1", at=50.0)
        )
        msg, _ = one_send(faulty_cluster(schedule, max_retries=2))
        assert "DEGRADED:" in explain(msg)


class TestPacketLossRecovery:
    def test_eager_loss_window_is_survived(self):
        schedule = FaultSchedule(seed=3).eager_loss(
            "node0.myri10g0", probability=1.0, start=0.0, stop=500.0
        )
        cluster = faulty_cluster(schedule)
        sender, receiver = cluster.sessions("node0", "node1")
        receiver.irecv(source="node0")
        msg = sender.isend("node1", "4K")
        cluster.run()
        assert msg.status is MessageStatus.COMPLETE
        assert msg.retries >= 1
        assert any(t.dropped for t in msg.transfers)

    def test_rdv_stall_is_survived(self):
        schedule = FaultSchedule(seed=3).rdv_stall(
            "myri10g0", probability=1.0, stop=400.0
        ).rdv_stall("quadrics1", probability=1.0, stop=400.0)
        cluster = faulty_cluster(schedule)
        msg, _ = one_send(cluster)
        assert msg.status is MessageStatus.COMPLETE
        assert msg.retries >= 1


class TestFlappingCluster:
    def make(self):
        schedule = FaultSchedule(seed=2).flapping(
            "myri10g0", period=400.0, duty=0.5, cycles=20
        )
        return faulty_cluster(schedule)

    def run_stream(self):
        cluster = self.make()
        sender, receiver = cluster.sessions("node0", "node1")
        msgs = []
        for i in range(10):
            receiver.irecv(tag=i)
            msgs.append(sender.isend("node1", 1 * MiB, tag=i))
        result = cluster.run()
        return msgs, result

    def test_all_messages_complete(self):
        msgs, result = self.run_stream()
        assert all(m.status is MessageStatus.COMPLETE for m in msgs)
        assert isinstance(result, RunResult)
        # 20 cycles x (down + up) x both endpoints of the rail
        assert result.faults_fired == 80

    def test_double_run_determinism(self):
        msgs1, r1 = self.run_stream()
        msgs2, r2 = self.run_stream()
        assert [m.t_complete for m in msgs1] == [m.t_complete for m in msgs2]
        assert r1.events_processed == r2.events_processed


class TestPlannerFaultAwareness:
    def test_down_rail_excluded_from_plans(self):
        cluster = faulty_cluster(None)
        engine = cluster.engine("node0")
        nics = list(engine.machine.nics)
        myri = next(n for n in nics if "myri" in n.name)
        myri.fail()
        plan = engine.predictor.plan(nics, 4 * MiB, TransferMode.RENDEZVOUS)
        assert myri.name not in {n.name for n in plan.nics}

    def test_degraded_rail_carries_fewer_bytes(self):
        cluster = faulty_cluster(None)
        engine = cluster.engine("node0")
        nics = list(engine.machine.nics)
        healthy = engine.predictor.plan(nics, 4 * MiB, TransferMode.RENDEZVOUS)
        by_name = dict(zip((n.name for n in healthy.nics), healthy.sizes))
        myri = next(n for n in nics if "myri" in n.name)
        myri.degrade(bw_factor=0.25)
        degraded = engine.predictor.plan(nics, 4 * MiB, TransferMode.RENDEZVOUS)
        by_name_deg = dict(zip((n.name for n in degraded.nics), degraded.sizes))
        assert by_name_deg.get(myri.name, 0) < by_name[myri.name]


class TestHealthyPathUnchanged:
    def test_no_faults_no_timeout_matches_plain_build(self):
        plain = ClusterBuilder.paper_testbed(strategy="hetero_split").sampling(
            profiles=default_profiles()
        ).build()
        m1, r1 = one_send(plain)
        resilient = faulty_cluster(None)  # timeout armed, no faults
        m2, r2 = one_send(resilient)
        # Same network timestamps: the watchdog never perturbs a healthy
        # run's delivery timeline (its events are cancelled on completion).
        assert m1.t_complete == m2.t_complete
        assert m2.retries == 0 and m2.outcome is None


class TestDegradeToHealthy:
    """A degrade that leaves the NIC healthy is a restore: it closes an
    open window and announces nothing on a healthy NIC."""

    def test_default_degrade_on_a_healthy_nic_opens_no_window(self):
        schedule = FaultSchedule(seed=1).degrade(
            "node0.myri10g0", at=10.0, duration=5.0
        )
        builder = ClusterBuilder.paper_testbed().sampling(
            profiles=default_profiles()
        )
        cluster = builder.faults(schedule).observability().build()
        tl = Timeline.record(cluster)
        msg, _ = one_send(cluster, size=1 * MiB)
        assert msg.status is MessageStatus.COMPLETE
        assert cluster.fault_injector.faults_fired == 2
        assert not [lane for lane in tl.lanes if "/fault:" in lane]
        names = {e.get("name") for e in cluster.obs.chrome_trace()["traceEvents"]}
        assert "nic-degrade" not in names and "nic-restore" not in names

    def test_degrade_to_healthy_closes_the_window(self, sim):
        node_a, _ = wire_pair(sim, [MxDriver()])
        nic = node_a.nics[0]
        tl = Timeline.record(node_a)
        sim.schedule_at(10.0, nic.degrade, 0.5)
        sim.schedule_at(20.0, nic.degrade, 1.0, 0.0)
        sim.schedule_at(30.0, nic.restore)
        sim.schedule_at(100.0, lambda: None)
        sim.run()
        assert not nic.is_degraded
        assert [
            (w.start, w.end, w.label) for w in tl.intervals(f"fault:{nic.name}")
        ] == [(10.0, 20.0, "degraded")]
