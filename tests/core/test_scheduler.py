"""Tests for OptimizerScheduler activation and out-list semantics."""

import pytest

from repro.api import ClusterBuilder
from repro.core.sampling import ProfileStore
from repro.networks import rail_profile
from repro.util.errors import SchedulingError
from repro.util.units import KiB


@pytest.fixture(scope="module")
def profiles():
    return ProfileStore.sample_rails(
        [rail_profile("myri10g"), rail_profile("quadrics")]
    )


@pytest.fixture
def cluster(profiles):
    return (
        ClusterBuilder.paper_testbed(strategy="greedy")
        .sampling(profiles=profiles)
        .build()
    )


class TestActivationCoalescing:
    def test_batch_of_isends_is_one_activation(self, cluster):
        a = cluster.session("node0")
        sched = cluster.engine("node0").scheduler
        for i in range(5):
            a.isend("node1", 1 * KiB, tag=i)
        assert sched.activations == 0  # deferred to end of instant
        cluster.sim.run(until=0.0)
        # A single activation saw the whole batch (it may re-trigger on
        # NIC-idle edges later, but at t=0 exactly one pass ran).
        assert sched.activations == 1

    def test_activation_drains_outlist(self, cluster):
        a = cluster.session("node0")
        sched = cluster.engine("node0").scheduler
        a.isend("node1", 1 * KiB, tag=0)
        a.isend("node1", 1 * KiB, tag=1)
        cluster.run()
        assert len(sched) == 0

    def test_nic_idle_reactivates_when_work_waits(self, cluster):
        eng = cluster.engine("node0")
        a = cluster.session("node0")
        for nic in eng.machine.nics:
            nic.inject_busy(100.0)
        msgs = [a.isend("node1", 1 * KiB, tag=i) for i in range(3)]
        cluster.run()
        assert all(m.t_complete is not None for m in msgs)
        # More than the initial activation happened (idle edges fired).
        assert eng.scheduler.activations >= 2


class TestOutlistOps:
    def test_remove_missing_message_raises(self, cluster):
        eng = cluster.engine("node0")
        msg = eng.isend("node1", 64)
        cluster.run()  # drained
        with pytest.raises(SchedulingError):
            eng.scheduler.remove(msg)

    def test_peek_does_not_pop(self, cluster):
        eng = cluster.engine("node0")
        eng.isend("node1", 64)
        sched = eng.scheduler
        assert sched.peek_ready() is sched.peek_ready()
        assert len(sched) == 1
