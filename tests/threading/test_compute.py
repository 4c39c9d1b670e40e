"""Unit tests for preemptable compute threads."""

import pytest

from repro.hardware import Machine
from repro.simtime import Simulator
from repro.threading import ComputeThread, MarcelScheduler
from repro.util.errors import SchedulingError


@pytest.fixture
def node(sim):
    return Machine(sim, "node0")


@pytest.fixture
def marcel(node):
    return MarcelScheduler(node)


class TestPlainExecution:
    def test_finite_work_completes(self, sim, node, marcel):
        t = marcel.spawn_compute(node.cores[0], work_us=50.0)
        sim.run()
        assert t.done
        assert t.progress == pytest.approx(50.0)
        assert sim.now == 50.0

    def test_finished_event_carries_progress(self, sim, node, marcel):
        t = marcel.spawn_compute(node.cores[0], work_us=10.0)
        got = []
        t.finished.subscribe(sim, got.append)
        sim.run()
        assert got == [pytest.approx(10.0)]

    def test_unbounded_thread_never_finishes(self, sim, node, marcel):
        t = marcel.spawn_compute(node.cores[0], work_us=None)
        sim.schedule(1000.0, lambda: None)
        sim.run()
        assert not t.done
        assert sim.now == 1000.0  # no runaway end-of-time event

    def test_negative_budget_rejected(self, sim, node, marcel):
        with pytest.raises(SchedulingError):
            marcel.spawn_compute(node.cores[0], work_us=-1.0)

    def test_two_threads_same_core_rejected(self, sim, node, marcel):
        marcel.spawn_compute(node.cores[0], work_us=10.0)
        with pytest.raises(SchedulingError):
            marcel.spawn_compute(node.cores[0], work_us=10.0)

    def test_thread_occupies_core(self, sim, node, marcel):
        marcel.spawn_compute(node.cores[0], work_us=20.0)
        sim.run()
        assert node.cores[0].busy_time == pytest.approx(20.0)


class TestPreemption:
    def test_preempt_frees_core_and_resume_completes_work(self, sim, node, marcel):
        core = node.cores[0]
        t = marcel.spawn_compute(core, work_us=100.0)

        def preempt_at_30():
            released = t.preempt()

            def after_release(_):
                assert core.is_idle or not core._res.busy
                # let the core do 10us of other work, then resume
                core.run(10.0, t.resume)

            released.subscribe(sim, after_release)

        sim.schedule(30.0, preempt_at_30)
        sim.run()
        assert t.done
        assert t.progress == pytest.approx(100.0)
        # 100us of compute + 10us stolen = finishes at 110
        assert sim.now == pytest.approx(110.0)
        assert t.preempt_count == 1

    def test_preempted_slice_deadline_fires_as_a_no_op(self, sim, node, marcel):
        """A preempted slice's deadline stays armed: the run drains at
        it, and it neither ends the parked thread nor takes the core."""
        core = node.cores[0]
        t = marcel.spawn_compute(core, work_us=100.0)
        sim.schedule(30.0, t.preempt)
        sim.run()
        assert sim.now == 100.0
        assert t.progress == pytest.approx(30.0)
        assert not t.done and not t.on_core
        assert core.is_idle

    def test_preempt_nonpreemptable_rejected(self, sim, node, marcel):
        t = marcel.spawn_compute(node.cores[0], work_us=100.0, preemptable=False)
        sim.schedule(10.0, lambda: pytest.raises(SchedulingError, t.preempt))
        sim.run()

    def test_preempt_before_start_rejected(self, sim, node, marcel):
        t = marcel.spawn_compute(node.cores[0], work_us=100.0)
        # The thread hasn't been scheduled yet (simulation not started).
        with pytest.raises(SchedulingError):
            t.preempt()

    def test_resume_without_preempt_rejected(self, sim, node, marcel):
        t = marcel.spawn_compute(node.cores[0], work_us=100.0)
        with pytest.raises(SchedulingError):
            t.resume()

    def test_double_preempt_rejected(self, sim, node, marcel):
        t = marcel.spawn_compute(node.cores[0], work_us=100.0)
        errors = []

        def do():
            t.preempt()
            try:
                t.preempt()
            except SchedulingError as e:
                errors.append(e)
            t.resume()

        sim.schedule(10.0, do)
        sim.run()
        assert len(errors) == 1
        assert t.done

    def test_progress_preserved_across_preemption(self, sim, node, marcel):
        t = marcel.spawn_compute(node.cores[0], work_us=100.0)
        progress_at_preempt = []

        def do():
            t.preempt()
            progress_at_preempt.append(t.progress)
            sim.schedule(500.0, t.resume)

        sim.schedule(40.0, do)
        sim.run()
        assert progress_at_preempt == [pytest.approx(40.0)]
        assert t.progress == pytest.approx(100.0)
        assert sim.now == pytest.approx(40.0 + 500.0 + 60.0)
