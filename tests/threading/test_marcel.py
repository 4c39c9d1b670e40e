"""Unit tests for the Marcel tasklet scheduler."""

import pytest

from repro.hardware import Machine
from repro.simtime import Simulator
from repro.threading import MarcelScheduler, Tasklet, TaskletState
from repro.util.errors import SchedulingError


@pytest.fixture
def node(sim):
    return Machine(sim, "node0")


@pytest.fixture
def marcel(node):
    return MarcelScheduler(node)


class TestCoreViews:
    def test_all_cores_idle_without_threads(self, sim, node, marcel):
        assert marcel.idle_cores() == node.cores
        assert marcel.preemptable_cores() == []

    def test_compute_thread_removes_core_from_idle(self, sim, node, marcel):
        marcel.spawn_compute(node.cores[2], work_us=None)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert node.cores[2] not in marcel.idle_cores()
        assert marcel.preemptable_cores() == [node.cores[2]]

    def test_nonpreemptable_thread_not_offered(self, sim, node, marcel):
        marcel.spawn_compute(node.cores[1], work_us=None, preemptable=False)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert marcel.preemptable_cores() == []

    def test_finished_thread_frees_core(self, sim, node, marcel):
        marcel.spawn_compute(node.cores[0], work_us=5.0)
        sim.run()
        assert node.cores[0] in marcel.idle_cores()

    def test_exclude_parameter(self, sim, node, marcel):
        assert node.cores[0] not in marcel.idle_cores(exclude=node.cores[0])


class TestTaskletOnIdleCore:
    def test_signal_cost_is_3us(self, sim, node, marcel):
        """Paper §III-D: 3 µs from registration to remote submission."""
        ran = []
        tasklet = Tasklet(body=lambda: ran.append(sim.now), name="t")
        marcel.schedule_tasklet(tasklet, node.cores[1], from_core=node.cores[0])
        sim.run()
        assert ran == [3.0]
        assert tasklet.dispatch_latency == pytest.approx(3.0)
        assert tasklet.state is TaskletState.DONE
        assert not tasklet.preempted_someone

    def test_local_tasklet_is_free(self, sim, node, marcel):
        ran = []
        tasklet = Tasklet(body=lambda: ran.append(sim.now))
        marcel.schedule_tasklet(tasklet, node.cores[0], from_core=node.cores[0])
        sim.run()
        assert ran == [0.0]

    def test_cpu_cost_occupies_target_core(self, sim, node, marcel):
        tasklet = Tasklet(body=lambda: None, cpu_cost=5.0)
        marcel.schedule_tasklet(tasklet, node.cores[1], from_core=node.cores[0])
        sim.run()
        assert node.cores[1].busy_time == pytest.approx(5.0)
        assert sim.now == pytest.approx(8.0)  # 3 signal + 5 body

    def test_rescheduling_rejected(self, sim, node, marcel):
        tasklet = Tasklet(body=lambda: None)
        marcel.schedule_tasklet(tasklet, node.cores[1])
        with pytest.raises(SchedulingError):
            marcel.schedule_tasklet(tasklet, node.cores[2])

    def test_foreign_core_rejected(self, sim, marcel):
        other = Machine(sim, "other")
        with pytest.raises(SchedulingError):
            marcel.schedule_tasklet(Tasklet(body=lambda: None), other.cores[0])

    def test_counter(self, sim, node, marcel):
        for i in (1, 2, 3):
            marcel.schedule_tasklet(
                Tasklet(body=lambda: None), node.cores[i], from_core=node.cores[0]
            )
        sim.run()
        assert marcel.tasklets_run == 3


class TestTaskletWithPreemption:
    def test_preempt_cost_is_6us(self, sim, node, marcel):
        """Paper §III-D: 6 µs if a thread has to be preempted by a signal."""
        thread = marcel.spawn_compute(node.cores[1], work_us=1000.0)
        ran = []

        def fire():
            tasklet = Tasklet(body=lambda: ran.append(sim.now), name="t")
            marcel.schedule_tasklet(tasklet, node.cores[1], from_core=node.cores[0])

        sim.schedule(100.0, fire)
        sim.run()
        assert ran == [pytest.approx(106.0)]
        assert marcel.preemptions == 1
        assert thread.done
        # Thread lost 6us of wall-clock to the preemption window.
        assert sim.now == pytest.approx(1006.0)

    def test_victim_resumes_after_tasklet(self, sim, node, marcel):
        thread = marcel.spawn_compute(node.cores[1], work_us=50.0)

        def fire():
            marcel.schedule_tasklet(
                Tasklet(body=lambda: None, cpu_cost=10.0),
                node.cores[1],
                from_core=node.cores[0],
            )

        sim.schedule(20.0, fire)
        sim.run()
        assert thread.done
        assert thread.progress == pytest.approx(50.0)
        # 20 compute + 6 preempt + 10 tasklet + 30 remaining compute
        assert sim.now == pytest.approx(66.0)

    def test_parked_victim_is_looked_at_every_half_microsecond(
        self, sim, node, marcel
    ):
        """A tasklet aimed at a thread another tasklet has parked looks
        again every 0.5 µs until the thread is back on its core, then
        pays the full preemption."""
        thread = marcel.spawn_compute(node.cores[1], work_us=1000.0)
        a = Tasklet(body=lambda: None, cpu_cost=5.0, name="a")
        b = Tasklet(body=lambda: None, name="b")
        sim.schedule(100.0, marcel.schedule_tasklet, a, node.cores[1], node.cores[0])
        sim.schedule(101.2, marcel.schedule_tasklet, b, node.cores[1], node.cores[0])
        sim.run()
        assert (a.t_started, a.t_finished) == (106.0, 111.0)
        # The thread retakes its core at 111 µs; b's looks fall at
        # 101.7, 102.2, ..., so the first to find it there is at 111.2.
        assert b.t_started == pytest.approx(111.2 + 6.0)
        assert marcel.preemptions == thread.preempt_count == 2
        assert thread.done and thread.progress == pytest.approx(1000.0)
        assert sim.now == pytest.approx(1017.0)

    def test_two_tasklets_onto_one_computing_core_at_one_instant(
        self, sim, node, marcel
    ):
        """The second tasklet finds the first one's preemption signal
        still on its way: it waits as for a parked thread, then preempts
        the thread in turn."""
        thread = marcel.spawn_compute(node.cores[1], work_us=1000.0)
        a = Tasklet(body=lambda: None, cpu_cost=5.0, name="a")
        b = Tasklet(body=lambda: None, cpu_cost=5.0, name="b")

        def fire():
            for tasklet in (a, b):
                marcel.schedule_tasklet(tasklet, node.cores[1], from_core=node.cores[0])

        sim.schedule(100.0, fire)
        sim.run()
        assert (a.t_started, a.t_finished) == (106.0, 111.0)
        # b's look at 111.0 comes before the thread retakes its core
        # that instant; the next one, at 111.5, preempts it.
        assert (b.t_started, b.t_finished) == (117.5, 122.5)
        assert a.state is b.state is TaskletState.DONE
        assert marcel.preemptions == thread.preempt_count == 2
        assert thread.done and thread.progress == pytest.approx(1000.0)
        assert sim.now == pytest.approx(1022.0)

    def test_preempting_a_slice_that_ends_in_the_same_instant(
        self, sim, node, marcel
    ):
        """b's look preempts the thread at 111.25 µs, the instant its
        slice deadline ends it: the signal lands on a slice already
        over, and b still starts once the core is free."""
        thread = marcel.spawn_compute(node.cores[1], work_us=100.25)
        ran = []
        a = Tasklet(body=lambda: ran.append(("a", sim.now)), cpu_cost=5.0)
        b = Tasklet(body=lambda: ran.append(("b", sim.now)), cpu_cost=5.0)
        sim.schedule(100.0, marcel.schedule_tasklet, a, node.cores[1], node.cores[0])
        sim.schedule(100.75, marcel.schedule_tasklet, b, node.cores[1], node.cores[0])
        sim.run()
        # a: 6 µs preemption, then 5 µs of work; the thread retakes its
        # core at 111 µs with 0.25 µs of work left.  b: the same 6 + 5.
        assert ran == [("a", 111.0), ("b", 122.25)]
        assert a.state is b.state is TaskletState.DONE
        assert thread.done and thread.preempt_count == 1
        assert sim.now == pytest.approx(122.25)

    def test_nonpreemptable_target_rejected(self, sim, node, marcel):
        marcel.spawn_compute(node.cores[1], work_us=None, preemptable=False)
        errors = []

        def fire():
            try:
                marcel.schedule_tasklet(
                    Tasklet(body=lambda: None), node.cores[1], from_core=node.cores[0]
                )
            except SchedulingError as e:
                errors.append(e)

        sim.schedule(10.0, fire)
        sim.run()
        assert len(errors) == 1
