"""Unit tests for generator-coroutine processes and waitables."""

import pytest

from repro.simtime import SimEvent, Simulator, Timeout
from repro.util.errors import SimulationError


class TestTimeout:
    def test_process_sleeps_for_delay(self):
        sim = Simulator()
        wake = []

        def proc():
            yield Timeout(3.0)
            wake.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert wake == [3.0]

    def test_timeout_payload_is_yield_value(self):
        sim = Simulator()
        got = []

        def proc():
            v = yield Timeout(1.0, value="payload")
            got.append(v)

        sim.spawn(proc())
        sim.run()
        assert got == ["payload"]

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-0.5)

    def test_sequential_timeouts_accumulate(self):
        sim = Simulator()
        marks = []

        def proc():
            for _ in range(4):
                yield Timeout(2.5)
                marks.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert marks == [2.5, 5.0, 7.5, 10.0]


class TestSimEvent:
    def test_waiters_resume_on_trigger(self):
        sim = Simulator()
        ev = SimEvent(sim)
        got = []

        def waiter(tag):
            v = yield ev
            got.append((tag, v, sim.now))

        sim.spawn(waiter("a"))
        sim.spawn(waiter("b"))
        sim.schedule(4.0, ev.trigger, 42)
        sim.run()
        assert got == [("a", 42, 4.0), ("b", 42, 4.0)]

    def test_wait_on_already_triggered_event_resumes_immediately(self):
        sim = Simulator()
        ev = SimEvent(sim)
        ev.trigger("early")
        got = []

        def waiter():
            got.append((yield ev))

        sim.spawn(waiter())
        sim.run()
        assert got == ["early"]

    def test_double_trigger_is_an_error(self):
        sim = Simulator()
        ev = SimEvent(sim)
        ev.trigger()
        with pytest.raises(SimulationError):
            ev.trigger()

    def test_cross_simulator_wait_rejected(self):
        sim1, sim2 = Simulator(), Simulator()
        ev = SimEvent(sim1)

        def waiter():
            yield ev

        sim2.spawn(waiter())
        with pytest.raises(SimulationError):
            sim2.run()


class TestProcessJoin:
    """How a process ends: by returning, or loudly, out of ``run``."""

    def test_exceptions_propagate_out_of_run(self):
        sim = Simulator()

        def boom():
            yield Timeout(1.0)
            raise ValueError("bang")

        sim.spawn(boom())
        with pytest.raises(ValueError, match="bang"):
            sim.run()

    def test_yielding_a_process_is_an_error(self):
        sim = Simulator()

        def child():
            yield Timeout(1.0)

        def parent():
            yield sim.spawn(child())

        sim.spawn(parent())
        with pytest.raises(SimulationError, match="not a Waitable"):
            sim.run()

    def test_yielding_non_waitable_is_an_error(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.spawn(bad())
        with pytest.raises(SimulationError, match="not a Waitable"):
            sim.run()
