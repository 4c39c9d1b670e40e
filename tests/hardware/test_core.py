"""Unit tests for the Core occupancy model."""

import pytest

from repro.hardware import Core
from repro.simtime import Simulator, Timeout
from repro.util.errors import SchedulingError, SimulationError


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def core(sim):
    return Core(sim, core_id=0)


class BusyLog:
    """Records the ``on_busy`` events a core emits."""

    def __init__(self):
        self.events = []

    def on_busy(self, device, start, now, label):
        self.events.append((device, start, now, label))


class TestOccupy:
    def test_occupy_holds_for_cost(self, sim, core):
        marks = []

        def proc():
            yield from core.occupy(7.5, label="copy")
            marks.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert marks == [7.5]
        assert core.busy_time == 7.5

    def test_two_occupiers_serialize(self, sim, core):
        """Two PIO copies on one core serialize — the Fig. 4a effect."""
        ends = []

        def proc(cost, tag):
            yield from core.occupy(cost, label=tag)
            ends.append((tag, sim.now))

        sim.spawn(proc(5.0, "a"))
        sim.spawn(proc(3.0, "b"))
        sim.run()
        assert ends == [("a", 5.0), ("b", 8.0)]

    def test_two_cores_run_in_parallel(self, sim):
        """Two copies on two cores overlap — the Fig. 4c effect."""
        c1, c2 = Core(sim, 0), Core(sim, 1)
        ends = []

        def proc(core, tag):
            yield from core.occupy(5.0, label=tag)
            ends.append((tag, sim.now))

        sim.spawn(proc(c1, "a"))
        sim.spawn(proc(c2, "b"))
        sim.run()
        assert ends == [("a", 5.0), ("b", 5.0)]

    def test_negative_cost_rejected(self, sim, core):
        def proc():
            yield from core.occupy(-1.0)

        sim.spawn(proc())
        with pytest.raises(SchedulingError):
            sim.run()


class TestRun:
    def test_callback_fires_after_cost(self, sim, core):
        got = []
        core.run(4.0, got.append, "done")
        sim.run()
        assert got == ["done"]
        assert sim.now == 4.0

    def test_run_without_callback(self, sim, core):
        core.run(2.0)
        sim.run()
        assert core.busy_time == 2.0

    def test_run_items_fifo(self, sim, core):
        got = []
        core.run(1.0, got.append, "first")
        core.run(1.0, got.append, "second")
        sim.run()
        assert got == ["first", "second"]
        assert sim.now == 2.0

    def test_negative_cost_rejected(self, sim, core):
        with pytest.raises(SchedulingError):
            core.run(-2.0)


class TestIdlePrediction:
    def test_fresh_core_is_idle(self, sim, core):
        assert core.is_idle
        assert core.busy_until == 0.0

    def test_busy_until_accumulates_declared_work(self, sim, core):
        core.run(5.0)
        core.run(3.0)
        assert core.busy_until == 8.0
        assert not core.is_idle

    def test_busy_until_is_exact(self, sim, core):
        core.run(5.0)
        core.run(3.0)
        predicted = core.busy_until
        sim.run()
        assert sim.now == predicted
        assert core.is_idle

    def test_busy_until_never_in_the_past(self, sim, core):
        core.run(2.0)
        sim.run()
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert core.busy_until == sim.now == 12.0

    def test_gap_then_new_work_rebases_prediction(self, sim, core):
        core.run(2.0)
        sim.run()
        sim.schedule(10.0, lambda: core.run(4.0))
        sim.run()
        assert sim.now == 16.0  # 10 (idle gap) + start + 4

    def test_declare_hold_declared_pair(self, sim, core):
        busy = BusyLog()
        core.hooks.subscribe(busy)
        core.declare(6.0)
        assert core.busy_until == 6.0
        marks = []

        def after_external_wait():  # e.g. the NIC doorbell
            core.hold(
                6.0, marks.append, "end", label="pio",
                on_start=lambda tag: marks.append(("start", sim.now)),
            )
            marks.append(("busy_until", core.busy_until))

        sim.schedule(2.0, after_external_wait)
        sim.run()
        # hold() does not declare again: the prediction stays at 6.0
        assert marks == [("busy_until", 6.0), ("start", 2.0), "end"]
        assert sim.now == 8.0
        assert core.busy_time == 6.0
        assert busy.events == [(core, 2.0, 8.0, "pio")]

    def test_hold_rejects_negative_cost(self, sim, core):
        with pytest.raises(SchedulingError):
            core.hold(-1.0)


class TestCallbackSlotMisuse:
    """Callback-style occupancy keeps the core slot's release checks."""

    def test_releasing_ungranted_core_slot_rejected(self, sim, core):
        core.run(10.0)
        sim.run(until=1.0)  # the work item holds the core now
        queued = core._res.acquire(lambda req: None)
        assert not queued.granted
        with pytest.raises(SimulationError, match="ungranted"):
            core._res.release(queued)

    def test_double_release_of_core_slot_rejected(self, sim, core):
        granted = []
        core._res.acquire(granted.append)
        sim.run()
        (req,) = granted
        core._res.release(req)
        with pytest.raises(SimulationError, match="double release"):
            core._res.release(req)


class TestUtilization:
    def test_fully_busy_window(self, sim, core):
        core.run(10.0)
        sim.run()
        assert core.utilization() == pytest.approx(1.0)

    def test_half_busy_window(self, sim, core):
        core.run(5.0)
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert core.utilization() == pytest.approx(0.5)

    def test_empty_window(self, sim, core):
        assert core.utilization() == 0.0
