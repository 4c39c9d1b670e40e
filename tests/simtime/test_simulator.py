"""Unit tests for the Simulator event loop."""

import pytest

from repro.simtime import Simulator
from repro.util.errors import SimulationError


class TestScheduling:
    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(4.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.5]
        assert sim.now == 4.5

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.run(until=10.0)
        seen = []
        sim.schedule_at(12.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [12.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)

    def test_events_cascade(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(("first", sim.now))
            sim.schedule(2.0, second)

        def second():
            seen.append(("second", sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == [("first", 1.0), ("second", 3.0)]

    def test_mass_cancel_mid_run_keeps_order(self):
        """Compaction rebuilds the heap in place, under the running loop."""
        sim = Simulator()
        seen = []
        doomed = [sim.schedule(10.0 + i, seen.append, "dead") for i in range(2000)]
        for i in range(5):
            sim.schedule(5.0 + 1000.0 * i, seen.append, i)

        def lane_after_heap():
            # The heap entry due now was pushed before the clock got
            # here, so it fires before this lane entry — if the loop
            # reads the rebuilt heap.
            sim.schedule(0.0, seen.append, "lane")

        def cancel_all():
            for ev in doomed:
                sim.cancel(ev)
            sim.schedule(1.0, lane_after_heap)
            sim.schedule(1.0, seen.append, "heap")

        sim.schedule(1.0, cancel_all)
        sim.run()
        assert seen == ["heap", "lane", 0, 1, 2, 3, 4]
        assert sim._queue._heap == []

    def test_cancel_pending_event(self):
        sim = Simulator()
        seen = []
        ev = sim.schedule(1.0, seen.append, "x")
        sim.cancel(ev)
        sim.run()
        assert seen == []


class TestRun:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(10.0, seen.append, "b")
        sim.run(until=5.0)
        assert seen == ["a"]
        assert sim.now == 5.0  # clock advanced to the window edge
        sim.run()
        assert seen == ["a", "b"]

    def test_run_empty_queue_returns_now(self):
        sim = Simulator()
        assert sim.run() == 0.0

    def test_run_is_not_reentrant(self):
        sim = Simulator()

        def evil():
            sim.run()

        sim.schedule(1.0, evil)
        with pytest.raises(SimulationError):
            sim.run()

    def test_pending_events_counter(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2
        sim.run(until=1.0)
        assert sim.pending_events == 1


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            sim = Simulator()
            trace = []
            for i in range(50):
                # Deliberate time collisions: i % 7 buckets.
                sim.schedule(float(i % 7), trace.append, (i, i % 7))
            sim.run()
            return trace

        assert build_and_run() == build_and_run()


class TestRunWithBound:
    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, seen.append, "edge")
        sim.run(until=5.0)
        assert seen == ["edge"]
        assert sim.now == 5.0

    def test_cancelled_head_beyond_bound_not_counted(self):
        sim = Simulator()
        seen = []
        dead = sim.schedule(1.0, seen.append, "dead")
        sim.schedule(2.0, seen.append, "live")
        sim.schedule(10.0, seen.append, "later")
        sim.cancel(dead)
        sim.run(until=5.0)
        assert seen == ["live"]
        assert sim.pending_events == 1
        sim.run()
        assert seen == ["live", "later"]

    def test_callback_scheduling_within_window_fires_same_run(self):
        sim = Simulator()
        seen = []

        def first():
            sim.schedule(1.0, seen.append, "second")

        sim.schedule(1.0, first)
        sim.run(until=3.0)
        assert seen == ["second"]
        assert sim.now == 3.0
