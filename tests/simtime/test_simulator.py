"""Unit tests for the Simulator event loop."""

import gc

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
        assert sim._heap == []

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


#: the generation-2 threshold while run() runs: out of reach
DEFERRED = 2**31 - 1


def collector_state():
    return gc.get_threshold(), gc.isenabled()


@pytest.fixture(params=["as found", "own thresholds", "collector off"])
def caller_gc(request):
    """The collector settings a caller left before ``run()``: the
    process's own, thresholds of the caller's choosing, or automatic
    collection off.  Yields them; puts the process's back afterwards."""
    thresholds, enabled = collector_state()
    if request.param == "own thresholds":
        gc.set_threshold(500, 7, 3)
    elif request.param == "collector off":
        gc.disable()
    try:
        yield collector_state()
    finally:
        gc.set_threshold(*thresholds)
        if enabled:
            gc.enable()
        else:
            gc.disable()


def deferred(state):
    """What ``run()`` sets while it runs, for a caller's ``state``."""
    (young, middle, _), enabled = state
    return (young, middle, DEFERRED), enabled


class TestCollectorDeferral:
    """``run()`` raises only the full-pass threshold while its loop
    runs and restores the caller's settings exactly on every way out."""

    def test_normal_return(self, caller_gc):
        sim = Simulator()
        inside = []
        sim.schedule(1.0, lambda: inside.append(collector_state()))
        sim.run()
        assert inside == [deferred(caller_gc)]
        assert collector_state() == caller_gc

    def test_callback_raising_out_of_run(self, caller_gc):
        sim = Simulator()

        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError):
            sim.run()
        assert collector_state() == caller_gc

    def test_early_return_of_bounded_run(self, caller_gc):
        sim = Simulator()
        sim.run(until=5.0)
        sim.schedule(1.0, lambda: None)
        assert sim.run(until=1.0) == 5.0
        assert collector_state() == caller_gc

    def test_reentrant_run_error(self, caller_gc):
        sim = Simulator()
        sim.schedule(1.0, sim.run)
        with pytest.raises(SimulationError):
            sim.run()
        assert collector_state() == caller_gc

    def test_second_simulator_nested_in_a_callback(self, caller_gc):
        """What the online re-sampler does under ``Cluster.resample``."""
        outer, inner = Simulator(), Simulator()
        seen = []

        def side_run():
            inner.schedule(2.0, lambda: seen.append(("inner", collector_state())))
            inner.run()
            seen.append(("outer", collector_state()))

        outer.schedule(1.0, side_run)
        outer.run()
        assert seen == [
            ("inner", deferred(caller_gc)),
            ("outer", deferred(caller_gc)),
        ]
        assert collector_state() == caller_gc

    def test_full_passes_wait_until_run_returns(self):
        """Young passes run inside ``run()``, full passes do not; the
        deferred one comes due after it returns."""
        thresholds, enabled = collector_state()
        gc.collect()
        # A full pass is also skipped while fewer objects than a quarter
        # of those the last one kept have reached the oldest generation:
        # keep enough alive to be past that whatever the process holds.
        per_event = 1000
        events = max(300, len(gc.get_objects()) // (2 * per_event))
        sim = Simulator()
        kept = []
        passes = []

        def note(phase, info):
            if phase == "start":
                passes.append((info["generation"], sim._running))

        for i in range(events):
            sim.schedule(float(i + 1), self._grow, kept, per_event)
        gc.set_threshold(700, 10, 10)
        gc.enable()
        gc.callbacks.append(note)
        try:
            sim.run()
            inside = [gen for gen, running in passes if running]
            assert 2 not in inside
            assert inside.count(0) > 0 and inside.count(1) > 0
            # More middle passes than the full-pass threshold since the
            # last full pass: the next young collection runs it.
            assert gc.get_count()[2] > 10
            del passes[:]
            after = []
            for _ in range(100):
                after.append([[] for _ in range(700)])
                if any(gen == 2 for gen, _ in passes):
                    break
            assert (2, False) in passes
        finally:
            gc.callbacks.remove(note)
            gc.set_threshold(*thresholds)
            if not enabled:
                gc.disable()

    @staticmethod
    def _grow(kept, n):
        kept.extend([] for _ in range(n))
