"""Unit tests for the simulator's event heap: order, cancellation
handles, bounded runs and tombstone compaction.

Every event here lies at a later instant than the clock, so it waits in
the heap; ``run(until=bound)`` is the bounded pop and ``run()`` the
unbounded one.
"""

from repro.simtime import Simulator
from repro.simtime.simulator import COMPACT_MIN_DEAD


def nop():
    pass


def clock_log(sim):
    """A callback that records the clock reading each time it fires,
    and the list it records into."""
    seen = []
    return (lambda: seen.append(sim.now)), seen


class TestEventQueueOrdering:
    def test_pops_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_fires_in_insertion_order(self):
        sim = Simulator()
        order = []
        for i in range(10):
            sim.schedule(5.0, order.append, i)
        sim.run()
        assert order == list(range(10))


class TestEventQueueCancellation:
    def test_cancelled_event_is_skipped(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, fired.append, "dead")
        sim.schedule(2.0, fired.append, "live")
        sim.cancel(ev)
        sim.run()
        assert fired == ["live"]

    def test_len_counts_live_events_only(self):
        sim = Simulator()
        ev = sim.schedule(1.0, nop)
        sim.schedule(2.0, nop)
        assert sim.pending_events == 2
        sim.cancel(ev)
        assert sim.pending_events == 1

    def test_double_cancel_is_noop(self):
        sim = Simulator()
        ev = sim.schedule(1.0, nop)
        sim.cancel(ev)
        sim.cancel(ev)
        assert sim.pending_events == 0

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        ev = sim.schedule(1.0, nop)
        sim.schedule(2.0, nop)
        sim.run(until=1.0)
        assert ev.fired and sim.events_processed == 1
        sim.cancel(ev)  # already fired; must not corrupt the live count
        assert sim.pending_events == 1

    def test_peek_skips_cancelled_head(self):
        sim = Simulator()
        note, seen = clock_log(sim)
        ev = sim.schedule(1.0, note)
        sim.schedule(9.0, note)
        sim.cancel(ev)
        # the cancelled head is due at the bound, the live event is not
        sim.run(until=1.0)
        assert seen == []
        sim.run(until=9.0)
        assert seen == [9.0]

    def test_empty_queue_pops_none(self):
        sim = Simulator()
        assert sim.run() == 0.0
        assert sim.run(until=1.0) == 1.0
        assert sim.events_processed == 0
        assert sim.pending_events == 0


class TestPopDue:
    """A bounded run pops what is due at its bound and nothing later."""

    def test_bound_blocks_later_events(self):
        sim = Simulator()
        note, seen = clock_log(sim)
        sim.schedule(5.0, note)
        sim.run(until=4.0)
        assert seen == []
        assert sim.pending_events == 1  # untouched
        sim.run(until=5.0)
        assert seen == [5.0]  # event at exactly the bound is due

    def test_unbounded_equals_pop(self):
        sim = Simulator()
        note, seen = clock_log(sim)
        sim.schedule(2.0, note)
        sim.schedule(1e300, note)
        sim.schedule(1.0, note)
        sim.run()
        assert seen == [1.0, 2.0, 1e300]

    def test_bound_drains_cancelled_heads_without_firing_live_tail(self):
        sim = Simulator()
        note, seen = clock_log(sim)
        dead = sim.schedule(1.0, note)
        sim.schedule(9.0, note)
        sim.cancel(dead)
        # The cancelled head is discarded even though the live head is
        # beyond the bound...
        sim.run(until=5.0)
        assert seen == []
        assert len(sim._heap) == 1
        # ...and the live event is still intact.
        assert sim.pending_events == 1
        sim.run()
        assert seen == [9.0]


class TestDrainConsistency:
    """A bounded run that fires nothing and one that fires must account
    for drained-cancelled entries the same way: discarded silently, never
    marked fired, live count kept."""

    def test_peek_drain_matches_pop_drain(self):
        sim = Simulator()
        fired = []
        dead1 = sim.schedule(1.0, fired.append, "dead1")
        dead2 = sim.schedule(2.0, fired.append, "dead2")
        live = sim.schedule(3.0, fired.append, "live")
        sim.cancel(dead1)
        sim.cancel(dead2)
        assert sim.pending_events == 1
        sim.run(until=2.5)  # drains both cancelled heads
        assert fired == []
        assert len(sim._heap) == 1
        assert sim.pending_events == 1  # live count untouched by the drain
        assert not dead1.fired and not dead2.fired
        sim.run()
        assert fired == ["live"] and live.fired
        assert sim.pending_events == 0

    def test_cancel_after_peek_drain_stays_noop(self):
        sim = Simulator()
        dead = sim.schedule(1.0, nop)
        sim.schedule(2.0, nop)
        sim.cancel(dead)
        sim.run(until=1.5)  # physically discards the cancelled entry
        sim.cancel(dead)  # second cancel after the drain: still a no-op
        assert sim.pending_events == 1

    def test_pop_drain_then_peek_consistent(self):
        sim = Simulator()
        fired = []
        dead = sim.schedule(1.0, fired.append, "dead")
        sim.schedule(2.0, fired.append, "live")
        sim.cancel(dead)
        sim.run(until=2.0)  # drains the cancelled head first
        assert fired == ["live"]
        sim.run()
        assert fired == ["live"]
        assert sim.pending_events == 0
        assert sim._heap == []


class TestMassCancellationAccounting:
    """Regression: a retry storm cancelling thousands of watchdogs used
    to leave the storage full of tombstones — the pending count said
    "almost empty" while the next pop still faced an O(d log d) drain
    and the entries pinned memory until the clock swept past them."""

    def test_len_and_storage_agree_after_mass_cancel(self):
        sim = Simulator()
        fired = []
        sim.schedule(1e6, fired.append, "keep")
        doomed = [
            sim.schedule(1.0 + i, fired.append, "dead")
            for i in range(4 * COMPACT_MIN_DEAD)
        ]
        for ev in doomed:
            sim.cancel(ev)
        assert sim.pending_events == 1
        # Compaction must have reclaimed the tombstones: storage is
        # bounded by a small constant over the live population, not by
        # the historical cancellation volume.
        assert len(sim._heap) <= COMPACT_MIN_DEAD + 1
        sim.run()
        assert fired == ["keep"]

    def test_compaction_preserves_order_and_cancellability(self):
        sim = Simulator()
        note, seen = clock_log(sim)
        live = [sim.schedule(1000.0 + i, note) for i in range(50)]
        doomed = [sim.schedule(1.0 + i, note) for i in range(2 * COMPACT_MIN_DEAD)]
        for ev in doomed:
            sim.cancel(ev)
        sim.cancel(live[10])  # cancel a survivor after compaction too
        sim.run()
        expected = [1000.0 + i for i in range(50) if i != 10]
        assert seen == expected
