"""Unit tests for the event-queue primitives."""

import pytest

from repro.simtime.events import COMPACT_MIN_DEAD, EventQueue


def nop():
    pass


class TestEventQueueOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        fired = []
        q.push(3.0, fired.append, ("c",))
        q.push(1.0, fired.append, ("a",))
        q.push(2.0, fired.append, ("b",))
        while (ev := q.pop()) is not None:
            ev.callback(*ev.args)
        assert fired == ["a", "b", "c"]

    def test_same_time_fires_in_insertion_order(self):
        q = EventQueue()
        order = []
        for i in range(10):
            q.push(5.0, order.append, (i,))
        while (ev := q.pop()) is not None:
            ev.callback(*ev.args)
        assert order == list(range(10))

    def test_priority_breaks_time_ties(self):
        q = EventQueue()
        order = []
        q.push(5.0, order.append, ("user",), priority=0)
        q.push(5.0, order.append, ("kernel",), priority=-1)
        while (ev := q.pop()) is not None:
            ev.callback(*ev.args)
        assert order == ["kernel", "user"]

    def test_peek_time_matches_next_pop(self):
        q = EventQueue()
        q.push(7.0, nop)
        q.push(2.0, nop)
        assert q.peek_time() == 2.0
        assert q.pop().time == 2.0
        assert q.peek_time() == 7.0


class TestEventQueueCancellation:
    def test_cancelled_event_is_skipped(self):
        q = EventQueue()
        fired = []
        ev = q.push(1.0, fired.append, ("dead",))
        q.push(2.0, fired.append, ("live",))
        q.cancel(ev)
        while (e := q.pop()) is not None:
            e.callback(*e.args)
        assert fired == ["live"]

    def test_len_counts_live_events_only(self):
        q = EventQueue()
        ev = q.push(1.0, nop)
        q.push(2.0, nop)
        assert len(q) == 2
        q.cancel(ev)
        assert len(q) == 1

    def test_double_cancel_is_noop(self):
        q = EventQueue()
        ev = q.push(1.0, nop)
        q.cancel(ev)
        q.cancel(ev)
        assert len(q) == 0

    def test_cancel_after_fire_is_noop(self):
        q = EventQueue()
        ev = q.push(1.0, nop)
        q.push(2.0, nop)
        assert q.pop() is ev
        q.cancel(ev)  # already fired; must not corrupt the live count
        assert len(q) == 1

    def test_peek_skips_cancelled_head(self):
        q = EventQueue()
        ev = q.push(1.0, nop)
        q.push(9.0, nop)
        q.cancel(ev)
        assert q.peek_time() == 9.0

    def test_empty_queue_pops_none(self):
        q = EventQueue()
        assert q.pop() is None
        assert q.peek_time() is None
        assert not q


class TestPopDue:
    def test_bound_blocks_later_events(self):
        q = EventQueue()
        q.push(5.0, nop)
        assert q.pop_due(4.0) is None
        assert len(q) == 1  # untouched
        assert q.pop_due(5.0).time == 5.0  # event at exactly the bound is due

    def test_unbounded_equals_pop(self):
        q = EventQueue()
        q.push(2.0, nop)
        q.push(1.0, nop)
        assert q.pop_due(None).time == 1.0
        assert q.pop().time == 2.0

    def test_bound_drains_cancelled_heads_without_firing_live_tail(self):
        q = EventQueue()
        dead = q.push(1.0, nop)
        q.push(9.0, nop)
        q.cancel(dead)
        # The cancelled head is discarded even though the live head is
        # beyond the bound...
        assert q.pop_due(5.0) is None
        # ...and the live event is still intact.
        assert len(q) == 1
        assert q.peek_time() == 9.0


class TestDrainConsistency:
    """peek_time and pop must account for drained-cancelled entries the
    same way: discarded silently, never marked fired, live count kept."""

    def test_peek_drain_matches_pop_drain(self):
        q = EventQueue()
        dead1 = q.push(1.0, nop)
        dead2 = q.push(2.0, nop)
        live = q.push(3.0, nop)
        q.cancel(dead1)
        q.cancel(dead2)
        assert len(q) == 1
        assert q.peek_time() == 3.0  # drains both cancelled heads
        assert len(q) == 1  # live count untouched by the drain
        assert not dead1.fired and not dead2.fired
        assert q.pop() is live
        assert len(q) == 0

    def test_cancel_after_peek_drain_stays_noop(self):
        q = EventQueue()
        dead = q.push(1.0, nop)
        q.push(2.0, nop)
        q.cancel(dead)
        q.peek_time()  # physically discards the cancelled entry
        q.cancel(dead)  # second cancel after the drain: still a no-op
        assert len(q) == 1

    def test_pop_drain_then_peek_consistent(self):
        q = EventQueue()
        dead = q.push(1.0, nop)
        live = q.push(2.0, nop)
        q.cancel(dead)
        assert q.pop() is live  # pop drains the cancelled head first
        assert q.peek_time() is None
        assert len(q) == 0


class TestMassCancellationAccounting:
    """Regression: a retry storm cancelling thousands of watchdogs used
    to leave the storage full of tombstones — ``__len__`` said "almost
    empty" while ``peek_time`` still faced an O(d log d) drain and the
    entries pinned memory until the clock swept past them."""

    def test_len_and_storage_agree_after_mass_cancel(self):
        q = EventQueue()
        keep = q.push(1e6, nop)
        doomed = [q.push(float(i), nop) for i in range(4 * COMPACT_MIN_DEAD)]
        for ev in doomed:
            q.cancel(ev)
        assert len(q) == 1
        # Compaction must have reclaimed the tombstones: storage is
        # bounded by a small constant over the live population, not by
        # the historical cancellation volume.
        assert q.storage_size <= COMPACT_MIN_DEAD + 1
        assert q.peek_time() == 1e6
        assert q.pop() is keep

    def test_compaction_preserves_order_and_cancellability(self):
        q = EventQueue()
        live = [q.push(1000.0 + i, nop) for i in range(50)]
        doomed = [q.push(float(i), nop) for i in range(2 * COMPACT_MIN_DEAD)]
        for ev in doomed:
            q.cancel(ev)
        q.cancel(live[10])  # cancel a survivor after compaction too
        times = []
        while (ev := q.pop()) is not None:
            times.append(ev.time)
        expected = [1000.0 + i for i in range(50) if i != 10]
        assert times == expected
