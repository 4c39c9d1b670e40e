"""Unit tests for the event-queue primitives."""

from repro.simtime.events import COMPACT_MIN_DEAD, EventQueue


def nop():
    pass


def drain(q):
    """Pop every live event in order (an unbounded ``pop_due``)."""
    out = []
    while (ev := q.pop_due(None)) is not None:
        out.append(ev)
    return out


class TestEventQueueOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        fired = []
        q.push(3.0, fired.append, ("c",))
        q.push(1.0, fired.append, ("a",))
        q.push(2.0, fired.append, ("b",))
        for ev in drain(q):
            ev.callback(*ev.args)
        assert fired == ["a", "b", "c"]

    def test_same_time_fires_in_insertion_order(self):
        q = EventQueue()
        order = []
        for i in range(10):
            q.push(5.0, order.append, (i,))
        for ev in drain(q):
            ev.callback(*ev.args)
        assert order == list(range(10))


class TestEventQueueCancellation:
    def test_cancelled_event_is_skipped(self):
        q = EventQueue()
        fired = []
        ev = q.push(1.0, fired.append, ("dead",))
        q.push(2.0, fired.append, ("live",))
        q.cancel(ev)
        for e in drain(q):
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
        assert q.pop_due(None) is ev
        q.cancel(ev)  # already fired; must not corrupt the live count
        assert len(q) == 1

    def test_peek_skips_cancelled_head(self):
        q = EventQueue()
        ev = q.push(1.0, nop)
        live = q.push(9.0, nop)
        q.cancel(ev)
        # the cancelled head is due at the bound, the live event is not
        assert q.pop_due(1.0) is None
        assert q.pop_due(9.0) is live

    def test_empty_queue_pops_none(self):
        q = EventQueue()
        assert q.pop_due(None) is None
        assert q.pop_due(1.0) is None
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
        q.push(1e300, nop)
        q.push(1.0, nop)
        assert [ev.time for ev in drain(q)] == [1.0, 2.0, 1e300]

    def test_bound_drains_cancelled_heads_without_firing_live_tail(self):
        q = EventQueue()
        dead = q.push(1.0, nop)
        q.push(9.0, nop)
        q.cancel(dead)
        # The cancelled head is discarded even though the live head is
        # beyond the bound...
        assert q.pop_due(5.0) is None
        assert len(q._heap) == 1
        # ...and the live event is still intact.
        assert len(q) == 1
        assert q.pop_due(None).time == 9.0


class TestDrainConsistency:
    """A bounded pop that fires nothing and one that fires must account
    for drained-cancelled entries the same way: discarded silently, never
    marked fired, live count kept."""

    def test_peek_drain_matches_pop_drain(self):
        q = EventQueue()
        dead1 = q.push(1.0, nop)
        dead2 = q.push(2.0, nop)
        live = q.push(3.0, nop)
        q.cancel(dead1)
        q.cancel(dead2)
        assert len(q) == 1
        assert q.pop_due(2.5) is None  # drains both cancelled heads
        assert len(q._heap) == 1
        assert len(q) == 1  # live count untouched by the drain
        assert not dead1.fired and not dead2.fired
        assert q.pop_due(None) is live
        assert len(q) == 0

    def test_cancel_after_peek_drain_stays_noop(self):
        q = EventQueue()
        dead = q.push(1.0, nop)
        q.push(2.0, nop)
        q.cancel(dead)
        q.pop_due(1.5)  # physically discards the cancelled entry
        q.cancel(dead)  # second cancel after the drain: still a no-op
        assert len(q) == 1

    def test_pop_drain_then_peek_consistent(self):
        q = EventQueue()
        dead = q.push(1.0, nop)
        live = q.push(2.0, nop)
        q.cancel(dead)
        assert q.pop_due(None) is live  # drains the cancelled head first
        assert q.pop_due(None) is None
        assert len(q) == 0
        assert q._heap == []


class TestMassCancellationAccounting:
    """Regression: a retry storm cancelling thousands of watchdogs used
    to leave the storage full of tombstones — ``__len__`` said "almost
    empty" while the next pop still faced an O(d log d) drain and the
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
        assert len(q._heap) <= COMPACT_MIN_DEAD + 1
        assert q.pop_due(None) is keep

    def test_compaction_preserves_order_and_cancellability(self):
        q = EventQueue()
        live = [q.push(1000.0 + i, nop) for i in range(50)]
        doomed = [q.push(float(i), nop) for i in range(2 * COMPACT_MIN_DEAD)]
        for ev in doomed:
            q.cancel(ev)
        q.cancel(live[10])  # cancel a survivor after compaction too
        times = [ev.time for ev in drain(q)]
        expected = [1000.0 + i for i in range(50) if i != 10]
        assert times == expected
