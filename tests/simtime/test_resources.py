"""Unit tests for one-slot FIFO resources (the core-occupancy primitive)."""

import pytest

from repro.simtime import Resource, Simulator
from repro.util.errors import SimulationError


def worker(sim, res, hold, log, tag):
    """Claim ``res``, log the grant, hold the slot ``hold`` µs, then
    release it and log the end."""

    def granted(ticket):
        log.append((tag, "start", sim.now))
        sim.call_later(hold, done, ticket)

    def done(ticket):
        res.release(ticket)
        log.append((tag, "end", sim.now))

    res.acquire(granted)


class TestResourceSerialization:
    def test_capacity_one_serializes_holders(self):
        sim = Simulator()
        res = Resource(sim, name="core")
        log = []
        worker(sim, res, 5.0, log, "a")
        worker(sim, res, 3.0, log, "b")
        sim.run()
        assert log == [
            ("a", "start", 0.0),
            ("a", "end", 5.0),
            ("b", "start", 5.0),
            ("b", "end", 8.0),
        ]

    def test_fifo_admission_order(self):
        sim = Simulator()
        res = Resource(sim)
        log = []
        for tag in "abcde":
            worker(sim, res, 1.0, log, tag)
        sim.run()
        assert [tag for tag, kind, _ in log if kind == "start"] == list("abcde")

    def test_no_gap_between_release_and_next_grant(self):
        """Back-to-back holders leave zero idle time (Fig. 4a serialization)."""
        sim = Simulator()
        res = Resource(sim)
        log = []
        worker(sim, res, 2.0, log, "x")
        worker(sim, res, 2.0, log, "y")
        sim.run()
        x_end = next(t for tag, kind, t in log if (tag, kind) == ("x", "end"))
        y_start = next(t for tag, kind, t in log if (tag, kind) == ("y", "start"))
        assert y_start == x_end


class TestResourceErrors:
    def test_double_release_rejected(self):
        """Releasing twice is caught after the slot fell free too."""
        sim = Simulator()
        res = Resource(sim)
        ticket = res.acquire(lambda ticket: None)
        res.release(ticket)
        assert not res.busy
        with pytest.raises(SimulationError, match="double release"):
            res.release(ticket)

    def test_release_of_ungranted_request_rejected(self):
        """A ticket never handed out is not granted either (a queued one:
        ``TestTicketLock``)."""
        sim = Simulator()
        res = Resource(sim)
        with pytest.raises(SimulationError, match="ungranted"):
            res.release(0)
        res.release(res.acquire(lambda ticket: None))
        with pytest.raises(SimulationError, match="ungranted"):
            res.release(1)

    def test_counters(self):
        sim = Simulator()
        res = Resource(sim)
        granted = []
        t1, t2, t3 = (res.acquire(granted.append) for _ in range(3))
        assert res.busy
        assert res.queued == 2
        sim.run()
        assert granted == [t1]
        res.release(t1)
        assert res.busy  # the first queued claim got the slot
        assert res.queued == 1
        sim.run()
        assert granted == [t1, t2]
        res.release(t2)
        res.release(t3)
        assert not res.busy
        assert res.queued == 0


class TestCallbackAcquire:
    def test_callback_runs_one_hop_after_the_grant(self):
        sim = Simulator()
        res = Resource(sim)
        log = []
        first = res.acquire(lambda ticket, tag: log.append((tag, ticket, sim.now)), "a")
        second = res.acquire(lambda ticket, tag: log.append((tag, ticket, sim.now)), "b")
        assert log == []  # granted, but the waiter resumes from the lane
        sim.run()
        assert log == [("a", first, 0.0)]
        sim.schedule(3.0, res.release, first)
        sim.run()
        assert log == [("a", first, 0.0), ("b", second, 3.0)]


class TestTicketLock:
    """A grant is a ticket: an int from one counter, served in order."""

    def test_acquire_hands_its_ticket_to_the_callback(self):
        sim = Simulator()
        res = Resource(sim)
        got = []
        first = res.acquire(got.append)
        second = res.acquire(got.append)
        assert isinstance(first, int) and second == first + 1
        sim.run()
        assert got == [first]
        res.release(first)
        sim.run()
        assert got == [first, second]

    def test_releasing_a_queued_ticket_rejected(self):
        sim = Simulator()
        res = Resource(sim)
        res.acquire(lambda ticket: None)
        queued = res.acquire(lambda ticket: None)
        with pytest.raises(SimulationError, match="ungranted"):
            res.release(queued)

    def test_releasing_a_ticket_twice_rejected(self):
        sim = Simulator()
        res = Resource(sim)
        ticket = res.acquire(lambda ticket: None)
        res.acquire(lambda ticket: None)
        res.release(ticket)
        with pytest.raises(SimulationError, match="double release"):
            res.release(ticket)
