"""Unit tests for one-slot FIFO resources (the core-occupancy primitive)."""

import pytest

from repro.simtime import Resource, Simulator, Timeout
from repro.util.errors import SimulationError


def worker(sim, res, hold, log, tag):
    req = res.request()
    yield req
    log.append((tag, "start", sim.now))
    yield Timeout(hold)
    res.release(req)
    log.append((tag, "end", sim.now))


class TestResourceSerialization:
    def test_capacity_one_serializes_holders(self):
        sim = Simulator()
        res = Resource(sim, name="core")
        log = []
        sim.spawn(worker(sim, res, 5.0, log, "a"))
        sim.spawn(worker(sim, res, 3.0, log, "b"))
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
        starts = []

        def w(tag):
            req = res.request()
            yield req
            starts.append(tag)
            yield Timeout(1.0)
            res.release(req)

        for tag in "abcde":
            sim.spawn(w(tag))
        sim.run()
        assert starts == list("abcde")

    def test_no_gap_between_release_and_next_grant(self):
        """Back-to-back holders leave zero idle time (Fig. 4a serialization)."""
        sim = Simulator()
        res = Resource(sim)
        log = []
        sim.spawn(worker(sim, res, 2.0, log, "x"))
        sim.spawn(worker(sim, res, 2.0, log, "y"))
        sim.run()
        x_end = next(t for tag, kind, t in log if (tag, kind) == ("x", "end"))
        y_start = next(t for tag, kind, t in log if (tag, kind) == ("y", "start"))
        assert y_start == x_end


class TestResourceErrors:
    def test_double_release_rejected(self):
        sim = Simulator()
        res = Resource(sim)
        req = res.request()
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    def test_release_of_ungranted_request_rejected(self):
        sim = Simulator()
        res = Resource(sim)
        res.request()  # takes the slot
        queued = res.request()
        with pytest.raises(SimulationError):
            res.release(queued)

    def test_counters(self):
        sim = Simulator()
        res = Resource(sim)
        r1 = res.request()
        r2 = res.request()
        r3 = res.request()
        assert res.busy
        assert res.queued == 2
        assert (r1.granted, r2.granted, r3.granted) == (True, False, False)
        res.release(r1)
        assert res.busy  # the first queued waiter got the slot
        assert res.queued == 1
        assert r2.granted and not r3.granted
        res.release(r2)
        res.release(r3)
        assert not res.busy
        assert res.queued == 0


class TestCallbackAcquire:
    def test_callback_runs_one_hop_after_the_grant(self):
        sim = Simulator()
        res = Resource(sim)
        log = []
        first = res.acquire(lambda req, tag: log.append((tag, req, sim.now)), "a")
        second = res.acquire(lambda req, tag: log.append((tag, req, sim.now)), "b")
        assert log == []  # granted, but the waiter resumes from the lane
        sim.run()
        assert log == [("a", first, 0.0)]
        sim.schedule(3.0, res.release, first)
        sim.run()
        assert log == [("a", first, 0.0), ("b", second, 3.0)]

    def test_second_waiter_on_one_request_rejected(self):
        sim = Simulator()
        res = Resource(sim)
        res.request()
        queued = res.request()
        queued.subscribe(sim, lambda req: None)
        with pytest.raises(SimulationError, match="already has a waiter"):
            queued.subscribe(sim, lambda req: None)


class TestTicketLock:
    """A callback-style grant is a ticket; processes keep their
    request.  Both take tickets from one counter and queue in one FIFO."""

    def test_interleaved_styles_granted_in_fifo_order(self):
        sim = Simulator()
        res = Resource(sim)
        log = []

        def proc(tag, hold):
            req = res.request()
            log.append((tag, "claim", sim.now))
            yield req
            log.append((tag, "granted", sim.now))
            yield Timeout(hold)
            res.release(req)

        def granted(ticket, tag, hold):
            log.append((tag, "granted", sim.now))
            sim.schedule(hold, res.release, ticket)

        def claim(tag, hold):
            log.append((tag, "claim", sim.now))
            res.acquire(granted, tag, hold)

        sim.spawn(proc("p0", 2.0))
        sim.call_soon(claim, "a1", 0.0)
        sim.spawn(proc("p2", 1.0))
        sim.call_soon(claim, "a3", 0.0)
        sim.spawn(proc("p4", 0.0))
        sim.call_soon(claim, "a5", 1.0)
        sim.schedule(0.5, claim, "a6", 1.0)
        sim.run()
        assert [entry for entry in log if entry[1] == "granted"] == [
            ("p0", "granted", 0.0),
            ("a1", "granted", 2.0),
            ("p2", "granted", 2.0),
            ("a3", "granted", 3.0),
            ("p4", "granted", 3.0),
            ("a5", "granted", 3.0),
            ("a6", "granted", 4.0),
        ]
        # the whole trace, and the event count, of the request-per-grant
        # resource this lock replaced
        assert log.index(("a6", "claim", 0.5)) == 7
        assert (sim.events_processed, sim.now) == (21, 5.0)

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
