"""Unit tests for Timeline interval arithmetic, plus a live Fig. 4 check."""

import pytest

from repro.obs import Interval, Timeline
from repro.util.errors import ConfigurationError


def tl(**lanes):
    t = Timeline()
    for lane, spans in lanes.items():
        for s, e in spans:
            t.add(lane, Interval(s, e))
    return t


class TestIntervalArithmetic:
    def test_interval_validation(self):
        with pytest.raises(ConfigurationError):
            Interval(5.0, 3.0)

    def test_busy_time_merges_overlaps(self):
        t = tl(a=[(0, 10), (5, 15), (20, 25)])
        assert t.busy_time("a") == 20.0

    def test_span(self):
        t = tl(a=[(2, 4), (10, 12)])
        assert t.span("a") == (2, 12)

    def test_missing_lane_raises(self):
        with pytest.raises(ConfigurationError):
            tl(a=[(0, 1)]).busy_time("b")

    def test_overlap_disjoint_is_zero(self):
        t = tl(a=[(0, 5)], b=[(5, 10)])
        assert t.overlap("a", "b") == 0.0

    def test_overlap_partial(self):
        t = tl(a=[(0, 10)], b=[(5, 20)])
        assert t.overlap("a", "b") == 5.0

    def test_overlap_multiple_segments(self):
        t = tl(a=[(0, 4), (8, 12)], b=[(2, 10)])
        assert t.overlap("a", "b") == 4.0

    def test_idle_gap(self):
        t = tl(fast=[(0, 100)], slow=[(0, 170)])
        assert t.idle_gap("fast", "slow") == 70.0
        assert t.idle_gap("slow", "fast") == 0.0

    def test_max_parallelism(self):
        t = tl(a=[(0, 10)], b=[(5, 15)], c=[(20, 30)])
        assert t.max_parallelism() == 2
        assert t.max_parallelism(["a", "c"]) == 1

    def test_end_over_all_lanes(self):
        t = tl(a=[(0, 7)], b=[(1, 19)])
        assert t.end() == 19.0

    def test_ascii_render_mentions_every_lane(self):
        t = tl(a=[(0, 10)], b=[(5, 15)])
        art = t.to_ascii(width=40)
        assert "a" in art and "b" in art and "#" in art

    def test_ascii_empty(self):
        assert "empty" in Timeline().to_ascii()


class TestFromMachine:
    """Timelines recorded from one machine's hook stream."""

    def test_fig4_overlap_discriminates_serial_vs_parallel(self, sim):
        """Two PIO copies: same core → no overlap; two cores → overlap."""
        from repro.hardware import Machine
        from repro.networks import Nic, Transfer, TransferKind, Wire, rail_profile

        node_a = Machine(sim, "a")
        node_b = Machine(sim, "b")
        mx = Nic(node_a, rail_profile("myri10g"), name="mx")
        elan = Nic(node_a, rail_profile("quadrics"), name="elan")
        Wire(mx, Nic(node_b, rail_profile("myri10g"), name="mx"))
        Wire(elan, Nic(node_b, rail_profile("quadrics"), name="elan"))

        timeline = Timeline.record(node_a)

        def send_pair(core_a, core_b):
            t1 = Transfer(kind=TransferKind.EAGER, size=16384, msg_id=1)
            t2 = Transfer(kind=TransferKind.EAGER, size=16384, msg_id=2)
            mx.submit(t1, core_a)
            elan.submit(t2, core_b)

        send_pair(node_a.cores[0], node_a.cores[0])
        sim.run()
        assert timeline.overlap("nic:mx", "nic:elan") == pytest.approx(0.0, abs=1e-9)

        send_pair(node_a.cores[1], node_a.cores[2])
        sim.run()
        assert timeline.overlap("core1", "core2") > 5.0

    def test_open_window_is_clipped_when_read(self, sim):
        """A degrade inside an open window keeps its start; the window
        ends wherever the clock is when the lanes are read."""
        from repro.hardware import Machine
        from repro.networks import Nic, Wire, rail_profile

        node_a = Machine(sim, "a")
        nic = Nic(node_a, rail_profile("myri10g"), name="mx")
        Wire(nic, Nic(Machine(sim, "b"), rail_profile("myri10g"), name="mx"))
        timeline = Timeline.record(node_a)
        sim.schedule_at(10.0, nic.degrade, 0.5)
        sim.schedule_at(20.0, nic.degrade, 0.25)
        sim.run(until=30.0)
        assert timeline.intervals("fault:mx") == [Interval(10.0, 30.0, "degraded")]
        sim.schedule_at(50.0, lambda: None)
        sim.run()
        assert timeline.intervals("fault:mx") == [Interval(10.0, 50.0, "degraded")]
