"""Tracer primitives: recording, limits, the off path."""

import pytest

from repro.api import ClusterBuilder
from repro.obs import Tracer
from repro.util.errors import ConfigurationError


class TestRecording:
    def test_complete_event_shape(self):
        tr = Tracer()
        tr.complete("node0", "nic:myri0", "tx:eager", ts=10.0, dur=2.5,
                    cat="tx", args={"size": 4096})
        (ev,) = tr.events
        assert ev["ph"] == "X"
        assert ev["pid"] == "node0"
        assert ev["tid"] == "nic:myri0"
        assert ev["ts"] == 10.0 and ev["dur"] == 2.5
        assert ev["args"] == {"size": 4096}

    def test_instant_carries_thread_scope(self):
        tr = Tracer()
        tr.instant("node0", "faults", "retry", ts=5.0)
        assert tr.events[0]["ph"] == "i"
        assert tr.events[0]["s"] == "t"

    def test_async_pair_shares_id(self):
        tr = Tracer()
        tr.async_begin("node0", "messages", "msg3", span_id=3, ts=1.0)
        tr.async_end("node0", "messages", "msg3", span_id=3, ts=9.0)
        begin, end = tr.events
        assert (begin["ph"], end["ph"]) == ("b", "e")
        assert begin["id"] == end["id"] == 3

    def test_seq_is_record_order(self):
        tr = Tracer()
        tr.instant("n", "l", "a", ts=2.0)
        tr.instant("n", "l", "b", ts=1.0)  # out of ts order on purpose
        assert [ev["seq"] for ev in tr.events] == [0, 1]

    def test_counter_event(self):
        tr = Tracer()
        tr.counter("node0", "queue", ts=4.0, values={"depth": 7})
        assert tr.events[0]["ph"] == "C"


class TestLimit:
    @pytest.mark.parametrize("limit", [0, -5])
    def test_limit_must_be_positive(self, limit):
        with pytest.raises(ConfigurationError):
            Tracer(limit)

    def test_drops_deterministically_past_limit(self):
        tr = Tracer(limit=3)
        for i in range(5):
            tr.instant("n", "l", f"e{i}", ts=float(i))
        assert len(tr.events) == 3
        assert tr.dropped == 2
        assert [ev["name"] for ev in tr.events] == ["e0", "e1", "e2"]

    def test_clear_resets_everything(self):
        tr = Tracer(limit=1)
        tr.instant("n", "l", "a", ts=0.0)
        tr.instant("n", "l", "b", ts=0.0)
        tr.clear()
        assert tr.events == [] and tr.dropped == 0
        tr.instant("n", "l", "c", ts=0.0)
        assert tr.events[0]["seq"] == 0

    def test_keeps_the_end_of_a_recorded_begin(self):
        tr = Tracer(limit=2)
        tr.async_begin("n", "l", "kept", span_id=1, ts=0.0)
        tr.async_begin("n", "l", "also-kept", span_id=2, ts=0.0)
        tr.async_begin("n", "l", "dropped", span_id=3, ts=1.0)
        tr.async_end("n", "l", "dropped", span_id=3, ts=2.0)
        tr.async_end("n", "l", "kept", span_id=1, ts=3.0)
        tr.async_end("n", "l", "kept", span_id=1, ts=4.0)
        tr.async_end("n", "l", "also-kept", span_id=2, ts=5.0)
        assert [(ev["ph"], ev["name"]) for ev in tr.events] == [
            ("b", "kept"), ("b", "also-kept"), ("e", "kept"), ("e", "also-kept"),
        ]
        assert tr.dropped == 3
        assert [ev["seq"] for ev in tr.events] == [0, 1, 2, 3]

    @pytest.mark.parametrize("limit", range(1, 21))
    def test_truncated_cluster_trace_validates(self, limit):
        """Three 64 KiB hetero-split sends record 44 events; any smaller
        limit still pairs every recorded async begin with its end."""
        from repro.obs import validate_chrome_trace

        from repro.obs import chrome_trace

        cluster = ClusterBuilder.paper_testbed(strategy="hetero_split").build()
        tracer = Tracer(limit)
        cluster.hooks.subscribe(tracer)
        a, b = cluster.sessions("node0", "node1")
        for _ in range(3):
            b.irecv(source="node0")
            a.isend("node1", "64K")
        cluster.run()
        assert tracer.dropped > 0
        assert validate_chrome_trace(chrome_trace(tracer)) == []


class TestNullTracer:
    """Observability off: the tracer is not subscribed and records
    nothing."""

    def test_is_disabled_and_inert(self):
        cluster = ClusterBuilder.paper_testbed().build()
        a, b = cluster.sessions("node0", "node1")
        b.irecv(source="node0")
        a.isend("node1", "1M")
        cluster.run()
        tracer = cluster.obs.tracer
        assert cluster.obs.on is False
        assert tracer not in cluster.hooks.subscribers
        assert len(tracer.events) == 0
        assert tracer.dropped == 0


VALUES = (str, int, float, bool, type(None))


def _values_only(record) -> bool:
    if isinstance(record, tuple):
        return all(_values_only(field) for field in record)
    return type(record) in VALUES


class TestRecords:
    """The tracer keeps values, never model objects, and builds its
    dicts only at read-out."""

    def test_records_hold_values_only(self):
        from repro.api import Fabric
        from repro.api.collectives import moe_matrix
        from repro.api.mpi import MpiWorld
        from repro.bench.runners import default_profiles

        rails = ("myri10g", "quadrics")
        world = MpiWorld.create(
            fabric=Fabric.fat_tree(8, rails=rails),
            profiles=default_profiles(rails),
            observability=True,
        )
        # 32 KiB: large enough that the split planner runs (on_plan)
        matrix = moe_matrix(8, 32 * 1024, hot=[2, 5], skew=6)

        def program(comm):
            yield from comm.alltoallv(matrix, algorithm="auto")

        world.spawn_all(program)
        world.run()
        obs = world.cluster.obs
        kinds = {rec[0][0] for rec in obs.tracer.records}
        assert kinds == {"b", "e", "X", "i"}
        assert all(_values_only(rec) for rec in obs.tracer.records)
        world.cluster.chrome_trace()  # flushes the collective spans
        assert all(_values_only(rec) for rec in obs.tracer.records)

    def test_a_deferred_send_keeps_its_posted_mode(self):
        """Posted while every rail is down, a message has no mode yet;
        the engine picks one once a rail is back, after ``on_send``."""
        from repro.api import FaultSchedule

        schedule = FaultSchedule(seed=1)
        for rail in ("node0.myri10g0", "node0.quadrics1"):
            schedule.nic_down(rail, at=0.0, duration=50.0)
        cluster = (
            ClusterBuilder.paper_testbed(strategy="hetero_split")
            .faults(schedule)
            .resilience(timeout="200us")
            .observability()
            .build()
        )
        a, b = cluster.sessions("node0", "node1")
        b.irecv(source="node0")
        msgs = []
        cluster.sim.schedule_at(10.0, lambda: msgs.append(a.isend("node1", "64K")))
        cluster.run()
        (msg,) = msgs
        assert msg.t_complete is not None and msg.mode is not None
        (begin,) = [
            ev for ev in cluster.obs.tracer.events
            if ev["ph"] == "b" and ev["name"] == f"msg{msg.msg_id}"
        ]
        assert begin["args"]["mode"] == "deferred"
