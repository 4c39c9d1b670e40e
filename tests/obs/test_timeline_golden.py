"""Golden lanes of the timeline recorder.

``timeline_golden.json`` holds every lane and every ``(start, end,
label)`` interval, floats as ``repr``, of six scenarios: FIG4's
multicore split (``post:``, ``pio:`` and ``tasklet:`` core slices), the
DEG NIC-down story (fault and retry lanes), a degrade then restore with
a NIC still down at drain (a clipped window), ``Nic.inject_busy``
background work on a cluster and on a raw machine with no engine, and a
preempted compute thread (``compute:`` slices beside a ``tasklet:``).

The fixture predates the recorder: it was written by the timeline that
scanned per-device work, fault and retry logs, so this test pins that the
hook stream rebuilds those lanes exactly.  A scenario gets its views
through ``record(target)``, called after the build and before the run;
it returns a callable that reads the timeline once the run is over.
"""

import itertools
import json
import pathlib

import pytest

from repro.api import ClusterBuilder, FaultSchedule
from repro.bench.experiments import fig4
from repro.bench.runners import build_paper_cluster, default_profiles, measure_oneway
from repro.core.strategies import HeteroSplitStrategy, MulticoreSplitStrategy
from repro.hardware import Machine
from repro.networks import MxDriver, Nic, Transfer, TransferKind, Wire
from repro.simtime import Simulator
from repro.threading import MarcelScheduler, Tasklet
from repro.util.units import KiB, MiB
import repro.core.packets as packets
import repro.networks.transfer as transfer
import repro.pioman.requests as requests
import repro.threading.tasklet as tasklet

FIXTURE = pathlib.Path(__file__).with_name("timeline_golden.json")


def fig4_multicore(record):
    cluster = build_paper_cluster(
        MulticoreSplitStrategy(min_split=256), profiles=default_profiles()
    )
    views = {
        "cluster": record(cluster),
        "node0": record(cluster.machines["node0"]),
    }
    measure_oneway(cluster, 2 * fig4.DEFAULT_SEGMENT)
    return views


def deg_nic_down_story(record):
    """The send of ``degraded._nic_down_story``: 4 MiB, node0.myri10g0
    down over 150..2150 us, watchdog on."""
    schedule = FaultSchedule(seed=7).nic_down(
        "node0.myri10g0", at=150.0, duration=2000.0
    )
    cluster = (
        ClusterBuilder.paper_testbed(strategy="hetero_split")
        .faults(schedule)
        .resilience(timeout="200us")
        .build()
    )
    views = {"cluster": record(cluster)}
    sender, receiver = cluster.sessions("node0", "node1")
    receiver.irecv(source="node0")
    sender.isend("node1", "4M")
    cluster.run()
    return views


def degrade_restore_open_down(record):
    """A degrade, a second degrade inside it, the restore, then a NIC
    that goes down mid-send and never comes back."""
    schedule = (
        FaultSchedule(seed=3)
        .degrade(
            "node0.quadrics1", at=20.0, bw_factor=0.5, extra_latency=2.0,
            duration=100.0,
        )
        .degrade("node0.quadrics1", at=60.0, bw_factor=0.25)
        .nic_down("node0.myri10g0", at=400.0)
    )
    cluster = (
        ClusterBuilder.paper_testbed(strategy="hetero_split")
        .sampling(profiles=default_profiles())
        .faults(schedule)
        .resilience(timeout="200us")
        .build()
    )
    views = {"cluster": record(cluster)}
    sender, receiver = cluster.sessions("node0", "node1")
    receiver.irecv(source="node0")
    sender.isend("node1", 2 * MiB)
    cluster.run()
    return views


def background_busy(record):
    cluster = build_paper_cluster(
        HeteroSplitStrategy(rdv_threshold=32 * KiB), profiles=default_profiles()
    )
    views = {"cluster": record(cluster)}
    cluster.machines["node0"].nic_by_name("myri10g0").inject_busy(200.0)
    measure_oneway(cluster, 512 * KiB)
    return views


def raw_machine(record):
    """Two machines wired by hand, no engine: the NIC pipelines alone."""
    sim = Simulator()
    a, b = Machine(sim, "a"), Machine(sim, "b")
    mx = Nic(a, MxDriver(), name="mx")
    Wire(mx, Nic(b, MxDriver(), name="mx"))
    views = {"a": record(a)}
    mx.inject_busy(25.0)
    mx.submit(Transfer(kind=TransferKind.EAGER, size=4096, msg_id=1), a.cores[0])
    mx.submit(
        Transfer(kind=TransferKind.RDV_DATA, size=64 * KiB, msg_id=2), a.cores[1]
    )
    mx.submit(Transfer(kind=TransferKind.RDV_REQ, size=0, msg_id=3), a.cores[0])
    mx.inject_busy(10.0)
    sim.run()
    return views


def preempted_compute(record):
    sim = Simulator()
    machine = Machine(sim, "node0")
    marcel = MarcelScheduler(machine)
    views = {"node0": record(machine)}
    marcel.spawn_compute(machine.cores[1], work_us=50.0)

    def fire():
        marcel.schedule_tasklet(
            Tasklet(body=lambda: None, cpu_cost=10.0, name="t"),
            machine.cores[1],
            from_core=machine.cores[0],
        )

    sim.schedule(20.0, fire)
    sim.run()
    return views


SCENARIOS = {
    "fig4_multicore": fig4_multicore,
    "deg_nic_down_story": deg_nic_down_story,
    "degrade_restore_open_down": degrade_restore_open_down,
    "background_busy": background_busy,
    "raw_machine": raw_machine,
    "preempted_compute": preempted_compute,
}


def lanes_of(timeline):
    """Every lane -> ``[start, end, label]`` rows, floats as ``repr``."""
    return {
        lane: [
            [repr(iv.start), repr(iv.end), iv.label]
            for iv in timeline.intervals(lane)
        ]
        for lane in timeline.lanes
    }


def run(name, record):
    """One scenario with the process-global id counters restarted (the
    retry lane's labels carry message ids), after warming the cached
    sampling pass that draws ids too."""
    default_profiles()
    packets._msg_seq = itertools.count()
    transfer._transfer_ids = itertools.count()
    tasklet._tasklet_ids = itertools.count()
    requests._request_ids = itertools.count()
    views = SCENARIOS[name](record)
    return {view: lanes_of(read()) for view, read in views.items()}


def write(record):
    """Write the fixture, reading every view through ``record``."""
    golden = {name: run(name, record) for name in SCENARIOS}
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def _record(target):
    from repro.obs import Timeline

    timeline = Timeline.record(target)
    return lambda: timeline


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_recorded_lanes_match_golden(golden, name):
    assert run(name, _record) == golden[name]
