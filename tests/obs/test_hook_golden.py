"""Golden hook output: every obs surface, invariant verdict and trail.

Eight scenarios exercise every instrumented decision of the engine —
retries, drops, aggregation, offloads, receive interrupts and spills,
collective profiling, spine re-routing and re-planning, drift
re-sampling and fallback-ladder drops, a planted double delivery and an
invariants-only run.  Each scenario reduces every read-out to the
SHA-256 of its canonical JSON: the metrics snapshot, the accuracy
snapshot, the Chrome trace, the collective profiler, the calibration
and invariant snapshots, any violation, and the ``explain`` text of
the scenario's headline message.  With observability off, each obs
surface is recorded as ``None``.

The fixture ``hook_golden.json`` pins those digests, so moving, merging
or reordering a hook site fails here even when no simulated timestamp
moves.  Regenerate it only when an output change is intended::

    PYTHONPATH=src python tests/obs/test_hook_golden.py
"""

import contextlib
import hashlib
import itertools
import json
import pathlib

import pytest

from repro.api import ClusterBuilder, Fabric, FaultSchedule
from repro.api import collectives as coll
from repro.api.mpi import MpiWorld
from repro.bench.runners import default_profiles
from repro.core.engine import NmadEngine
from repro.core.invariants import InvariantViolation
from repro.core.packets import Message
from repro.faults import run_scenario
from repro.obs import explain
import repro.core.packets as packets
import repro.networks.transfer as transfer
import repro.pioman.requests as requests
import repro.threading.tasklet as tasklet

FIXTURE = pathlib.Path(__file__).with_name("hook_golden.json")

RAILS = ("myri10g", "quadrics")


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def _sha(value) -> str:
    return hashlib.sha256(_canonical(value).encode()).hexdigest()


def read_out(cluster, msg=None, violation=None):
    """Every hook-fed read-out of a finished cluster, as digests."""
    obs = cluster.obs
    out = {
        "now": repr(cluster.sim.now),
        "metrics": cluster.metrics_snapshot(),
        "accuracy": obs.accuracy.snapshot() if obs.on else None,
        "trace": cluster.chrome_trace() if obs.on else None,
        "collectives": obs.collectives.snapshot() if obs.on else None,
        "calibration": (
            cluster.calibration_snapshot()
            if cluster.calibration is not None
            else None
        ),
        "invariants": (
            cluster.invariants.snapshot()
            if cluster.invariants is not None
            else None
        ),
        "violation": violation.to_dict() if violation is not None else None,
        "explain": explain(msg) if msg is not None else None,
    }
    return {key: _sha(value) for key, value in out.items()}


# ---------------------------------------------------------------------- #
# scenarios
# ---------------------------------------------------------------------- #


def faults_demo():
    """The DEG NIC-down story: 4 MiB hetero split, fast rail dies at
    150 µs, the stranded chunk is retried on the survivor."""
    schedule = FaultSchedule(seed=7).nic_down(
        "node0.myri10g0", at=150.0, duration=2000.0
    )
    cluster = (
        ClusterBuilder.paper_testbed(strategy="hetero_split")
        .faults(schedule)
        .resilience(timeout="200us")
        .observability()
        .invariants()
        .build()
    )
    sender, receiver = cluster.sessions("node0", "node1")
    receiver.irecv(source="node0")
    msg = sender.isend("node1", "4M")
    cluster.run()
    return read_out(cluster, msg=msg)


def eager_storm():
    """Adaptive eager bursts under a lossy fast rail: aggregation,
    split offloads (idle and preempting), receive interrupts and spills,
    drops and the retries that repair them."""
    schedule = FaultSchedule(seed=5)
    for rail in ("node0.myri10g0", "node0.quadrics1"):
        schedule.eager_loss(rail, probability=0.4, start=20.0, stop=900.0)
    cluster = (
        ClusterBuilder.paper_testbed(strategy="adaptive")
        .faults(schedule)
        .resilience(timeout="150us")
        .observability()
        .invariants()
        .build()
    )
    sender, receiver = cluster.sessions("node0", "node1")
    s_eng, r_eng = cluster.engine("node0"), cluster.engine("node1")
    # Receiver: every core computes at first (interrupts), then only the
    # poll core does (spills to the idle ones).
    r_cores = r_eng.machine.cores
    r_eng.marcel.spawn_compute(r_cores[0], work_us=1500.0)
    for core in r_cores[1:]:
        r_eng.marcel.spawn_compute(core, work_us=120.0)
    # Sender: the other cores compute, so some offloads preempt them.
    for core in s_eng.machine.cores[1:]:
        s_eng.marcel.spawn_compute(core, work_us=400.0)
    sizes = (8, 64, 512, 2048, 16384, 12000, 256, 4096, 16384, 32)
    msgs = []
    t = 0.0
    for burst in range(12):
        t += 35.0
        for k in range(1 + burst % 4):
            size = sizes[(burst + 3 * k) % len(sizes)]
            receiver.irecv(source="node0")
            cluster.sim.schedule_at(
                t, lambda s=size: msgs.append(sender.isend("node1", s))
            )
    cluster.run()
    return read_out(cluster, msg=msgs[0])


def _world(shape):
    fabric = (
        Fabric.flat(8, rails=RAILS)
        if shape == "flat"
        else Fabric.fat_tree(8, rails=RAILS)
    )
    builder = (
        ClusterBuilder("hetero_split")
        .fabric(fabric)
        .sampling(profiles=default_profiles(RAILS))
        .observability()
    )
    return MpiWorld.from_cluster(builder.build())


def ring_alltoall_flat8():
    world = _world("flat")

    def program(comm):
        yield from comm.alltoall(16 * 1024, algorithm="ring")

    world.spawn_all(program)
    world.run()
    return read_out(world.cluster)


def rails_alltoallv_fat_tree8():
    world = _world("fat_tree")
    matrix = coll.moe_matrix(8, 8 * 1024, hot=[2, 5], skew=4)

    def program(comm):
        yield from comm.alltoallv(matrix, algorithm="rails")

    world.spawn_all(program)
    world.run()
    return read_out(world.cluster)


def spine_outage_replan():
    """BENCH_PR10: spine0 of both rails' fat trees dies mid-alltoallv;
    adaptive ECMP re-routes and the collective re-plans."""
    fab = Fabric.fat_tree(
        8, rails=RAILS, pod_size=4, spines=2, prefix="rank", adaptive=True
    )
    schedule = FaultSchedule(seed=1)
    for rail_idx in range(len(RAILS)):
        schedule.spine_down(
            f"fattree{rail_idx}.spine0", at="300us", duration="1200us"
        )
    builder = (
        ClusterBuilder("hetero_split")
        .fabric(fab)
        .sampling(profiles=default_profiles(RAILS))
        .resilience(timeout="200us", max_retries=8)
        .faults(schedule)
        .invariants()
        .observability()
    )
    world = MpiWorld.from_cluster(builder.build())
    matrix = coll.moe_matrix(8, 64 * 1024, hot=[3, 6], skew=8)

    def program(comm):
        yield from comm.alltoallv(matrix, algorithm="replan")

    world.spawn_all(program)
    world.run()
    return read_out(world.cluster)


def cal_silent_degrade():
    """CAL: node0.myri10g0 silently halves at t=0; the drift loop
    detects it, re-samples, and the fallback ladder drops."""
    schedule = FaultSchedule()
    schedule.silent_degrade("node0.myri10g0", at=0.0, bw_factor=0.5)
    cluster = (
        ClusterBuilder.paper_testbed(strategy="hetero_split")
        .sampling(profiles=default_profiles(RAILS))
        .calibration(cooldown=1000.0, min_samples=2)
        .faults(schedule)
        .observability()
        .build()
    )
    src, dst = cluster.sessions("node0", "node1")
    first = []

    def driver():
        for i in range(10):
            dst.irecv(source="node0", tag=i)
            msg = src.isend("node1", 4 * 1024 * 1024, tag=i)
            first.append(msg)
            yield from src.wait(msg)

    cluster.sim.spawn(driver())
    cluster.run()
    return read_out(cluster, msg=first[-1])


@contextlib.contextmanager
def _double_delivery_bug():
    """Dedup disabled, every chunk accounted twice (the planted bug of
    ``tests/chaos/test_double_delivery.py``)."""
    orig_account = NmadEngine._account_delivery
    orig_register = Message.register_delivery

    def buggy(self, *delivery):
        orig_account(self, *delivery)
        orig_account(self, *delivery)

    Message.register_delivery = lambda self, key: True
    NmadEngine._account_delivery = buggy
    try:
        yield
    finally:
        NmadEngine._account_delivery = orig_account
        Message.register_delivery = orig_register


def double_delivery():
    with _double_delivery_bug():
        result = run_scenario(7)
    assert result.violation is not None
    return {
        "result": _sha(result.to_dict()),
        "violation": _sha(result.violation.to_dict()),
    }


def invariants_only():
    """The monitor with observability off: only its verdicts and trail."""
    schedule = FaultSchedule(seed=3).nic_down(
        "node0.quadrics1", at=40.0, duration=300.0
    )
    cluster = (
        ClusterBuilder.paper_testbed(strategy="hetero_split")
        .faults(schedule)
        .resilience(timeout="100us")
        .invariants()
        .build()
    )
    a, b = cluster.sessions("node0", "node1")
    msg = None
    for size in ("4K", "64K", "1M"):
        b.irecv(source="node0")
        msg = a.isend("node1", size)
    cluster.run()
    cluster.check_drain()
    # The trail only leaves the monitor inside a violation: provoke one.
    violation = None
    try:
        cluster.invariants.on_complete(msg, cluster.sim.now)
    except InvariantViolation as exc:
        violation = exc
    assert violation is not None
    return read_out(cluster, msg=msg, violation=violation)


SCENARIOS = {
    "faults_demo": faults_demo,
    "eager_storm": eager_storm,
    "ring_alltoall_flat8": ring_alltoall_flat8,
    "rails_alltoallv_fat_tree8": rails_alltoallv_fat_tree8,
    "spine_outage_replan": spine_outage_replan,
    "cal_silent_degrade": cal_silent_degrade,
    "double_delivery": double_delivery,
    "invariants_only": invariants_only,
}


def run(name):
    """One scenario with the process-global id counters restarted, so
    its ids do not depend on what ran before it (the cached sampling
    pass, which draws ids too, is warmed first)."""
    default_profiles(RAILS)
    packets._msg_seq = itertools.count()
    transfer._transfer_ids = itertools.count()
    tasklet._tasklet_ids = itertools.count()
    requests._request_ids = itertools.count()
    return SCENARIOS[name]()


def generate():
    return {name: run(name) for name in SCENARIOS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_hook_output_matches_golden(golden, name):
    assert run(name) == golden[name]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
