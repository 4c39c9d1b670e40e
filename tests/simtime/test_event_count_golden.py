"""Golden event counts: four canonical episodes, end clock and events.

Every simulated result hangs on the kernel firing the same events in
the same order; the benchmark's ``sim_digest`` checks that only for
its own workloads.  This test pins ``repr(sim.now)`` and
``sim.events_processed`` of four episodes that between them reach every
kernel path a run uses:

* ``flat16_alltoall`` — a 16-rank flat-switch ``auto`` alltoall at
  16 KiB per pair (processes, switch, one-slot NIC resources);
* ``eager_storm`` — a seeded two-node ``adaptive`` storm of 40 bursts
  of 8 B-16 KiB sends (eager batches, aggregation, ``schedule_at``);
* ``flapping_hetero`` — ``hetero_split`` sends of 4K-4M while the fast
  rail flaps, with resilience on (watchdog arms and cancels, retries);
* ``computing_receiver`` — ``multicore_split`` eager sends into a node
  whose four cores all run compute threads (tasklets, preemption and
  its parked-victim looks, interrupts and offloads).

A mismatch means the model changed.  Regenerate the golden with
``PYTHONPATH=src python tests/simtime/test_event_count_golden.py``, and
only for a declared model change.
"""

import json
import pathlib
import random

import pytest

from repro.api import ClusterBuilder, FaultSchedule
from repro.api.mpi import MpiWorld
from repro.hardware.topology import Fabric
from repro.util.units import KiB

GOLDEN = pathlib.Path(__file__).with_name("event_count_golden.json")


def flat16_alltoall():
    world = MpiWorld.create(fabric=Fabric.flat(16, rails=("myri10g", "quadrics")))

    def program(comm):
        yield from comm.alltoall(16 * KiB, algorithm="auto")

    world.spawn_all(program)
    world.run()
    return world.cluster, {}


def eager_storm():
    rng = random.Random(40)
    cluster = ClusterBuilder.paper_testbed(strategy="adaptive").build()
    sender, receiver = cluster.sessions("node0", "node1")
    t = 0.0
    for _ in range(40):
        t += rng.expovariate(1.0 / 40.0)
        for _ in range(rng.randint(1, 16)):
            size = int(2.0 ** rng.uniform(3.0, 14.0))
            receiver.irecv(source="node0")
            cluster.sim.schedule_at(t, sender.isend, "node1", size)
    cluster.run()
    return cluster, {}


def flapping_hetero():
    schedule = FaultSchedule(seed=11).flapping(
        "node0.myri10g0", period=400.0, duty=0.5, start=100.0, cycles=4
    )
    cluster = (
        ClusterBuilder.paper_testbed(strategy="hetero_split")
        .faults(schedule)
        .resilience(timeout="200us")
        .build()
    )
    sender, receiver = cluster.sessions("node0", "node1")
    for size in ("4K", "64K", "1M", "4M"):
        receiver.irecv(source="node0")
        sender.isend("node1", size)
    cluster.run()
    return cluster, {"retries": cluster.engine("node0").retries_issued}


def computing_receiver():
    cluster = ClusterBuilder.paper_testbed(strategy="multicore_split").build()
    sender, receiver = cluster.sessions("node0", "node1")
    r_eng = cluster.engine("node1")
    for i, core in enumerate(r_eng.machine.cores):
        r_eng.marcel.spawn_compute(core, work_us=300.0 + 100.0 * i)
    for i, size in enumerate((8, 512, 4 * KiB, 16 * KiB, 64, 2 * KiB) * 2):
        receiver.irecv(source="node0")
        cluster.sim.schedule_at(10.0 * i, sender.isend, "node1", size)
    cluster.run()
    pioman = r_eng.pioman
    s_pioman = cluster.engine("node0").pioman
    return cluster, {
        "interrupts": pioman.interrupts + s_pioman.interrupts,
        "offloads": pioman.offloads + s_pioman.offloads,
    }


EPISODES = {
    "flat16_alltoall": flat16_alltoall,
    "eager_storm": eager_storm,
    "flapping_hetero": flapping_hetero,
    "computing_receiver": computing_receiver,
}


def record(name):
    cluster, extra = EPISODES[name]()
    sim = cluster.sim
    return {"now": repr(sim.now), "events": sim.events_processed, **extra}


def test_golden_covers_every_episode():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(EPISODES)


@pytest.mark.parametrize("name", sorted(EPISODES))
def test_episode_matches_golden(name):
    assert record(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: record(name) for name in sorted(EPISODES)}, indent=2)
        + "\n"
    )
    print(f"wrote {GOLDEN}")
