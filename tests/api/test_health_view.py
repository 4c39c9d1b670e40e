"""One fabric-health view per world and fault state.

Every rank's ``algorithm="auto"`` call asks its world for a
:class:`~repro.api.collectives.FabricHealth` view.  The world reuses one
view while the clock and the injector's ``faults_fired`` stand still,
and the view memoizes each schedule's feasibility, so an armed 32-rank
``auto`` alltoall probes each rank pair of each candidate schedule once
instead of once per rank.  A fault that fires between two calls, at a
later instant or at the same one, is seen by the later call.
"""

import pytest

from repro.api import ClusterBuilder
from repro.api import collectives as coll
from repro.api.mpi import MpiWorld
from repro.faults import FaultSchedule
from repro.hardware.topology import Fabric
from repro.util.units import KiB

RAILS = ("myri10g", "quadrics")


def _armed_flat_world(ranks, schedule=None):
    builder = (
        ClusterBuilder("hetero_split")
        .fabric(Fabric.flat(ranks, rails=RAILS))
        .faults(schedule if schedule is not None else FaultSchedule())
    )
    return MpiWorld.from_cluster(builder.build())


def test_armed_auto_alltoall_builds_one_view(monkeypatch):
    built = []
    probes = []
    init = coll.FabricHealth.__init__
    probe = coll.FabricHealth.node_pair_alive

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counting_probe(self, a, b):
        probes.append((a, b))
        return probe(self, a, b)

    monkeypatch.setattr(coll.FabricHealth, "__init__", counting_init)
    monkeypatch.setattr(coll.FabricHealth, "node_pair_alive", counting_probe)
    world = _armed_flat_world(32)

    def program(comm):
        yield from comm.alltoall(16 * KiB, algorithm="auto")

    world.spawn_all(program)
    world.run()
    assert len(built) == 1
    assert len(probes) <= 1632
    assert repr(world.cluster.sim.now) == "684.631716810555"


def test_view_reused_while_nothing_fires(monkeypatch):
    world = _armed_flat_world(4)
    view = world.fabric_health()
    assert world.fabric_health() is view
    recorded = []
    record = coll.required_pairs

    def counting_record(*args):
        recorded.append(args)
        return record(*args)

    monkeypatch.setattr(coll, "required_pairs", counting_record)
    assert view.feasible("alltoall", "ring", 4)
    assert view.feasible("alltoall", "ring", 4)
    assert view.feasible("bcast", "ring", 4, root=2)
    assert recorded == [("alltoall", "ring", 4, 0), ("bcast", "ring", 4, 2)]


@pytest.mark.parametrize("at", [0.0, 10.0], ids=["same-instant", "later"])
def test_fault_between_two_calls_is_seen(at):
    world = _armed_flat_world(4, FaultSchedule().node_crash("node1", at=at))
    assert world.node_name(1) == "node1"
    before = world.fabric_health()
    assert before.alive(0, 1) and before.feasible("alltoall", "naive", 4)
    world.cluster.sim.run(until=at)
    assert world.cluster.fault_injector.faults_fired > 0
    assert world.cluster.sim.now == at
    after = world.fabric_health()
    assert after is not before
    assert not after.alive(0, 1)
    assert not after.feasible("alltoall", "naive", 4)
