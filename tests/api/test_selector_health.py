"""Satellite: the selector excludes algorithms that need a down link.

``AlgorithmSelector.costs/select/table`` take a :class:`FabricHealth`
view; algorithms whose schedule, at the call's root, sends over a
currently-dead rank pair are excluded from pricing, and
``ConfigurationError`` fires only when *no* algorithm is feasible.  The
pairs are recorded from the rank programs themselves
(``required_pairs``).
"""

import pytest

from repro.api import ClusterBuilder
from repro.api import collectives as coll
from repro.api.mpi import MpiWorld
from repro.bench.runners import default_profiles
from repro.faults import FaultSchedule
from repro.hardware.topology import Fabric
from repro.util.errors import ConfigurationError

RAILS = ("myri10g", "quadrics")


def _mesh_world(n=8):
    """Full mesh of wires: every pair has its own rails."""
    return MpiWorld.create(n, profiles=default_profiles(RAILS))


def _armed_mesh_world(n=8):
    """Full mesh with an empty fault schedule armed: ``auto`` builds the
    health view, and a send over a dead pair degrades after 4 retries."""
    builder = (
        ClusterBuilder("hetero_split")
        .fabric(Fabric.full_mesh(n, RAILS))
        .sampling(profiles=default_profiles(RAILS))
        .resilience(timeout="200us", max_retries=4)
        .faults(FaultSchedule())
    )
    return MpiWorld.from_cluster(builder.build())


def _health(world):
    return coll.FabricHealth(
        world.cluster, [world.node_name(r) for r in range(world.size)]
    )


def _kill_pair(world, i, j):
    """Down every rail between ranks i and j (both wire endpoints)."""
    killed = 0
    for rank_idx, peer_idx in ((i, j), (j, i)):
        machine = world.cluster.machines[world.node_name(rank_idx)]
        peer_name = world.node_name(peer_idx)
        for nic in machine.nics:
            wire = nic.wire
            peer = wire.nic_b if wire.nic_a is nic else wire.nic_a
            if peer.machine.name == peer_name:
                nic.fail()
                killed += 1
    assert killed, f"no rail between ranks {i} and {j}"


class TestHealthyPassThrough:
    def test_healthy_health_changes_nothing(self):
        world = _mesh_world()
        selector = world.selector()
        health = _health(world)
        for collective in ("bcast", "gather", "alltoall", "alltoallv"):
            assert selector.costs(collective, 65536, 8, health=health) == (
                selector.costs(collective, 65536, 8)
            )
            assert selector.select(collective, 65536, 8, health=health) == (
                selector.select(collective, 65536, 8)
            )

    def test_unfaulted_world_has_no_health_view(self):
        # No fault schedule armed => no probing at all: the healthy
        # auto path must stay exactly the pre-fault-surface path.
        assert _mesh_world().fabric_health() is None


class TestFeasibilityFiltering:
    def test_ring_excluded_when_a_ring_edge_dies(self):
        # (1, 2) is a ring successor edge but not a binomial-tree edge
        # for root 0, and gather-naive only needs (j, root) pairs.
        world = _mesh_world()
        selector = world.selector()
        _kill_pair(world, 1, 2)
        health = _health(world)
        assert not health.alive(1, 2)
        costs = selector.costs("gather", 65536, 8, health=health)
        assert "ring" not in costs
        assert "naive" in costs and "binomial" in costs
        assert selector.select("gather", 65536, 8, health=health) != "ring"

    def test_table_marks_only_feasible_algorithms(self):
        world = _mesh_world()
        selector = world.selector()
        _kill_pair(world, 1, 2)
        health = _health(world)
        table = selector.table("gather", 65536, 8, health=health)
        assert "ring" not in table
        assert "binomial" in table

    def test_error_only_when_nothing_feasible(self):
        # All-to-all schedules touch every pair: killing any one pair
        # kills naive/ring/rails; doubling survives only if the pair is
        # not a dissemination edge — kill one of those too.
        world = _mesh_world()
        selector = world.selector()
        _kill_pair(world, 0, 1)  # dissemination distance-1 edge
        health = _health(world)
        with pytest.raises(ConfigurationError, match="no feasible"):
            selector.costs("alltoall", 65536, 8, health=health)

    def test_doubling_survives_a_non_dissemination_pair_loss(self):
        # (1, 4) is distance 3: not a power-of-two dissemination edge,
        # so Bruck's alltoall stays feasible while all-pair schedules die.
        world = _mesh_world()
        selector = world.selector()
        _kill_pair(world, 1, 4)
        health = _health(world)
        costs = selector.costs("alltoall", 65536, 8, health=health)
        assert set(costs) == {"doubling"}
        assert selector.select("alltoall", 65536, 8, health=health) == "doubling"


class TestFatTreeHealth:
    def test_adaptive_fat_tree_survives_one_spine(self):
        fab = Fabric.fat_tree(8, rails=RAILS, pod_size=4, spines=2, prefix="rank")
        world = MpiWorld.create(fabric=fab, profiles=default_profiles(RAILS))
        for machine in world.cluster.machines.values():
            for nic in machine.nics:
                nic.wire.spine_fail(0)
            break  # switches are shared; one machine reaches them all
        health = _health(world)
        assert health.alive(0, 4)
        assert world.selector().costs("alltoall", 65536, 8, health=health)

    def test_static_fat_tree_loses_pairs_pinned_to_a_dead_spine(self):
        fab = Fabric.fat_tree(
            8, rails=RAILS, pod_size=4, spines=2, prefix="rank", adaptive=False
        )
        world = MpiWorld.create(fabric=fab, profiles=default_profiles(RAILS))
        switches = set()
        for machine in world.cluster.machines.values():
            for nic in machine.nics:
                switches.add(nic.wire)
        for sw in switches:
            sw.spine_fail(sw._spine_for(0, 4))
        health = _health(world)
        assert not health.alive(0, 4)
        with pytest.raises(ConfigurationError, match="no feasible"):
            world.selector().costs("alltoall", 65536, 8, health=health)


#: Every case of a sweep over flat worlds of 2, 3, 5, 6, 7, 8 and 12 ranks
#: (roots 0 and n-1, every algorithm but replan) where the hand-written
#: patterns that preceded the record listed pairs nothing sends: the ring
#: bcast and gather are open chains without the (root-1, root) edge, and
#: 8-rank allgather doubling swaps with XOR partners, not rank+2^k.
UNSENT = [
    (name, "ring", n, root, [tuple(sorted(((root - 1) % n, root)))])
    for name in ("bcast", "gather")
    for n in (3, 5, 6, 7, 8, 12)
    for root in (0, n - 1)
] + [
    ("allgather", "doubling", 8, 0,
     [(0, 6), (0, 7), (1, 2), (1, 7), (2, 4), (3, 4), (3, 5), (5, 6)]),
]


class TestRecordedPairs:
    @pytest.mark.parametrize(
        "collective, algorithm, ranks, root, unsent",
        UNSENT,
        ids=[f"{c}-{a}-{n}-root{r}" for c, a, n, r, _ in UNSENT],
    )
    def test_unsent_pairs_are_not_required(
        self, collective, algorithm, ranks, root, unsent
    ):
        pairs = coll.required_pairs(collective, algorithm, ranks, root)
        assert not set(unsent) & pairs

    def test_record_is_memoized_and_frozen(self):
        pairs = coll.required_pairs("alltoallv", "replan", 5)
        assert isinstance(pairs, frozenset)
        assert pairs is coll.required_pairs("alltoallv", "replan", 5)
        assert pairs == coll.required_pairs("alltoallv", "rails", 5)

    def test_ring_bcast_survives_its_unused_closing_edge(self):
        world = _mesh_world()
        _kill_pair(world, 7, 0)
        costs = world.selector().costs("bcast", 65536, 8, health=_health(world))
        assert "ring" in costs

    def test_allgather_doubling_survives_a_non_xor_pair_loss(self):
        world = _mesh_world()
        _kill_pair(world, 1, 2)
        health = _health(world)
        assert health.feasible("allgather", "doubling", 8)
        costs = world.selector().costs("allgather", 65536, 8, health=health)
        assert set(costs) == {"doubling"}


class TestCallRoot:
    def test_auto_gather_at_root_7_avoids_the_dead_pair(self):
        # Root 0's binomial tree avoids (5, 6), root 7's does not: checked
        # at root 0, auto picked it, one send degraded and ranks 3, 5
        # and 7 never returned.
        world = _armed_mesh_world()
        _kill_pair(world, 5, 6)
        returned = []

        def program(comm):
            yield from comm.gather(65536, root=7, algorithm="auto")
            returned.append(comm.rank)

        world.spawn_all(program)
        world.run()
        engines = world.cluster.engines.values()
        assert sum(e.messages_degraded for e in engines) == 0
        assert sorted(returned) == list(range(8))

    def test_ring_not_offered_for_root_3_gather_over_a_dead_chain_edge(
        self, monkeypatch
    ):
        # (7, 0) is on root 3's ring chain but not on root 0's: a record
        # checked at root 0 would offer ring here.
        world = _armed_mesh_world()
        _kill_pair(world, 7, 0)
        selector = world.selector()
        price = selector.costs
        offered = []

        def spy(*args, **kwargs):
            out = price(*args, **kwargs)
            offered.append(set(out))
            return out

        monkeypatch.setattr(selector, "costs", spy)

        def program(comm):
            yield from comm.gather(65536, root=3, algorithm="auto")

        world.spawn_all(program)
        world.run()
        assert offered
        assert all("ring" not in names for names in offered)
