"""Tests for the collective-algorithm layer (repro.api.collectives).

Cross-algorithm equivalence (byte totals under the invariant monitor),
double-run determinism on a fat tree, two-node naive bit-identity, the
algorithm-resolution chain, and the cost-model selector.
"""

import math

import pytest

from repro.api import ClusterBuilder, Fabric
from repro.api import collectives as coll
from repro.api.collectives import AlgorithmSelector, VALID_ALGORITHMS
from repro.api.mpi import MpiWorld
from repro.bench.runners import default_profiles
from repro.util.errors import ConfigurationError
from repro.util.units import KiB, MiB


@pytest.fixture(scope="module")
def profiles():
    return default_profiles()


def make_flat_world(n, profiles, monitored=True, shape="flat", **world_kwargs):
    """An n-rank world over one flat switch (or fat tree) per rail,
    with the PR 4 invariant monitor armed (it raises on violation)."""
    fabric = Fabric.flat(n) if shape == "flat" else Fabric.fat_tree(n)
    builder = ClusterBuilder("hetero_split").fabric(fabric).sampling(
        profiles=profiles
    )
    if monitored:
        builder.invariants()
    return MpiWorld.from_cluster(builder.build(), **world_kwargs)


def run_collective(world, collective, algorithm, size=64 * KiB, root=0):
    """Run one collective on every rank; return total bytes sent."""

    def program(comm):
        if collective == "bcast":
            yield from comm.bcast(size, root=root, algorithm=algorithm)
        elif collective == "gather":
            yield from comm.gather(size, root=root, algorithm=algorithm)
        elif collective == "allgather":
            yield from comm.allgather(size, algorithm=algorithm)
        elif collective == "reduce":
            yield from comm.reduce(size, root=root, algorithm=algorithm)
        elif collective == "alltoall":
            yield from comm.alltoall(size, algorithm=algorithm)
        else:  # pragma: no cover - test bug
            raise AssertionError(collective)

    world.spawn_all(program)
    world.run()
    world.cluster.check_drain()
    return sum(e.bytes_sent for e in world.cluster.engines.values())


class TestCrossAlgorithmEquivalence:
    """Same collective, different schedules: the byte totals that must
    match do, with the invariant monitor armed the whole time."""

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_alltoall_byte_totals(self, profiles, n):
        size = 64 * KiB
        expected = n * (n - 1) * size
        for algo in ("naive", "ring", "rails"):
            world = make_flat_world(n, profiles)
            assert run_collective(world, "alltoall", algo, size) == expected

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_bcast_byte_totals(self, profiles, n):
        size = 256 * KiB
        expected = (n - 1) * size
        for algo in ("naive", "binomial", "ring"):
            world = make_flat_world(n, profiles)
            assert run_collective(world, "bcast", algo, size) == expected

    @pytest.mark.parametrize("n", [4, 8])
    def test_allgather_byte_totals(self, profiles, n):
        size = 64 * KiB
        expected = n * (n - 1) * size
        for algo in ("naive", "ring", "doubling"):
            world = make_flat_world(n, profiles)
            assert run_collective(world, "allgather", algo, size) == expected

    @pytest.mark.parametrize("n", [4, 8])
    def test_reduce_tree_byte_totals(self, profiles, n):
        size = 256 * KiB
        expected = (n - 1) * size
        for algo in ("naive", "binomial"):
            world = make_flat_world(n, profiles)
            assert run_collective(world, "reduce", algo, size) == expected

    @pytest.mark.parametrize("n", [4, 8])
    def test_aggregating_schedules_complete_under_monitor(self, profiles, n):
        """Bruck/scatter variants move more bytes by design — assert they
        complete cleanly (the monitor raises on any delivery violation)
        and move at least the naive volume."""
        for collective, algo, floor in (
            ("alltoall", "doubling", n * (n - 1) * 64 * KiB),
            ("bcast", "doubling", (n - 1) * 64 * KiB),
            ("gather", "binomial", (n - 1) * 64 * KiB),
            ("gather", "ring", (n - 1) * 64 * KiB),
            ("reduce", "ring", (n - 1) * 64 * KiB),
        ):
            world = make_flat_world(n, profiles)
            assert run_collective(world, collective, algo) >= floor


class TestDeterminism:
    def test_double_run_fat_tree_bit_identical(self, profiles):
        """The same program on a fresh fat-tree world twice: identical
        simulated makespan and byte totals, to the last bit."""

        def measure():
            world = make_flat_world(8, profiles, shape="fat_tree")

            def program(comm):
                yield from comm.alltoall(128 * KiB, algorithm="rails")
                yield from comm.bcast(1 * MiB, root=3, algorithm="ring")

            world.spawn_all(program)
            world.run()
            world.cluster.check_drain()
            total = sum(
                e.bytes_sent for e in world.cluster.engines.values()
            )
            return world.cluster.sim.now, total

        assert measure() == measure()

    def test_two_node_default_is_naive_bit_identical(self, profiles):
        """On the paper's two-node shape, the default algorithm path and
        an explicit algorithm="naive" produce identical timestamps."""

        def measure(**call_kwargs):
            world = MpiWorld.create(2, profiles=profiles)

            def program(comm):
                yield from comm.bcast(4 * MiB, **call_kwargs)
                yield from comm.gather(256 * KiB, **call_kwargs)
                yield from comm.allgather(64 * KiB, **call_kwargs)
                yield from comm.reduce(1 * MiB, **call_kwargs)
                yield from comm.alltoall(512 * KiB, **call_kwargs)

            world.spawn_all(program)
            world.run()
            return world.cluster.sim.now

        assert measure() == measure(algorithm="naive")


class TestAlgorithmResolution:
    def test_unknown_per_call_algorithm_lists_choices(self, profiles):
        world = make_flat_world(4, profiles, monitored=False)
        with pytest.raises(ConfigurationError) as exc:
            list(world.comm(0).bcast(64, algorithm="fancy"))
        msg = str(exc.value)
        for choice in VALID_ALGORITHMS["bcast"]:
            assert choice in msg

    def test_unknown_world_default_rejected_at_creation(self, profiles):
        with pytest.raises(ConfigurationError) as exc:
            MpiWorld.create(
                2, profiles=profiles, collectives={"alltoall": "bogus"}
            )
        assert "ring" in str(exc.value)

    def test_unknown_collective_name_rejected(self, profiles):
        with pytest.raises(ConfigurationError) as exc:
            MpiWorld.create(
                2, profiles=profiles, collectives={"blast": "ring"}
            )
        assert "bcast" in str(exc.value)

    def test_world_default_applies_and_per_call_overrides(self, profiles):
        """A world default changes the schedule; algorithm= wins over it.

        Ring alltoall on a switch is faster than naive (no incast
        storm), so makespans separate the three resolutions.
        """
        size = 256 * KiB

        def measure(world_kwargs, call_kwargs):
            world = make_flat_world(8, profiles, **world_kwargs)

            def program(comm):
                yield from comm.alltoall(size, **call_kwargs)

            world.spawn_all(program)
            world.run()
            return world.cluster.sim.now

        naive = measure({}, {})
        via_default = measure({"collectives": {"alltoall": "ring"}}, {})
        via_call = measure({}, {"algorithm": "ring"})
        override = measure(
            {"collectives": {"alltoall": "ring"}}, {"algorithm": "naive"}
        )
        assert via_default == via_call < naive
        assert override == naive

    def test_auto_picks_a_concrete_algorithm(self, profiles):
        world = make_flat_world(8, profiles, monitored=False)
        total = run_collective(world, "alltoall", "auto", 256 * KiB)
        assert total > 0


class TestAlltoallv:
    def test_matrix_shape_validated(self, profiles):
        world = make_flat_world(4, profiles, monitored=False)
        with pytest.raises(ConfigurationError):
            list(world.comm(0).alltoallv([[0, 1], [1, 0]]))

    def test_self_send_rejected(self, profiles):
        world = make_flat_world(4, profiles, monitored=False)
        matrix = coll.uniform_matrix(4, 64)
        matrix[2][2] = 64
        with pytest.raises(ConfigurationError):
            list(world.comm(0).alltoallv(matrix))

    def test_negative_entry_rejected(self, profiles):
        world = make_flat_world(4, profiles, monitored=False)
        matrix = coll.uniform_matrix(4, 64)
        matrix[1][2] = -1
        with pytest.raises(ConfigurationError):
            list(world.comm(0).alltoallv(matrix))

    @pytest.mark.parametrize("algo", ["naive", "rails"])
    def test_skewed_matrix_moves_exact_volume(self, profiles, algo):
        n = 8
        matrix = coll.moe_matrix(n, 32 * KiB, skew=4)
        expected = sum(v for row in matrix for v in row)
        world = make_flat_world(n, profiles)

        def program(comm):
            yield from comm.alltoallv(matrix, algorithm=algo)

        world.spawn_all(program)
        world.run()
        world.cluster.check_drain()
        total = sum(e.bytes_sent for e in world.cluster.engines.values())
        assert total == expected

    def test_moe_matrix_shape(self):
        m = coll.moe_matrix(8, 1000, hot_ranks=2, skew=8)
        hot = {
            j
            for j in range(8)
            if any(m[i][j] == 8000 for i in range(8) if i != j)
        }
        assert len(hot) == 2
        assert all(m[i][i] == 0 for i in range(8))

    def test_rails_alltoall_builds_no_matrix(self, profiles, monkeypatch):
        """Each rank of a ``rails`` alltoall builds only its own row and
        column; the messages are those of a ``rails`` alltoallv of the
        full uniform matrix, posted and completed at the same instants."""
        n, size = 8, 48 * KiB
        matrix = coll.uniform_matrix(n, size)

        def message_log(world):
            return [
                (m.src, m.dest, m.size, m.tag, m.t_post, m.t_complete)
                for engine in world.cluster.engines.values()
                for m in engine.sent_log
            ]

        def run(world, call):
            world.spawn_all(call)
            world.run()
            world.cluster.check_drain()
            return message_log(world)

        expected = run(
            make_flat_world(n, profiles),
            lambda comm: comm.alltoallv(matrix, algorithm="rails"),
        )

        def no_matrix(*args):
            raise AssertionError("the rails alltoall built the n x n matrix")

        monkeypatch.setattr(coll, "uniform_matrix", no_matrix)
        got = run(
            make_flat_world(n, profiles),
            lambda comm: comm.alltoall(size, algorithm="rails"),
        )
        assert sum(entry[2] for entry in got) == n * (n - 1) * size
        assert got == expected

    def test_balanced_schedule_orders_largest_first(self, profiles):
        ests = profiles.estimators
        matrix = coll.moe_matrix(8, 64 * KiB, hot=[5], skew=8)
        schedule = coll.balanced_schedule(0, matrix, list(ests.values()))
        sent = sum(nbytes for _, _, nbytes in schedule)
        assert sent == sum(matrix[0])
        # The hot destination leads the schedule.
        assert schedule[0][0] == 5


class TestSegmentHelpers:
    def test_pipeline_segments_cover_message(self, profiles):
        ests = list(profiles.estimators.values())
        for size in (1, 64 * KiB, 1 * MiB + 17, 8 * MiB):
            segs = coll.pipeline_segments(size, ests)
            assert sum(segs) == size
            assert len(segs) <= coll.MAX_SEGMENTS

    def test_rails_segment_floor_clears_rdv_thresholds(self, profiles):
        ests = list(profiles.estimators.values())
        floor = coll.rails_segment_floor(ests)
        assert floor > max(e.rdv_threshold() for e in ests)

    def test_rails_segments_cover_message(self, profiles):
        ests = list(profiles.estimators.values())
        for size in (1, 100 * KiB, 3 * MiB):
            assert sum(coll.rails_segments(size, ests)) == size


class TestAlgorithmSelector:
    def test_costs_cover_every_algorithm(self, profiles):
        sel = AlgorithmSelector(profiles.estimators)
        for collective, algos in VALID_ALGORITHMS.items():
            costs = sel.costs(collective, 1 * MiB, 8)
            expect = {a for a in algos if a != "auto"}
            if collective == "alltoallv":
                expect = {"naive", "rails"}
            assert set(costs) == expect
            assert all(c > 0 for c in costs.values())

    def test_select_is_argmin(self, profiles):
        sel = AlgorithmSelector(profiles.estimators)
        costs = sel.costs("alltoall", 256 * KiB, 8)
        assert costs[sel.select("alltoall", 256 * KiB, 8)] == min(
            costs.values()
        )

    def test_alltoallv_never_selects_matrix_incapable_algorithms(
        self, profiles
    ):
        sel = AlgorithmSelector(profiles.estimators)
        for size in (1 * KiB, 64 * KiB, 4 * MiB):
            assert sel.select("alltoallv", size, 8) in ("naive", "rails")

    def test_auto_prices_each_shape_once_per_world(self, profiles, monkeypatch):
        """All 32 ranks of a flat world ask ``select`` for the same
        alltoall shape: ``costs`` runs once, every rank gets the pick it
        got when each call priced the shape again, and ``calibrate``
        makes the next call price it afresh."""
        priced, picks = [], []
        costs, select = AlgorithmSelector.costs, AlgorithmSelector.select

        def counting_costs(self, *args, **kwargs):
            priced.append(args)
            return costs(self, *args, **kwargs)

        def recording_select(self, *args, **kwargs):
            picks.append(select(self, *args, **kwargs))
            return picks[-1]

        monkeypatch.setattr(AlgorithmSelector, "costs", counting_costs)
        monkeypatch.setattr(AlgorithmSelector, "select", recording_select)
        world = make_flat_world(32, profiles, monitored=False)
        run_collective(world, "alltoall", "auto", 16 * KiB)
        assert priced == [("alltoall", 16 * KiB, 32)]
        assert picks == ["doubling"] * 32
        selector = world.selector()
        selector.calibrate({16 * KiB: 1000.0})
        selector.select("alltoall", 16 * KiB, 32)
        assert len(priced) == 2

    def test_table_marks_selection(self, profiles):
        sel = AlgorithmSelector(profiles.estimators)
        out = sel.table("alltoall", 256 * KiB, 8)
        assert "<- selected" in out

    def test_degenerate_shapes_rejected(self, profiles):
        sel = AlgorithmSelector(profiles.estimators)
        with pytest.raises(ConfigurationError):
            sel.costs("alltoall", 1 * MiB, 1)
        with pytest.raises(ConfigurationError):
            sel.costs("alltoall", 0, 8)
        with pytest.raises(ConfigurationError):
            sel.costs("scan", 1 * MiB, 8)

    def test_empty_estimators_rejected(self):
        with pytest.raises(ConfigurationError):
            AlgorithmSelector({})


class TestValidation:
    def test_validate_algorithm_passthrough(self):
        coll.validate_algorithm("bcast", "ring")
        with pytest.raises(ConfigurationError):
            coll.validate_algorithm("bcast", "rails")

    def test_validate_overrides_normalizes(self):
        out = coll.validate_overrides({"bcast": "ring"})
        assert out == {"bcast": "ring"}
        with pytest.raises(ConfigurationError):
            coll.validate_overrides({"bcast": "bruck"})


class TestProcessBudget:
    """Send pipelines and core occupancies are callback chains, so a
    collective spawns no process beyond the rank programs themselves."""

    def test_flat_alltoall_spawns_only_the_rank_programs(self, profiles, monkeypatch):
        from repro.simtime.process import Process

        spawned = []
        init = Process.__init__

        def counting_init(self, sim, gen, name=""):
            spawned.append(name)
            init(self, sim, gen, name)

        monkeypatch.setattr(Process, "__init__", counting_init)
        world = make_flat_world(8, profiles, monitored=False)
        run_collective(world, "alltoall", "naive", size=16 * KiB)
        messages = sum(len(e.sent_log) for e in world.cluster.engines.values())
        assert messages == 8 * 7
        # Two per message (a NIC pipeline and a receive-side occupancy)
        # before the pipelines became callback chains.
        assert sorted(spawned) == [f"rank{r}" for r in range(8)]
