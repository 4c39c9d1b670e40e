"""Tests for the MPI-flavoured layer (point-to-point + collectives)."""

import pytest

from repro.api.mpi import Communicator, MpiWorld
from repro.bench.runners import default_profiles
from repro.util.errors import ConfigurationError
from repro.util.units import KiB, MiB


@pytest.fixture(scope="module")
def profiles():
    return default_profiles()


def make_world(n, profiles, strategy="hetero_split"):
    return MpiWorld.create(n, strategy=strategy, profiles=profiles)


def run_program(world, program):
    world.spawn_all(program)
    world.run()


class TestWorldConstruction:
    def test_full_mesh_nic_count(self, profiles):
        world = make_world(3, profiles)
        # 2 peers x 2 rails per node
        for r in range(3):
            assert len(world.cluster.machines[f"rank{r}"].nics) == 4

    def test_full_mesh_wires_each_peer_over_every_rail(self, profiles):
        """NICs number pair by pair, every rail of a pair before the next
        peer's (the order of Fabric.full_mesh through the builder)."""
        world = make_world(4, profiles)
        rank0 = world.cluster.machines["rank0"]
        assert [
            (nic.name, nic.wire.peer_of(nic).qualified_name) for nic in rank0.nics
        ] == [
            ("myri10g0", "rank1.myri10g0"),
            ("quadrics1", "rank1.quadrics1"),
            ("myri10g2", "rank2.myri10g0"),
            ("quadrics3", "rank2.quadrics1"),
            ("myri10g4", "rank3.myri10g0"),
            ("quadrics5", "rank3.quadrics1"),
        ]

    def test_size_and_comms(self, profiles):
        world = make_world(2, profiles)
        assert world.size == 2
        assert world.comm(1).rank == 1

    def test_too_small_world_rejected(self, profiles):
        with pytest.raises(ConfigurationError):
            MpiWorld.create(1, profiles=profiles)

    def test_unknown_technology_rejected(self):
        with pytest.raises(
            ConfigurationError, match="unknown rail technology 'myri10'"
        ):
            MpiWorld.create(4, rails=("myri10",))

    def test_unknown_rank_rejected(self, profiles):
        world = make_world(2, profiles)
        with pytest.raises(ConfigurationError):
            world.comm(5)


class TestPointToPoint:
    def test_blocking_send_recv(self, profiles):
        world = make_world(2, profiles)
        got = []

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, 4 * KiB, tag=3)
            else:
                msg = yield from comm.recv(source=0, tag=3)
                got.append(msg.size)

        run_program(world, program)
        assert got == [4 * KiB]

    def test_large_sends_use_multirail(self, profiles):
        world = make_world(2, profiles)
        sent = []

        def program(comm):
            if comm.rank == 0:
                msg = comm.isend(1, 4 * MiB)
                yield from comm.session.wait(msg)
                sent.append(msg)
            else:
                yield from comm.recv(source=0)

        run_program(world, program)
        assert len(sent[0].rails_used) == 2  # hetero split engaged

    def test_sendrecv_ring(self, profiles):
        world = make_world(4, profiles)
        seen = []

        def program(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            msg = yield from comm.sendrecv(right, 1 * KiB, source=left, tag=1)
            seen.append((comm.rank, msg.src))

        run_program(world, program)
        assert sorted(seen) == [
            (0, "rank3"), (1, "rank0"), (2, "rank1"), (3, "rank2")
        ]

    def test_self_send_rejected(self, profiles):
        world = make_world(2, profiles)
        with pytest.raises(ConfigurationError):
            world.comm(0).isend(0, 64)

    def test_bad_peer_rejected(self, profiles):
        world = make_world(2, profiles)
        with pytest.raises(ConfigurationError):
            world.comm(0).isend(7, 64)

    def test_collective_tag_space_protected(self, profiles):
        world = make_world(2, profiles)
        with pytest.raises(ConfigurationError):
            world.comm(0).isend(1, 64, tag=1 << 21)


class TestBarrier:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_no_rank_leaves_before_last_enters(self, profiles, n):
        world = make_world(n, profiles)
        sim = world.cluster.sim
        enter, leave = {}, {}

        def program(comm, delay=None):
            # Stagger arrivals: rank r enters at r*50 us.
            from repro.simtime import Timeout

            yield Timeout(comm.rank * 50.0)
            enter[comm.rank] = sim.now
            yield from comm.barrier()
            leave[comm.rank] = sim.now

        run_program(world, program)
        last_entry = max(enter.values())
        assert all(t >= last_entry for t in leave.values())

    def test_consecutive_barriers_do_not_cross_match(self, profiles):
        world = make_world(3, profiles)
        counts = []

        def program(comm):
            for _ in range(3):
                yield from comm.barrier()
            counts.append(comm.rank)

        run_program(world, program)
        assert sorted(counts) == [0, 1, 2]


class TestBcast:
    @pytest.mark.parametrize("n,root", [(2, 0), (3, 1), (4, 0), (5, 3)])
    def test_every_rank_receives(self, profiles, n, root):
        world = make_world(n, profiles)
        done = []

        def program(comm):
            yield from comm.bcast(256 * KiB, root=root)
            done.append(comm.rank)

        run_program(world, program)
        assert sorted(done) == list(range(n))

    def test_binomial_beats_linear_root_time(self, profiles):
        """The tree frees the root after ceil(log2 n) sends, not n-1."""
        n = 5
        world = make_world(n, profiles)
        sim = world.cluster.sim
        finish = {}

        def program(comm):
            yield from comm.bcast(1 * MiB, root=0)
            finish[comm.rank] = sim.now

        run_program(world, program)
        # All ranks finish within ~3 tree levels of transfer time, far
        # below n-1 serialized root sends.
        single = 700.0  # ~one 1 MiB hetero transfer in us
        assert max(finish.values()) < 3.2 * single

    def test_bad_root_rejected(self, profiles):
        world = make_world(2, profiles)
        with pytest.raises(ConfigurationError):
            list(world.comm(0).bcast(64, root=9))


class TestGatherAlltoall:
    def test_gather_root_collects_all(self, profiles):
        world = make_world(4, profiles)
        eng_root = world.cluster.engine("rank1")
        done = []

        def program(comm):
            yield from comm.gather(64 * KiB, root=1)
            done.append(comm.rank)

        run_program(world, program)
        assert sorted(done) == [0, 1, 2, 3]
        assert eng_root.messages_completed >= 3

    @pytest.mark.parametrize("n,root", [(2, 0), (4, 1), (5, 2)])
    def test_scatter_every_rank_receives(self, profiles, n, root):
        world = make_world(n, profiles)
        done = []

        def program(comm):
            yield from comm.scatter(128 * KiB, root=root)
            done.append(comm.rank)

        run_program(world, program)
        assert sorted(done) == list(range(n))
        for r in range(n):
            if r != root:
                eng = world.cluster.engine(f"rank{r}")
                assert eng.messages_completed >= 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_allgather_completes_all_ranks(self, profiles, n):
        world = make_world(n, profiles)
        done = []

        def program(comm):
            yield from comm.allgather(64 * KiB)
            done.append(comm.rank)

        run_program(world, program)
        assert sorted(done) == list(range(n))

    @pytest.mark.parametrize("n,root", [(2, 0), (4, 0), (5, 3)])
    def test_reduce_root_collects_tree(self, profiles, n, root):
        world = make_world(n, profiles)
        done = []

        def program(comm):
            yield from comm.reduce(256 * KiB, root=root)
            done.append(comm.rank)

        run_program(world, program)
        assert sorted(done) == list(range(n))
        # The root received one message per binomial child: one child per
        # stride 2^k < n, i.e. ceil(log2(n)) of them.
        import math

        eng = world.cluster.engine(f"rank{root}")
        assert eng.messages_completed == math.ceil(math.log2(n))

    def test_reduce_root_frees_in_log_rounds(self, profiles):
        """Binomial reduce: the root's critical path is ~log2(n) receives,
        not n-1 serialized ones."""
        n = 5
        world = make_world(n, profiles)
        sim = world.cluster.sim
        finish = {}

        def program(comm):
            yield from comm.reduce(1 * MiB, root=0)
            finish[comm.rank] = sim.now

        run_program(world, program)
        single = 700.0  # ~one 1 MiB hetero transfer in us
        assert finish[0] < 3.5 * single

    def test_alltoall_full_exchange(self, profiles):
        n = 3
        world = make_world(n, profiles)
        done = []

        def program(comm):
            yield from comm.alltoall(32 * KiB)
            done.append(comm.rank)

        run_program(world, program)
        assert sorted(done) == list(range(n))
        # Every engine received n-1 messages.
        for r in range(n):
            assert world.cluster.engine(f"rank{r}").messages_completed >= n - 1
