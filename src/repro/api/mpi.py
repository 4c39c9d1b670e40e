"""MPI-flavoured layer over the multirail engine (the paper's future work).

The paper's conclusion plans to "integrate NewMadeleine in the
MPICH2-Nemesis software stack so as to use the multirail capabilities ...
within the widespread MPI implementation".  This module provides that
integration's *shape*: a rank-addressed :class:`Communicator` whose
point-to-point calls ride the engine (and therefore the strategies), plus
timing-faithful collectives (barrier, bcast, gather, scatter, allgather,
reduce, alltoall, alltoallv).

The API follows mpi4py's lower-case convention.  Because this is a
timing simulator, messages carry *sizes*, not payloads; a collective's
result is when it completes.  Blocking calls are generator coroutines to
``yield from`` inside simulation processes::

    world = MpiWorld.create(4, strategy="hetero_split")

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, "1M")
        elif comm.rank == 1:
            yield from comm.recv(0)
        yield from comm.barrier()

    world.spawn_all(program)
    world.run()

Every collective schedule lives in the algorithm table of
:mod:`repro.api.collectives`; each ``Communicator`` collective validates
its arguments, picks a table entry and runs it.  The default,
``algorithm="naive"``, produces the same timestamps as older revisions;
the classic schedules are chosen per call
(``comm.bcast("4M", algorithm="ring")``), per world
(``MpiWorld.create(8, collectives={"alltoall": "ring"})``), or by the
cost model (``algorithm="auto"``).  Worlds can also span switched
fabrics: ``MpiWorld.create(fabric=Fabric.fat_tree(16))``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.api import collectives as coll
from repro.api.cluster import Cluster, ClusterBuilder, RunResult, StrategySpec
from repro.api.collectives import AlgorithmSelector
from repro.api.session import Session
from repro.core.packets import Message, RecvHandle
from repro.hardware.topology import Fabric
from repro.util.errors import ConfigurationError
from repro.util.units import parse_size

#: tag space reserved for collectives (user tags must stay below)
_COLLECTIVE_TAG_BASE = 1 << 20


def _rank_name(rank: int) -> str:
    return f"rank{rank}"


class Communicator:
    """One rank's handle on the world (MPI_COMM_WORLD equivalent)."""

    def __init__(self, world: "MpiWorld", rank: int) -> None:
        self.world = world
        self.rank = rank
        self.session: Session = world.cluster.session(world.node_name(rank))
        self._collective_seq = 0
        #: per-rank profiled-op counter (ranks call collectives in the
        #: same order, so equal seq values line up across ranks)
        self._profile_seq = 0

    def peer_name(self, rank: int) -> str:
        """Node name of a rank (``rank3`` in default worlds; the fabric's
        node names when the world was built from one)."""
        return self.world.node_name(rank)

    def __repr__(self) -> str:
        return f"<Communicator rank {self.rank}/{self.size}>"

    @property
    def size(self) -> int:
        return self.world.size

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise ConfigurationError(
                f"rank {peer} outside 0..{self.size - 1}"
            )
        if peer == self.rank:
            raise ConfigurationError("self-sends are not modelled")

    # ------------------------------------------------------------------ #
    # point to point
    # ------------------------------------------------------------------ #

    def isend(self, dest: int, size: "int | str", tag: int = 0) -> Message:
        """Non-blocking send; completion via the message's ``done`` event."""
        self._check_peer(dest)
        if tag >= _COLLECTIVE_TAG_BASE or tag < 0:
            raise ConfigurationError(f"user tag {tag} outside [0, {_COLLECTIVE_TAG_BASE})")
        return self.session.isend(self.peer_name(dest), size, tag=tag)

    def irecv(self, source: Optional[int] = None, tag: Optional[int] = None) -> RecvHandle:
        """Non-blocking receive (None = wildcard, as in MPI_ANY_SOURCE)."""
        if source is not None:
            self._check_peer(source)
        return self.session.irecv(
            source=self.peer_name(source) if source is not None else None, tag=tag
        )

    def send(self, dest: int, size: "int | str", tag: int = 0) -> Iterator:
        """Blocking send: returns when the receiver has the message."""
        msg = self.isend(dest, size, tag=tag)
        result = yield from self.session.wait(msg)
        return result

    def recv(self, source: Optional[int] = None, tag: Optional[int] = None) -> Iterator:
        """Blocking receive: returns the matched message."""
        handle = self.irecv(source=source, tag=tag)
        result = yield from self.session.wait(handle)
        return result

    def sendrecv(
        self, dest: int, size: "int | str", source: Optional[int] = None, tag: int = 0
    ) -> Iterator:
        """Concurrent send + receive (the ping-pong building block)."""
        handle = self.irecv(source=source, tag=tag)
        self.isend(dest, size, tag=tag)
        result = yield from self.session.wait(handle)
        return result

    # ------------------------------------------------------------------ #
    # collectives (schedules: the algorithm table of repro.api.collectives)
    # ------------------------------------------------------------------ #

    #: tag slots reserved per collective call (bounds the round count)
    _TAGS_PER_COLLECTIVE = 64

    def _next_collective_tag(self, span: int) -> int:
        # Every rank calls collectives in the same order (MPI semantics),
        # so a per-rank counter yields matching tag blocks across ranks.
        # Algorithms needing more than one 64-slot block (e.g. a ring
        # all-to-all across 128 ranks) reserve several.
        tag = (
            _COLLECTIVE_TAG_BASE
            + self._collective_seq * self._TAGS_PER_COLLECTIVE
        )
        blocks = -(-max(1, span) // self._TAGS_PER_COLLECTIVE)
        self._collective_seq += blocks
        return tag

    def _resolve_algorithm(
        self, collective: str, algorithm: Optional[str], nbytes: int,
        root: int,
    ) -> str:
        """Per-call override > world default > ``"naive"``; ``"auto"``
        goes through the world's cost-model selector, which checks
        feasibility at the call's ``root``.  Barrier and scatter run
        their one fixed schedule."""
        if collective not in coll.VALID_ALGORITHMS:
            return next(iter(coll.ALGORITHMS[collective]))
        if algorithm is None:
            algorithm = self.world.collectives.get(collective, "naive")
        coll.validate_algorithm(collective, algorithm)
        if algorithm == "auto":
            algorithm = self.world.selector().select(
                collective,
                max(1, nbytes),
                self.size,
                health=self.world.fabric_health(),
                root=root,
            )
        return algorithm

    def _collective(
        self,
        name: str,
        algorithm: Optional[str],
        data: "int | str | Sequence[Sequence[int | str]] | None" = None,
        root: Optional[int] = None,
    ) -> Iterator:
        """The one collective path: validate and parse, resolve
        ``auto``, reserve the tag block, run the table's schedule —
        inside a profiling scope while a profiler is subscribed."""
        if root is not None:
            self._check_root(root)
        if name == "barrier":
            args: tuple = ()
            nbytes = peak = 0
        elif name == "alltoallv":
            sizes = self._traffic_sizes(data)
            args = (sizes,)
            nbytes = sum(sizes[self.rank])
            peak = max(map(max, sizes))  # the widest flow prices auto
        else:
            nbytes = peak = parse_size(data)
            args = (nbytes,) if root is None else (nbytes, root)
        # A lone rank has no peers: the default entry, nothing to run.
        algo, body = next(iter(coll.ALGORITHMS[name])), iter(())
        if self.size > 1:
            algo = self._resolve_algorithm(name, algorithm, peak, root or 0)
            entry = coll.ALGORITHMS[name][algo]
            plan = () if entry.plan is None else (entry.plan(self, *args),)
            tag = self._next_collective_tag(entry.span(self.size, *plan))
            body = entry.schedule(self, *args, tag, *plan)
        if self.world.cluster.hooks.on_collective_op:
            yield from self._profile(name, algo, nbytes, body)
        else:
            yield from body

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.size:
            raise ConfigurationError(f"root {root} outside 0..{self.size - 1}")

    def _traffic_sizes(
        self, matrix: Sequence[Sequence["int | str"]]
    ) -> List[List[int]]:
        """An alltoallv traffic matrix checked and parsed to bytes."""
        n = self.size
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ConfigurationError(
                f"traffic matrix must be {n}x{n} for this world"
            )
        try:
            sizes = [
                [parse_size(v) if v else 0 for v in row] for row in matrix
            ]
        except ValueError as exc:
            raise ConfigurationError(
                f"bad traffic matrix entry: {exc}"
            ) from exc
        for i in range(n):
            if sizes[i][i]:
                raise ConfigurationError(
                    f"traffic matrix has a self-send at rank {i} "
                    "(self-sends are not modelled)"
                )
            for j in range(n):
                if sizes[i][j] < 0:
                    raise ConfigurationError(
                        f"negative traffic matrix entry [{i}][{j}]: {sizes[i][j]}"
                    )
        return sizes

    # -- collective critical-path profiling (docs/observability.md) --

    def _profile(
        self, name: str, algorithm: str, nbytes: int, body: Iterator
    ) -> Iterator:
        """Run a collective generator inside a profiling scope.

        Purely passive: marks this rank's send log before the schedule
        runs and emits ``on_collective_op`` with the slice of messages it
        posted afterwards — no extra event, no timestamp moved.
        Completion times are read lazily once the run drains.
        """
        cluster = self.world.cluster
        engine = self.session.engine
        mark = len(engine.sent_log)
        t0 = cluster.sim.now
        yield from body
        cluster.hooks.on_collective_op(
            self.rank, self.session.node, name, algorithm, nbytes,
            self._profile_seq, t0, cluster.sim.now,
            engine.sent_log[mark:], self._hop_predict(),
        )
        self._profile_seq += 1

    def _hop_predict(self):
        """The cost model's memoized per-hop lookup."""
        return self.world.selector().hop

    def barrier(self) -> Iterator:
        """Dissemination barrier: ceil(log2(n)) rounds of 1-byte tokens.

        In round ``k`` every rank sends to ``rank + 2^k`` and waits for a
        token from ``rank - 2^k`` (mod n); after the last round all ranks
        are transitively synchronized.
        """
        return self._collective("barrier", None)

    def bcast(
        self, size: "int | str", root: int = 0,
        algorithm: Optional[str] = None,
    ) -> Iterator:
        """Broadcast of ``size`` bytes from ``root``.

        ``algorithm``: ``naive`` (the classic whole-message binomial
        tree, the default), ``binomial`` (segmented/pipelined tree),
        ``ring`` (segmented ring pipeline), ``doubling`` (scatter +
        allgather), or ``auto``.
        """
        return self._collective("bcast", algorithm, size, root)

    def gather(
        self, size: "int | str", root: int = 0,
        algorithm: Optional[str] = None,
    ) -> Iterator:
        """Gather of ``size`` bytes per rank to ``root``.

        ``algorithm``: ``naive`` (linear, the default), ``binomial``
        (combining tree), ``ring`` (neighbour pipeline), or ``auto``.
        """
        return self._collective("gather", algorithm, size, root)

    def alltoall(
        self, size: "int | str", algorithm: Optional[str] = None
    ) -> Iterator:
        """Each rank sends ``size`` bytes to every other rank.

        ``algorithm``: ``naive`` (post everything at once, the default),
        ``ring`` (rank-shifted pairwise rounds — no port storm),
        ``doubling`` (Bruck, log rounds of aggregated blocks), ``rails``
        (RailS-style segmented/balanced schedule), or ``auto``.
        """
        return self._collective("alltoall", algorithm, size)

    def scatter(self, size: "int | str", root: int = 0) -> Iterator:
        """Root sends a distinct ``size``-byte block to every other rank.

        Linear (the root owns all the data, so the tree variants only
        move *more* bytes; linear matches MPICH's default for scatter of
        large blocks).
        """
        return self._collective("scatter", None, size, root)

    def allgather(
        self, size: "int | str", algorithm: Optional[str] = None
    ) -> Iterator:
        """Every rank ends up with every rank's ``size``-byte block.

        ``algorithm``: ``naive`` (Bruck/dissemination, the default),
        ``ring`` (n-1 neighbour rounds, bandwidth-optimal), ``doubling``
        (recursive doubling on power-of-two worlds), or ``auto``.
        """
        return self._collective("allgather", algorithm, size)

    def reduce(
        self, size: "int | str", root: int = 0,
        algorithm: Optional[str] = None,
    ) -> Iterator:
        """Reduction of ``size``-byte contributions to ``root``.

        ``algorithm``: ``naive`` (whole-message binomial tree, the
        default — the mirror image of :meth:`bcast`), ``binomial``
        (segmented/pipelined tree), ``ring`` (reduce-scatter + block
        gather), or ``auto``.  Combination cost is the receive itself —
        payloads are sizes, not values.
        """
        return self._collective("reduce", algorithm, size, root)

    def alltoallv(
        self,
        matrix: Sequence[Sequence["int | str"]],
        algorithm: Optional[str] = None,
    ) -> Iterator:
        """Irregular all-to-all from a global n×n traffic ``matrix``
        (``matrix[i][j]`` = bytes rank i sends rank j; zero diagonal).

        Every rank receives the same matrix — the traffic-engineering
        setting of RailS, where the demand is known (e.g. an MoE
        router's expert counts).  ``algorithm``: ``naive`` (one message
        per flow, posted at once — uniform striping), ``rails`` (the
        segmented, rank-shifted, windowed balanced schedule) or
        ``replan`` (``rails`` that re-plans on fault signals; never
        picked by ``auto``).  ``auto`` picks ``rails`` from 3 ranks up;
        at 2 ranks naive and rails price the same and the name
        tie-break picks ``naive``.
        """
        return self._collective("alltoallv", algorithm, matrix)


class MpiWorld:
    """A set of ranks over a multirail fabric (full mesh by default)."""

    def __init__(
        self,
        cluster: Cluster,
        size: int,
        node_names: Optional[Sequence[str]] = None,
        collectives: Optional[Dict[str, str]] = None,
    ) -> None:
        self.cluster = cluster
        self.size = size
        if node_names is None:
            node_names = [_rank_name(r) for r in range(size)]
        if len(node_names) != size:
            raise ConfigurationError(
                f"world of {size} ranks got {len(node_names)} node names"
            )
        self._node_names: List[str] = list(node_names)
        overrides = dict(collectives) if collectives else {}
        if not overrides and cluster.collectives:
            overrides = dict(cluster.collectives)
        self.collectives: Dict[str, str] = coll.validate_overrides(overrides)
        self._selector: Optional[AlgorithmSelector] = None
        #: the last health view and the (clock, faults fired) it reads
        self._health: Optional[coll.FabricHealth] = None
        self._health_key: Optional[Tuple[float, int]] = None
        self.comms: List[Communicator] = [Communicator(self, r) for r in range(size)]

    def __repr__(self) -> str:
        return f"<MpiWorld size={self.size}>"

    def node_name(self, rank: int) -> str:
        """Cluster node name hosting a rank."""
        if not 0 <= rank < self.size:
            raise ConfigurationError(f"rank {rank} outside 0..{self.size - 1}")
        return self._node_names[rank]

    def rail_estimators(self) -> List:
        """Sampled per-technology estimators, sorted by technology.

        The hetero-split curves the collective algorithms size their
        pipeline segments from.
        """
        estimators = self.cluster.profiles.estimators
        return [estimators[t] for t in sorted(estimators)]

    def fabric_health(self) -> Optional[coll.FabricHealth]:
        """Liveness view for feasibility filtering, or ``None`` healthy.

        Only built when a fault schedule is armed against the cluster —
        an un-faulted world skips the probing entirely, so the healthy
        ``auto`` path stays byte-identical to pre-fault-surface builds.

        Every rank's ``auto`` call asks, so one view serves them all
        while the clock and the injector's ``faults_fired`` stand still:
        only a fault firing changes the fabric a view reads, and the
        next call after one, at that instant or later, gets a fresh view.
        """
        injector = getattr(self.cluster, "fault_injector", None)
        if injector is None:
            return None
        key = (self.cluster.sim.now, injector.faults_fired)
        if self._health is None or key != self._health_key:
            self._health = coll.FabricHealth(self.cluster, self._node_names)
            self._health_key = key
        return self._health

    def selector(self) -> AlgorithmSelector:
        """The cost-model selector behind ``algorithm="auto"``."""
        if self._selector is None:
            self._selector = AlgorithmSelector(self.cluster.profiles.estimators)
        return self._selector

    @classmethod
    def create(
        cls,
        n_ranks: Optional[int] = None,
        strategy: StrategySpec = "hetero_split",
        rails: Sequence[str] = ("myri10g", "quadrics"),
        profiles=None,
        fabric: Optional[Fabric] = None,
        collectives: Optional[Dict[str, str]] = None,
        observability: bool = False,
    ) -> "MpiWorld":
        """Build a world — a full mesh by default (every rank pair joined
        by one wire per technology, the paper's testbed generalized), or
        any :class:`~repro.hardware.topology.Fabric`::

            MpiWorld.create(8)                                # full mesh
            MpiWorld.create(fabric=Fabric.fat_tree(16))       # switched
            MpiWorld.create(8, collectives={"alltoall": "ring"})

        ``collectives`` sets the world's default algorithm per
        collective; individual calls can still override it.
        ``observability=True`` arms the full obs bundle (tracer, metrics
        with link/spine accounting, prediction accuracy, collective
        profiler).
        """
        if fabric is None:
            if n_ranks is None:
                raise ConfigurationError("pass n_ranks or a fabric")
            if n_ranks < 2:
                raise ConfigurationError(
                    f"an MPI world needs >= 2 ranks, got {n_ranks}"
                )
            fabric = Fabric.full_mesh(n_ranks, rails)
        elif n_ranks is not None and n_ranks != fabric.size:
            raise ConfigurationError(
                f"n_ranks {n_ranks} != fabric size {fabric.size}; "
                "pass one or the other"
            )
        ranked = fabric.with_node_names(
            [_rank_name(r) for r in range(fabric.size)]
        )
        builder = ClusterBuilder(strategy=strategy).fabric(ranked)
        if profiles is not None:
            builder.sampling(profiles=profiles)
        if observability:
            builder.observability()
        return cls(builder.build(), fabric.size, collectives=collectives)

    @classmethod
    def from_cluster(
        cls,
        cluster: Cluster,
        node_names: Optional[Sequence[str]] = None,
        collectives: Optional[Dict[str, str]] = None,
    ) -> "MpiWorld":
        """Wrap an already-built cluster: one rank per node.

        Rank order follows ``node_names``, else the cluster's fabric
        description (config-built clusters carry one), else the order
        the nodes were added in (:meth:`ClusterBuilder.add_node`).
        Collective defaults fall back to the cluster's
        (:meth:`ClusterBuilder.collectives`, the config ``collectives:``
        section).
        """
        if node_names is None:
            if cluster.fabric is not None:
                node_names = list(cluster.fabric.nodes)
            else:
                node_names = list(cluster.engines)
        unknown = [n for n in node_names if n not in cluster.engines]
        if unknown:
            raise ConfigurationError(
                f"unknown node(s) {unknown}; have {sorted(cluster.engines)}"
            )
        return cls(
            cluster, len(node_names), node_names=node_names,
            collectives=collectives,
        )

    def comm(self, rank: int) -> Communicator:
        try:
            return self.comms[rank]
        except IndexError:
            raise ConfigurationError(f"no rank {rank}; world size {self.size}") from None

    def spawn_all(self, program: Callable[[Communicator], Iterator]) -> List:
        """Start ``program(comm)`` as one simulation process per rank."""
        return [
            self.cluster.sim.spawn(program(comm), name=f"rank{comm.rank}")
            for comm in self.comms
        ]

    def run(self, until: Optional[float] = None) -> "RunResult":
        return self.cluster.run(until=until)
