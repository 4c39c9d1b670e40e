"""Collective schedules: one algorithm table behind every collective.

Every schedule a :class:`~repro.api.mpi.Communicator` collective can run
lives here, registered in :data:`ALGORITHMS` under its (collective,
algorithm) pair with the tag span it needs.  The classic algorithms —
ring / binomial / recursive-doubling — are selectable per call
(``comm.bcast(..., algorithm="ring")``), per world
(``MpiWorld.create(..., collectives={...})``), or by the cost-model
:class:`AlgorithmSelector` (``algorithm="auto"``), following the
model-selects-algorithm pattern of Barchet-Estefanel & Mounié's
intra-cluster collective tuning.  Each collective's ``naive`` entry is
the default and reuses a schedule of the table with whole messages (see
docs/collectives.md for which one).

Every per-hop send rides the engine unchanged, so a large hop is still
hetero-split across all rails by the paper's strategy; the *pipeline
segmentation* here additionally cuts large payloads into per-hop chunks
sized from the same sampled curves
(:func:`repro.core.strategies.striped_transfer_time`), which lets ring
and tree schedules overlap hops instead of store-and-forwarding whole
messages.

The RailS-style balanced all-to-all (``algorithm="rails"``) spreads a
*skewed* traffic matrix: flows are segmented, destinations are walked in
rank-shifted round-robin order, and a bounded send window paces each
source — so a hot (MoE-shaped) destination column is fed evenly from all
sources while every rail stays busy, instead of head-of-line blocking
whole queues behind the elephant flows.

All schedules are deterministic: same world + same calls = bit-identical
timestamps.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.packets import Message
from repro.core.split import equal_split
from repro.core.strategies import striped_transfer_time
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - type-only import (mpi imports us)
    from repro.api.mpi import Communicator
    from repro.core.estimator import NicEstimator

#: per-hop pipeline segmentation: never cut below this
MIN_SEGMENT_BYTES = 16 * 1024
#: a segment must cost at least this many fixed per-hop costs
PIPELINE_COST_RATIO = 8.0
#: upper bound on segments per hop (bounds tag-block spans)
MAX_SEGMENTS = 32
#: rails-balanced all-to-all: cap on segments per flow
BALANCE_MAX_SEGMENTS = 32
#: re-planning all-to-all: sends in flight between checkpoint looks
REPLAN_WINDOW = 4


def validate_algorithm(collective: str, algorithm: str) -> str:
    """``algorithm`` checked against the collective's choices.

    Raises :class:`ConfigurationError` naming every valid choice —
    unknown names never pass silently.
    """
    try:
        valid = VALID_ALGORITHMS[collective]
    except KeyError:
        raise ConfigurationError(
            f"unknown collective {collective!r}; known: "
            f"{sorted(VALID_ALGORITHMS)}"
        ) from None
    if algorithm not in valid:
        raise ConfigurationError(
            f"unknown {collective} algorithm {algorithm!r}; "
            f"valid choices: {list(valid)}"
        )
    return algorithm


def validate_overrides(overrides: Mapping[str, str]) -> Dict[str, str]:
    """A ``{collective: algorithm}`` mapping, fully validated."""
    if not isinstance(overrides, Mapping):
        raise ConfigurationError(
            f"collectives overrides must map collective -> algorithm; "
            f"got {overrides!r}"
        )
    out: Dict[str, str] = {}
    for collective, algorithm in overrides.items():
        validate_algorithm(str(collective), str(algorithm))
        out[str(collective)] = str(algorithm)
    return out


# --------------------------------------------------------------------- #
# per-hop pipeline segmentation (reuses the sampled hetero-split curves)
# --------------------------------------------------------------------- #


def pipeline_segments(
    nbytes: int,
    estimators: Sequence["NicEstimator"],
    max_segments: int = MAX_SEGMENTS,
    min_bytes: Optional[int] = None,
) -> List[int]:
    """Cut one hop's payload into pipeline segments.

    The segment size is the smallest power-of-two ≥ ``min_bytes``
    (default :data:`MIN_SEGMENT_BYTES`) whose predicted striped hop time
    (:func:`striped_transfer_time` — the hetero-split waterfill over the
    sampled curves) amortizes the fixed per-hop cost by
    :data:`PIPELINE_COST_RATIO`; without estimators (a schedule recorded
    by :func:`required_pairs`) the message stays whole.  Deterministic, and exact: segment sizes always sum to
    ``nbytes``.
    """
    if nbytes <= 0:
        return [nbytes] if nbytes else []
    floor = MIN_SEGMENT_BYTES if min_bytes is None else max(1, min_bytes)
    if not estimators or nbytes <= floor:
        return [nbytes]
    alpha = striped_transfer_time(estimators, 1)
    target = PIPELINE_COST_RATIO * alpha
    seg = 1 << max(0, (floor - 1).bit_length())
    while seg < nbytes and striped_transfer_time(estimators, seg) < target:
        seg *= 2
    n_seg = max(1, min(max_segments, -(-nbytes // seg)))
    return equal_split(nbytes, n_seg)


def rails_segment_floor(estimators: Sequence["NicEstimator"]) -> int:
    """Smallest segment the balanced all-to-all will cut.

    Every segment must stay *above* every rail's rendezvous threshold:
    an eager-sized segment would ride a single rail whole, silently
    giving up the hetero-split striping the balancer exists to feed.
    """
    thresholds = [est.rdv_threshold() + 1 for est in estimators]
    return max([MIN_SEGMENT_BYTES] + thresholds)


# --------------------------------------------------------------------- #
# cost-model algorithm selection
# --------------------------------------------------------------------- #


class AlgorithmSelector:
    """Message size × ranks × rail profiles → collective algorithm.

    The cost model prices every implemented schedule with the same
    striped-hop primitive the planner uses (α = fixed per-hop cost,
    t(x) = predicted striped time of an x-byte hop) and picks the
    cheapest — the "fast tuning" decision table of Barchet-Estefanel &
    Mounié, computed from this fabric's sampled curves instead of
    offline calibration runs.
    """

    def __init__(
        self,
        estimators: Mapping[str, "NicEstimator"],
        technologies: Optional[Sequence[str]] = None,
    ) -> None:
        if technologies is None:
            technologies = sorted(estimators)
        missing = [t for t in technologies if t not in estimators]
        if missing:
            raise ConfigurationError(
                f"no sampled profile for rail(s) {missing}; "
                f"have {sorted(estimators)}"
            )
        if not technologies:
            raise ConfigurationError("AlgorithmSelector needs >= 1 rail profile")
        self.technologies = tuple(technologies)
        self.estimators = [estimators[t] for t in self.technologies]
        self._hop_memo: Dict[int, float] = {}
        #: pick per ``(collective, size, ranks, root)`` while no fault
        #: schedule is armed: every rank of a world asks for the same shape
        self._picks: Dict[Tuple[str, int, int, int], str] = {}
        #: measured/predicted blend applied to unmeasured sizes after
        #: :meth:`calibrate`; 1.0 until measurements arrive
        self.hop_scale: float = 1.0

    def hop(self, size: int) -> float:
        """Predicted striped one-hop time of ``size`` bytes (µs)."""
        size = max(1, int(size))
        t = self._hop_memo.get(size)
        if t is None:
            t = striped_transfer_time(self.estimators, size) * self.hop_scale
            self._hop_memo[size] = t
        return t

    def calibrate(self, measured: Mapping[int, float]) -> float:
        """Blend measured per-size hop times into the cost model.

        ``measured`` is a ``size → mean measured µs`` table — exactly
        what :func:`repro.obs.collective.measured_hop_table` produces
        from the collective profiler's hop rows.  Measured sizes
        override the model's prediction outright; unmeasured sizes are
        scaled by the mean measured/predicted ratio, so queueing and
        contention the contention-blind model missed shift every
        decision consistently.  Deterministic: iteration is size-sorted
        and the memo is rebuilt from scratch.  Returns the ratio
        (1.0 when nothing usable was measured).
        """
        overrides: Dict[int, float] = {}
        ratios: List[float] = []
        for size in sorted(measured):
            s = max(1, int(size))
            t = float(measured[size])
            if t <= 0:
                continue
            base = striped_transfer_time(self.estimators, s)
            if base > 0:
                ratios.append(t / base)
            overrides[s] = t
        if overrides:
            self.hop_scale = (
                sum(ratios) / len(ratios) if ratios else self.hop_scale
            )
            self._hop_memo.clear()
            self._hop_memo.update(overrides)
            self._picks.clear()
        return self.hop_scale

    def _segments_of(self, size: int) -> int:
        return len(pipeline_segments(size, self.estimators))

    def costs(
        self,
        collective: str,
        size: int,
        ranks: int,
        health: Optional["FabricHealth"] = None,
        root: int = 0,
    ) -> Dict[str, float]:
        """Predicted completion (µs) per implemented algorithm.

        With a :class:`FabricHealth` view, algorithms whose schedule,
        rooted at ``root``, sends over a currently-down link are excluded
        outright — pricing a schedule that cannot deliver is worse than
        useless.  Raises :class:`ConfigurationError` only when *no*
        algorithm is feasible.
        """
        if ranks < 2:
            raise ConfigurationError(f"cost model needs >= 2 ranks, got {ranks}")
        if size < 1:
            raise ConfigurationError(f"cost model needs a positive size: {size}")
        n, s, t = ranks, size, self.hop
        rounds = max(1, math.ceil(math.log2(n)))
        seg_count = self._segments_of(s)
        seg = max(1, s // seg_count)
        out: Dict[str, float] = {}
        if collective == "bcast":
            out["naive"] = rounds * t(s)
            out["binomial"] = (rounds + seg_count - 1) * t(seg)
            out["ring"] = (n - 2 + seg_count) * t(seg)
            block = max(1, s // n)
            scatter = sum(t(max(1, s >> (k + 1))) for k in range(rounds))
            gather_back = sum(
                t(min(1 << k, n - (1 << k)) * block)
                for k in range(rounds)
                if (1 << k) < n
            )
            out["doubling"] = scatter + gather_back
        elif collective == "gather":
            out["naive"] = (n - 1) * t(s)
            out["binomial"] = sum(
                t(min(1 << k, n - (1 << k)) * s)
                for k in range(rounds)
                if (1 << k) < n
            )
            out["ring"] = sum(t(j * s) for j in range(1, n))
        elif collective == "allgather":
            bruck = sum(
                t(min(1 << k, n - (1 << k)) * s)
                for k in range(rounds)
                if (1 << k) < n
            )
            out["naive"] = bruck
            out["ring"] = (n - 1) * t(s)
            out["doubling"] = (
                sum(t((1 << k) * s) for k in range(rounds))
                if n & (n - 1) == 0
                else bruck
            )
        elif collective == "reduce":
            out["naive"] = rounds * t(s)
            out["binomial"] = (rounds + seg_count - 1) * t(seg)
            block = max(1, s // n)
            out["ring"] = 2 * (n - 1) * t(block)
        elif collective in ("alltoall", "alltoallv"):
            # Naive pays the port storm: every source walks destinations
            # in the same order, so early ports saturate while late ones
            # idle — roughly doubling the critical path (see
            # docs/collectives.md).
            out["naive"] = 2 * (n - 1) * t(s)
            out["ring"] = (n - 1) * t(s) + t(s)
            out["doubling"] = sum(
                t(max(1, sum(1 for x in range(1, n) if x & (1 << k)) * s))
                for k in range(rounds)
                if (1 << k) < n
            )
            out["rails"] = out["ring"]
            if collective == "alltoallv":
                # Only the naive and rails schedules take a matrix.
                out = {k: v for k, v in out.items() if k in ("naive", "rails")}
        else:
            raise ConfigurationError(
                f"unknown collective {collective!r}; known: "
                f"{sorted(VALID_ALGORITHMS)}"
            )
        if health is not None:
            feasible = {
                name: cost
                for name, cost in out.items()
                if health.feasible(collective, name, ranks, root)
            }
            if not feasible:
                raise ConfigurationError(
                    f"no feasible {collective} algorithm: every schedule "
                    f"in {sorted(out)} requires a down link or spine"
                )
            out = feasible
        return out

    def select(
        self,
        collective: str,
        size: int,
        ranks: int,
        health: Optional["FabricHealth"] = None,
        root: int = 0,
    ) -> str:
        """The cheapest algorithm for this shape (deterministic ties).

        Without a fault schedule (``health`` None) the pick depends on
        the shape alone until :meth:`calibrate` rescales the model, so it
        is priced once and kept: every rank of a world asks for it.
        """
        key = (collective, size, ranks, root)
        pick = self._picks.get(key) if health is None else None
        if pick is None:
            costs = self.costs(collective, size, ranks, health=health, root=root)
            pick = min(costs.items(), key=lambda kv: (kv[1], kv[0]))[0]
            if health is None:
                self._picks[key] = pick
        return pick

    def table(
        self,
        collective: str,
        size: int,
        ranks: int,
        health: Optional["FabricHealth"] = None,
        root: int = 0,
    ) -> str:
        """Human-readable cost table (printed by ``cli run COLL``)."""
        costs = self.costs(collective, size, ranks, health=health, root=root)
        pick = self.select(collective, size, ranks, health=health, root=root)
        lines = [
            f"{collective} of {size}B across {ranks} ranks "
            f"on {'+'.join(self.technologies)}:"
        ]
        for name, cost in sorted(costs.items(), key=lambda kv: kv[1]):
            marker = " <- selected" if name == pick else ""
            lines.append(f"  {name:<10} {cost:>12.1f} us predicted{marker}")
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# fabric health: which schedules can still deliver
# --------------------------------------------------------------------- #


class _Recorder:
    """Communicator, session and world in one object, for running a rank
    program without a simulator: ``isend`` records the undirected rank
    pair, every wait completes at once, peer names are the ranks
    themselves, and with no rail estimators every hop is one segment."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.rank = 0
        self.pairs: Set[Tuple[int, int]] = set()
        self.session = self.world = self

    def peer_name(self, rank: int) -> int:
        return rank

    def rail_estimators(self) -> List["NicEstimator"]:
        return []

    def isend(self, dest: int, size: int, tag: int) -> None:
        self.pairs.add((min(self.rank, dest), max(self.rank, dest)))

    def irecv(self, source: int, tag: int) -> None:
        return None

    def wait(self, handle: object) -> Iterator:
        return iter(())


@functools.lru_cache(maxsize=None)
def required_pairs(
    collective: str, algorithm: str, ranks: int, root: int = 0
) -> FrozenSet[Tuple[int, int]]:
    """Undirected rank pairs ``(i, j)``, ``i < j``, that an algorithm's
    schedule sends between when ``root`` roots it.

    Recorded, not declared: each rank's program from :data:`ALGORITHMS`
    runs once on a :class:`_Recorder` with 1-byte payloads (alltoallv
    with :func:`uniform_matrix` of 1 byte), so the pairs are exactly
    what the schedule sends.  ``replan`` is recorded as ``rails``: it
    sends the same segments in another order, and its body reads live
    engine state.  The feasibility side of the cost model: an algorithm
    is only priceable if each of its pairs has a live path.  Memoized
    per shape, hence frozen.
    """
    validate_algorithm(collective, algorithm)
    if algorithm == "auto":
        raise ConfigurationError(
            "required_pairs wants a concrete algorithm, not 'auto'"
        )
    if collective == "alltoallv":
        args: tuple = (uniform_matrix(ranks, 1),)
    elif collective in ("bcast", "gather", "reduce"):
        args = (1, root)
    else:
        args = (1,)
    entry = ALGORITHMS[collective]["rails" if algorithm == "replan" else algorithm]
    rec = _Recorder(ranks)
    for rank in range(ranks):
        rec.rank = rank
        plan = () if entry.plan is None else (entry.plan(rec, *args),)
        for _ in entry.schedule(rec, *args, 0, *plan):
            pass
    return frozenset(rec.pairs)


class FabricHealth:
    """Liveness view over a built cluster's rails and fabric.

    ``alive(i, j)`` is True when *any* rail between ranks ``i`` and
    ``j`` can currently deliver.  Each rail's wire or switch answers
    for its own path (``path_alive``: both NICs up, both switch edge
    links up and, for inter-pod fat-tree flows, a usable spine).
    Purely read-only: probing health mutates no simulator state.  A
    view answers for the instant it was built at: pair liveness and
    each schedule's feasibility are memoized.
    """

    def __init__(self, cluster, node_names: Sequence[str]) -> None:
        self.cluster = cluster
        self.node_names = list(node_names)
        self._memo: Dict[Tuple[str, str], bool] = {}
        self._feasible: Dict[Tuple[str, str, int, int], bool] = {}

    def node_pair_alive(self, node_a: str, node_b: str) -> bool:
        """Any live rail between two cluster nodes (memoized)."""
        if node_a == node_b:
            return True
        key = (node_a, node_b) if node_a < node_b else (node_b, node_a)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        machine = self.cluster.machines.get(node_a)
        alive = machine is not None and any(
            nic.wire is not None and nic.wire.path_alive(nic, node_b)
            for nic in machine.nics
        )
        self._memo[key] = alive
        return alive

    def alive(self, i: int, j: int) -> bool:
        """Any live rail between ranks ``i`` and ``j``."""
        return self.node_pair_alive(self.node_names[i], self.node_names[j])

    def feasible(
        self, collective: str, algorithm: str, ranks: int, root: int = 0
    ) -> bool:
        """Can this schedule's every required pair still communicate?
        (memoized)"""
        key = (collective, algorithm, ranks, root)
        ok = self._feasible.get(key)
        if ok is None:
            ok = self._feasible[key] = all(
                self.alive(i, j)
                for i, j in required_pairs(collective, algorithm, ranks, root)
            )
        return ok


# --------------------------------------------------------------------- #
# schedule helpers
# --------------------------------------------------------------------- #


def _vranks(comm: "Communicator", root: int) -> Tuple[int, int]:
    """(virtual rank, size) with ``root`` mapped to 0."""
    return (comm.rank - root) % comm.size, comm.size


def _binomial_parent_children(
    vrank: int, n: int
) -> Tuple[Optional[int], List[int]]:
    """Parent and children (virtual ranks) in the binomial bcast tree.

    The classic mask walk: the parent clears the lowest set bit;
    children sit at decreasing strides below it.
    """
    mask = 1
    parent: Optional[int] = None
    while mask < n:
        if vrank & mask:
            parent = vrank ^ mask
            break
        mask <<= 1
    mask >>= 1
    children = []
    while mask > 0:
        if vrank + mask < n:
            children.append(vrank + mask)
        mask >>= 1
    return parent, children


def _reduce_children_parent(
    vrank: int, n: int
) -> Tuple[List[int], Optional[int], int]:
    """Children (ascending stride), parent, and own subtree size in the
    binomial reduce/gather tree (the same mask walk, upward)."""
    children = []
    mask = 1
    while mask < n:
        if vrank & mask:
            break
        child = vrank + mask
        if child < n:
            children.append(child)
        mask <<= 1
    parent = (vrank ^ mask) if vrank != 0 else None
    subtree = min(mask, n - vrank)
    return children, parent, subtree


# --------------------------------------------------------------------- #
# barrier and scatter (one fixed schedule each)
# --------------------------------------------------------------------- #


def barrier_dissemination(comm: "Communicator", tag: int) -> Iterator:
    """Dissemination barrier: ceil(log2(n)) rounds of 1-byte tokens.

    In round ``k`` every rank sends to ``rank + 2^k`` and waits for a
    token from ``rank - 2^k`` (mod n); after the last round all ranks
    are transitively synchronized.
    """
    n = comm.size
    name = comm.peer_name
    round_no = 0
    dist = 1
    while dist < n:
        peer_to = (comm.rank + dist) % n
        peer_from = (comm.rank - dist) % n
        comm.session.isend(name(peer_to), 1, tag=tag + round_no)
        handle = comm.session.irecv(source=name(peer_from), tag=tag + round_no)
        yield from comm.session.wait(handle)
        dist *= 2
        round_no += 1


def scatter_linear(
    comm: "Communicator", nbytes: int, root: int, tag: int
) -> Iterator:
    """Linear scatter: the root sends every other rank its block and
    waits for the last.  The root owns all the data, so the tree
    variants only move *more* bytes; linear matches MPICH's default for
    scatter of large blocks."""
    name = comm.peer_name
    if comm.rank == root:
        last: Optional[Message] = None
        for r in range(comm.size):
            if r != root:
                last = comm.session.isend(name(r), nbytes, tag=tag)
        if last is not None:
            yield from comm.session.wait(last)
    else:
        handle = comm.session.irecv(source=name(root), tag=tag)
        yield from comm.session.wait(handle)


# --------------------------------------------------------------------- #
# broadcast
# --------------------------------------------------------------------- #


def bcast_binomial(
    comm: "Communicator", nbytes: int, root: int, tag: int,
    segments: Sequence[int],
) -> Iterator:
    """Pipelined binomial tree: segment k is forwarded to every child as
    soon as it arrives, so tree levels overlap on large payloads."""
    v, n = _vranks(comm, root)
    parent, children = _binomial_parent_children(v, n)
    name = comm.peer_name
    actual = lambda vr: (vr + root) % n  # noqa: E731 - tiny mapper
    for k, seg in enumerate(segments):
        if parent is not None:
            handle = comm.session.irecv(source=name(actual(parent)), tag=tag + k)
            yield from comm.session.wait(handle)
        for child in children:
            comm.session.isend(name(actual(child)), seg, tag=tag + k)


def bcast_ring(
    comm: "Communicator", nbytes: int, root: int, tag: int,
    segments: Sequence[int],
) -> Iterator:
    """Segmented ring pipeline: n-2+S hop steps instead of S·(n-1)."""
    v, n = _vranks(comm, root)
    name = comm.peer_name
    left = ((v - 1) + root) % n
    right = ((v + 1) + root) % n
    for k, seg in enumerate(segments):
        if v != 0:
            handle = comm.session.irecv(source=name(left), tag=tag + k)
            yield from comm.session.wait(handle)
        if v != n - 1:
            comm.session.isend(name(right), seg, tag=tag + k)


def bcast_doubling(
    comm: "Communicator", nbytes: int, root: int, tag: int
) -> Iterator:
    """Van de Geijn large-message broadcast: binomial scatter of n
    blocks, then a dissemination (Bruck) allgather of the blocks —
    ~2×(n-1)/n of the bytes of a binomial tree per link, in 2·log
    rounds."""
    v, n = _vranks(comm, root)
    name = comm.peer_name
    actual = lambda vr: (vr + root) % n  # noqa: E731 - tiny mapper
    blocks = equal_split(nbytes, n)

    def span_bytes(start: int, count: int) -> int:
        return sum(blocks[(start + j) % n] for j in range(count))

    # Phase 1: binomial scatter — the child at stride m owns blocks
    # [child, child+m) clipped to n.
    mask = 1
    recv_mask = None
    while mask < n:
        if v & mask:
            recv_mask = mask
            parent = v ^ mask
            handle = comm.session.irecv(source=name(actual(parent)), tag=tag)
            yield from comm.session.wait(handle)
            break
        mask <<= 1
    mask = (recv_mask or mask) >> 1
    while mask > 0:
        child = v + mask
        if child < n:
            size = span_bytes(child, min(mask, n - child))
            comm.session.isend(name(actual(child)), max(1, size), tag=tag)
        mask >>= 1
    # Phase 2: Bruck allgather of the blocks over virtual ranks.
    accumulated = 1
    dist = 1
    round_no = 1
    while dist < n:
        count = min(accumulated, n - accumulated)
        peer_to = actual((v - dist) % n)
        peer_from = actual((v + dist) % n)
        comm.session.isend(
            name(peer_to), max(1, span_bytes(v, count)), tag=tag + round_no
        )
        handle = comm.session.irecv(source=name(peer_from), tag=tag + round_no)
        yield from comm.session.wait(handle)
        accumulated = min(n, accumulated * 2)
        dist *= 2
        round_no += 1


# --------------------------------------------------------------------- #
# gather
# --------------------------------------------------------------------- #


def gather_linear(
    comm: "Communicator", nbytes: int, root: int, tag: int
) -> Iterator:
    """Linear gather: the root posts a receive per rank and waits for
    them in rank order; every other rank sends its block straight to
    the root."""
    name = comm.peer_name
    if comm.rank == root:
        handles = [
            comm.session.irecv(source=name(r), tag=tag)
            for r in range(comm.size)
            if r != root
        ]
        for handle in handles:
            yield from comm.session.wait(handle)
    else:
        msg = comm.session.isend(name(root), nbytes, tag=tag)
        yield from comm.session.wait(msg)


def gather_binomial(
    comm: "Communicator", nbytes: int, root: int, tag: int
) -> Iterator:
    """Binomial-tree gather: subtree blocks combine upward, so the root
    takes ceil(log2 n) receives instead of n-1."""
    v, n = _vranks(comm, root)
    name = comm.peer_name
    children, parent, subtree = _reduce_children_parent(v, n)
    for child in children:
        handle = comm.session.irecv(source=name((child + root) % n), tag=tag)
        yield from comm.session.wait(handle)
    if parent is not None:
        msg = comm.session.isend(
            name((parent + root) % n), subtree * nbytes, tag=tag
        )
        yield from comm.session.wait(msg)


def gather_ring(
    comm: "Communicator", nbytes: int, root: int, tag: int
) -> Iterator:
    """Ring gather: blocks accumulate around the ring toward the root —
    one long pipeline, each node touching exactly one neighbour."""
    v, n = _vranks(comm, root)
    name = comm.peer_name
    if v != n - 1:
        handle = comm.session.irecv(source=name((v + 1 + root) % n), tag=tag)
        yield from comm.session.wait(handle)
    if v != 0:
        msg = comm.session.isend(
            name((v - 1 + root) % n), (n - v) * nbytes, tag=tag
        )
        yield from comm.session.wait(msg)


# --------------------------------------------------------------------- #
# allgather
# --------------------------------------------------------------------- #


def allgather_ring(comm: "Communicator", nbytes: int, tag: int) -> Iterator:
    """Classic ring allgather: n-1 rounds, one block to the right, one
    block from the left — bandwidth-optimal for large blocks."""
    n = comm.size
    name = comm.peer_name
    right = (comm.rank + 1) % n
    left = (comm.rank - 1) % n
    for k in range(n - 1):
        comm.session.isend(name(right), nbytes, tag=tag + k)
        handle = comm.session.irecv(source=name(left), tag=tag + k)
        yield from comm.session.wait(handle)


def allgather_doubling(comm: "Communicator", nbytes: int, tag: int) -> Iterator:
    """Recursive doubling (power-of-two ranks): round k swaps 2^k
    accumulated blocks with the rank XOR 2^k partner.  Non-power-of-two
    worlds fall back to the dissemination (Bruck) schedule."""
    n = comm.size
    name = comm.peer_name
    if n & (n - 1) == 0:
        mask = 1
        round_no = 0
        while mask < n:
            partner = comm.rank ^ mask
            block = mask * nbytes
            handle = comm.session.irecv(source=name(partner), tag=tag + round_no)
            comm.session.isend(name(partner), block, tag=tag + round_no)
            yield from comm.session.wait(handle)
            mask <<= 1
            round_no += 1
        return
    yield from allgather_bruck(comm, nbytes, tag)


def allgather_bruck(comm: "Communicator", nbytes: int, tag: int) -> Iterator:
    """Dissemination (Bruck) allgather: round k sends the blocks gathered
    so far to rank-2^k and takes rank+2^k's — ceil(log2 n) rounds on any
    rank count."""
    n = comm.size
    name = comm.peer_name
    accumulated = 1
    dist = 1
    round_no = 0
    while dist < n:
        peer_to = (comm.rank - dist) % n
        peer_from = (comm.rank + dist) % n
        block = min(accumulated, n - accumulated) * nbytes
        comm.session.isend(name(peer_to), max(1, block), tag=tag + round_no)
        handle = comm.session.irecv(source=name(peer_from), tag=tag + round_no)
        yield from comm.session.wait(handle)
        accumulated = min(n, accumulated * 2)
        dist *= 2
        round_no += 1


# --------------------------------------------------------------------- #
# reduce
# --------------------------------------------------------------------- #


def reduce_binomial(
    comm: "Communicator", nbytes: int, root: int, tag: int,
    segments: Sequence[int],
) -> Iterator:
    """Pipelined binomial reduction: segment k climbs the tree as soon
    as every child delivered it — tree levels overlap on large
    payloads."""
    v, n = _vranks(comm, root)
    name = comm.peer_name
    children, parent, _ = _reduce_children_parent(v, n)
    for k, seg in enumerate(segments):
        for child in children:
            handle = comm.session.irecv(
                source=name((child + root) % n), tag=tag + k
            )
            yield from comm.session.wait(handle)
        if parent is not None:
            msg = comm.session.isend(
                name((parent + root) % n), seg, tag=tag + k
            )
            yield from comm.session.wait(msg)


def reduce_ring(
    comm: "Communicator", nbytes: int, root: int, tag: int
) -> Iterator:
    """Ring reduce-scatter then a block gather to the root: every link
    carries ~s/n per round, the bandwidth-optimal large-message shape."""
    v, n = _vranks(comm, root)
    name = comm.peer_name
    blocks = equal_split(nbytes, n)
    right = (v + 1 + root) % n
    left = (v - 1 + root) % n
    for k in range(n - 1):
        send_block = blocks[(v - k) % n]
        comm.session.isend(name(right), max(1, send_block), tag=tag + k)
        handle = comm.session.irecv(source=name(left), tag=tag + k)
        yield from comm.session.wait(handle)
    # Rank v now owns the fully reduced block (v+1) mod n.
    final_tag = tag + n - 1
    if v != 0:
        owned = blocks[(v + 1) % n]
        msg = comm.session.isend(name(root), max(1, owned), tag=final_tag)
        yield from comm.session.wait(msg)
    else:
        handles = [
            comm.session.irecv(source=name((j + root) % n), tag=final_tag)
            for j in range(1, n)
        ]
        for handle in handles:
            yield from comm.session.wait(handle)


# --------------------------------------------------------------------- #
# all-to-all
# --------------------------------------------------------------------- #


def alltoall_ring(comm: "Communicator", nbytes: int, tag: int) -> Iterator:
    """Rank-shifted pairwise exchange: in round k everyone sends to
    rank+k and receives from rank-k, so every output port serves exactly
    one flow per round — no port storm, unlike the naive post-all."""
    n = comm.size
    name = comm.peer_name
    for k in range(1, n):
        dst = (comm.rank + k) % n
        src = (comm.rank - k) % n
        handle = comm.session.irecv(source=name(src), tag=tag + k)
        msg = comm.session.isend(name(dst), nbytes, tag=tag + k)
        yield from comm.session.wait(handle)
        yield from comm.session.wait(msg)


def alltoall_doubling(comm: "Communicator", nbytes: int, tag: int) -> Iterator:
    """Bruck all-to-all: log2(n) rounds of aggregated blocks — ~n·s/2
    bytes per round but only log rounds of fixed costs, the
    small-message winner."""
    n = comm.size
    name = comm.peer_name
    mask = 1
    round_no = 0
    while mask < n:
        count = sum(1 for x in range(1, n) if x & mask)
        peer_to = (comm.rank - mask) % n
        peer_from = (comm.rank + mask) % n
        comm.session.isend(
            name(peer_to), max(1, count * nbytes), tag=tag + round_no
        )
        handle = comm.session.irecv(source=name(peer_from), tag=tag + round_no)
        yield from comm.session.wait(handle)
        mask <<= 1
        round_no += 1


def _post_all(
    comm: "Communicator",
    tag: int,
    sends: Iterable[Tuple[int, int]],
    sources: Iterable[int],
) -> Iterator:
    """Post every receive, then every ``(dst, bytes)`` send, then wait
    for the receives: the naive all-to-alls' single burst."""
    name = comm.peer_name
    handles = [comm.session.irecv(source=name(src), tag=tag) for src in sources]
    for dst, size in sends:
        comm.session.isend(name(dst), size, tag=tag)
    for handle in handles:
        yield from comm.session.wait(handle)


def alltoall_naive(comm: "Communicator", nbytes: int, tag: int) -> Iterator:
    """Post-everything exchange: all n-1 receives and sends at once,
    zero-byte blocks included — the port storm the ring avoids."""
    peers = [p for p in range(comm.size) if p != comm.rank]
    yield from _post_all(comm, tag, [(p, nbytes) for p in peers], peers)


def alltoallv_naive(
    comm: "Communicator", matrix: Sequence[Sequence[int]], tag: int
) -> Iterator:
    """Post-everything irregular exchange (the uniform-striping
    baseline: each flow is one message, hetero-split across rails).
    Empty flows send nothing."""
    r = comm.rank
    yield from _post_all(
        comm,
        tag,
        [(dst, s) for dst, s in enumerate(matrix[r]) if dst != r and s > 0],
        [src for src, row in enumerate(matrix) if src != r and row[r] > 0],
    )


def rails_segments(
    size: int, estimators: Sequence["NicEstimator"]
) -> List[int]:
    """One flow's segment list under the balanced all-to-all's floor."""
    return pipeline_segments(
        size,
        estimators,
        max_segments=BALANCE_MAX_SEGMENTS,
        min_bytes=rails_segment_floor(estimators) if estimators else None,
    )


def _rails_plan(
    matrix: Sequence[Sequence[int]], estimators: Sequence["NicEstimator"]
) -> Dict[int, List[int]]:
    """:func:`rails_segments` of each distinct positive flow size in
    ``matrix``, cut once per call and shared by the tag span, the
    receives and the send order."""
    return {
        s: rails_segments(s, estimators) for s in set().union(*matrix) if s > 0
    }


def _rails_span(ranks: int, plan: Mapping[int, List[int]]) -> int:
    """One tag block spanning the widest flow's segment count."""
    return max(map(len, plan.values()), default=1)


def _rails_receives(
    comm: "Communicator",
    column: Sequence[int],
    tag: int,
    plan: Mapping[int, List[int]],
) -> List:
    """One receive per incoming segment, posted up front: segment ``t``
    of every flow rides ``tag + t``.  ``column[src]`` is the bytes rank
    ``src`` sends to this rank (the matrix column of this rank)."""
    r = comm.rank
    name = comm.peer_name
    return [
        comm.session.irecv(source=name(src), tag=tag + t)
        for src, size in enumerate(column)
        if src != r and size > 0
        for t in range(len(plan[size]))
    ]


def _balanced_order(
    rank: int, row: Sequence[int], plan: Mapping[int, List[int]]
) -> "deque":
    """:func:`balanced_schedule` of one matrix ``row`` from a plan."""
    n = len(row)
    pending: List[Tuple[int, int, int]] = []
    for d in range(1, n):
        dst = (rank + d) % n
        if row[dst] > 0:
            pending.extend((dst, t, seg) for t, seg in enumerate(plan[row[dst]]))
    return _replan_order(pending, rank, n)


def balanced_schedule(
    rank: int,
    matrix: Sequence[Sequence[int]],
    estimators: Sequence["NicEstimator"],
) -> List[Tuple[int, int, int]]:
    """The RailS-style send schedule for one source rank.

    Returns ``(dst, segment_index, segment_bytes)`` triples: every flow
    in this rank's matrix row cut into rendezvous-sized segments
    (:func:`rails_segments`), emitted in cycles that visit each pending
    destination once — ordered largest-remaining-first (ties broken by
    rank-shifted index, so sources stagger).  Elephant flows start
    immediately *and* interleave with mice, and each hot destination
    column is fed continuously from all sources instead of in
    source-synchronized bursts.  Deterministic, and computed identically
    at every rank (the traffic matrix is global, as in RailS'
    traffic-engineering setting).
    """
    row = matrix[rank]
    return list(_balanced_order(rank, row, _rails_plan([row], estimators)))


def _rails(
    comm: "Communicator",
    matrix: Sequence[Sequence[int]],
    tag: int,
    plan: Mapping[int, List[int]],
) -> Iterator:
    """RailS-style load-balanced irregular all-to-all.

    All segments are posted up front in :func:`balanced_schedule` order
    — the source NIC queues preserve it — so elephants drain from the
    first instant, mice slip between their segments instead of waiting
    behind them (or vice versa, whichever order the naive post would
    have imposed), and every segment is big enough to hetero-split
    across all rails.
    """
    r = comm.rank
    return _rails_flows(comm, matrix[r], [row[r] for row in matrix], tag, plan)


def _rails_flows(
    comm: "Communicator",
    row: Sequence[int],
    column: Sequence[int],
    tag: int,
    plan: Mapping[int, List[int]],
) -> Iterator:
    """:func:`_rails` from this rank's matrix ``row`` (bytes it sends to
    each rank) and ``column`` (bytes each rank sends to it)."""
    handles = _rails_receives(comm, column, tag, plan)
    name = comm.peer_name
    sends = [
        comm.session.isend(name(dst), seg, tag=tag + t)
        for dst, t, seg in _balanced_order(comm.rank, row, plan)
    ]
    for msg in sends:
        yield from comm.session.wait(msg)
    for handle in handles:
        yield from comm.session.wait(handle)


def _replan_order(
    pending: Sequence[Tuple[int, int, int]],
    rank: int,
    n: int,
    price: Optional[Callable[[int], float]] = None,
) -> "deque":
    """Re-cut a remaining send schedule largest-remaining-first.

    Takes the not-yet-sent ``(dst, segment_index, segment_bytes)``
    triples and rebuilds the cycle order of :func:`balanced_schedule`
    from what is *actually* left — the destinations that lost the most
    to the fault lead every cycle.  ``price`` (the selector's per-hop
    cost, from :func:`_replan`) re-prices the remaining work against the
    degraded fabric; without it raw bytes stand in.  Per-destination
    segment order is preserved, so segment indices — and therefore tags
    — still match the receives posted up front: a re-plan reorders
    hops, it never re-sends or re-sizes them.  The one owner of the
    cycle order: :func:`balanced_schedule` is this over a fresh row.
    """
    queues: Dict[int, deque] = {}
    remaining: Dict[int, int] = {}
    for dst, t, seg in pending:
        queues.setdefault(dst, deque()).append((t, seg))
        remaining[dst] = remaining.get(dst, 0) + seg
    weigh = price if price is not None else float
    order: deque = deque()
    while queues:
        cycle = sorted(
            queues,
            key=lambda dst: (-weigh(remaining[dst]), (dst - rank) % n),
        )
        for dst in cycle:
            q = queues[dst]
            t, seg = q.popleft()
            order.append((dst, t, seg))
            remaining[dst] -= seg
            if not q:
                del queues[dst]
                del remaining[dst]
    return order


def _replan(
    comm: "Communicator",
    matrix: Sequence[Sequence[int]],
    tag: int,
    plan: Mapping[int, List[int]],
    window: int = REPLAN_WINDOW,
) -> Iterator:
    """Balanced all-to-all with mid-collective re-planning.

    Sends ride the same segmentation and initial
    :func:`balanced_schedule` order as ``rails``, but are paced in
    windows of ``window`` instead of posted all at once.  After each
    window drains, the checkpoint look reads the fault signals — engine
    retries, degraded sends, fault-injector firings.  Any movement while
    hops remain pending triggers a re-plan: the remaining schedule is
    re-cut largest-remaining-first (:func:`_replan_order`, re-priced by
    the selector's per-hop cost), the invariant monitor audits byte
    conservation across the cut, and the ``collective.replans`` metric
    counts it.  Completed hops are never re-sent —
    tags bind each segment to the receive posted for it up front, so
    exactly-once holds through any number of re-plans.
    """
    n = comm.size
    r = comm.rank
    name = comm.peer_name
    handles = _rails_receives(comm, [row[r] for row in matrix], tag, plan)
    pending = _balanced_order(r, matrix[r], plan)
    planned = sum(seg for _, _, seg in pending)
    accounted = 0
    cluster = comm.world.cluster
    sim = comm.session.sim
    engine = comm.session.engine
    injector = getattr(cluster, "fault_injector", None)
    hooks = cluster.hooks
    price = comm._hop_predict()

    def signals() -> Tuple[int, int, int]:
        return (
            engine.retries_issued,
            engine.messages_degraded,
            injector.faults_fired if injector is not None else 0,
        )

    baseline = signals()
    replans = 0
    while pending:
        batch = [
            pending.popleft()
            for _ in range(min(max(1, window), len(pending)))
        ]
        msgs = [
            comm.session.isend(name(dst), seg, tag=tag + t)
            for dst, t, seg in batch
        ]
        for msg in msgs:
            yield from comm.session.wait(msg)
        # A degraded send still consumed its planned hop: the engine
        # exhausted the retry budget and the bytes are accounted to the
        # schedule either way (the receive side parks, by design).
        accounted += sum(seg for _, _, seg in batch)
        current = signals()
        if pending and current != baseline:
            baseline = current
            replans += 1
            left = sum(seg for _, _, seg in pending)
            if hooks.on_replan:
                hooks.on_replan(
                    r, tag, planned, accounted, left, sim.now,
                    comm.session.node, replans, len(pending),
                )
            pending = _replan_order(pending, r, n, price)
    if hooks.on_collective_complete:
        hooks.on_collective_complete(r, tag, planned, accounted, sim.now)
    for handle in handles:
        yield from comm.session.wait(handle)


def uniform_matrix(n: int, nbytes: int) -> List[List[int]]:
    """The regular all-to-all as a traffic matrix (zero diagonal)."""
    return [
        [0 if i == j else nbytes for j in range(n)] for i in range(n)
    ]


def moe_matrix(
    n: int,
    base: int,
    hot_ranks: int = 2,
    skew: int = 8,
    hot: Optional[Sequence[int]] = None,
) -> List[List[int]]:
    """An MoE-shaped skewed traffic matrix: every source sends ``base``
    bytes to everyone, but ``hot_ranks`` destinations (the popular
    experts) receive ``skew``× that — the imbalance RailS spreads across
    rails.

    ``hot`` picks the hot destinations explicitly; by default they are
    spread evenly across the rank space — popular experts land on
    arbitrary ranks in practice, not conveniently at the front of every
    source's naive destination order.
    """
    if n < 2:
        raise ConfigurationError(f"matrix needs >= 2 ranks, got {n}")
    if hot is None:
        if not 1 <= hot_ranks < n:
            raise ConfigurationError(
                f"hot_ranks {hot_ranks} must be in 1..{n - 1}"
            )
        stride = n // hot_ranks
        hot = [i * stride + stride // 2 for i in range(hot_ranks)]
    hot_set = set(int(h) for h in hot)
    bad = [h for h in hot_set if not 0 <= h < n]
    if bad:
        raise ConfigurationError(f"hot rank(s) {sorted(bad)} outside 0..{n - 1}")
    return [
        [
            0 if i == j else (base * skew if j in hot_set else base)
            for j in range(n)
        ]
        for i in range(n)
    ]


# --------------------------------------------------------------------- #
# the algorithm table
# --------------------------------------------------------------------- #


def _one(ranks: int) -> int:
    return 1


def _rounds(ranks: int) -> int:
    return max(1, math.ceil(math.log2(ranks)))


def _count(ranks: int, segments: Sequence[int]) -> int:
    return len(segments)


def _whole(comm: "Communicator", nbytes: int, root: int) -> List[int]:
    # The naive tree hop carries the whole message; pipeline_segments
    # would return [] for 0 bytes and send nothing.
    return [nbytes]


def _pipelined(comm: "Communicator", nbytes: int, root: int) -> List[int]:
    return pipeline_segments(nbytes, comm.world.rail_estimators())


def _uniform_plan(comm: "Communicator", nbytes: int) -> Dict[int, List[int]]:
    return _rails_plan([[nbytes]], comm.world.rail_estimators())


def _matrix_plan(
    comm: "Communicator", sizes: Sequence[Sequence[int]]
) -> Dict[int, List[int]]:
    return _rails_plan(sizes, comm.world.rail_estimators())


def _alltoall_rails(
    comm: "Communicator", nbytes: int, tag: int, plan: Mapping[int, List[int]]
) -> Iterator:
    # This rank's row and column of uniform_matrix(n, nbytes), which are
    # the same list: O(n) per rank and call, where the matrix is O(n^2).
    r = comm.rank
    flows = [0 if j == r else nbytes for j in range(comm.size)]
    return _rails_flows(comm, flows, flows, tag, plan)


class Algorithm(NamedTuple):
    """One entry of :data:`ALGORITHMS`.

    ``schedule(comm, *args, tag[, plan])`` is the per-rank generator;
    ``args`` are the collective's parsed arguments — ``(nbytes, root)``
    when it has a root, ``(nbytes,)`` or alltoallv's ``(sizes,)``
    otherwise, none for the barrier.  ``span(ranks[, plan])`` is the
    number of consecutive tags the schedule uses.  ``plan(comm, *args)``,
    when set, segments the payload once per call and hands the result
    to both.
    """

    schedule: Callable[..., Iterator]
    span: Callable[..., int]
    plan: Optional[Callable[..., object]] = None


#: (collective, algorithm) -> schedule: the one place an algorithm is
#: registered ("Adding an algorithm" in docs/collectives.md).  ``naive``
#: comes first and is the default.
ALGORITHMS: Dict[str, Dict[str, Algorithm]] = {
    "bcast": {
        "naive": Algorithm(bcast_binomial, _count, _whole),
        "binomial": Algorithm(bcast_binomial, _count, _pipelined),
        "ring": Algorithm(bcast_ring, _count, _pipelined),
        "doubling": Algorithm(bcast_doubling, lambda n: 2 + _rounds(n)),
    },
    "gather": {
        "naive": Algorithm(gather_linear, _one),
        "binomial": Algorithm(gather_binomial, _one),
        "ring": Algorithm(gather_ring, _one),
    },
    "allgather": {
        "naive": Algorithm(allgather_bruck, _rounds),
        "ring": Algorithm(allgather_ring, lambda n: n - 1),
        "doubling": Algorithm(allgather_doubling, _rounds),
    },
    "reduce": {
        "naive": Algorithm(reduce_binomial, _count, _whole),
        "binomial": Algorithm(reduce_binomial, _count, _pipelined),
        "ring": Algorithm(reduce_ring, lambda n: n),
    },
    "alltoall": {
        "naive": Algorithm(alltoall_naive, _one),
        "ring": Algorithm(alltoall_ring, lambda n: n),
        "doubling": Algorithm(alltoall_doubling, _rounds),
        "rails": Algorithm(_alltoall_rails, _rails_span, _uniform_plan),
    },
    "alltoallv": {
        "naive": Algorithm(alltoallv_naive, _one),
        "rails": Algorithm(_rails, _rails_span, _matrix_plan),
        "replan": Algorithm(_replan, _rails_span, _matrix_plan),
    },
    # One fixed schedule each: no choice, so no override and no "auto".
    "barrier": {"dissemination": Algorithm(barrier_dissemination, _rounds)},
    "scatter": {"linear": Algorithm(scatter_linear, _one)},
}

#: algorithm names accepted per collective ("auto" = cost-model choice)
VALID_ALGORITHMS: Dict[str, Tuple[str, ...]] = {
    collective: (*algorithms, "auto")
    for collective, algorithms in ALGORITHMS.items()
    if len(algorithms) > 1
}
