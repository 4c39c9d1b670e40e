"""The four end-to-end workloads: seeded inputs and one episode each.

An *episode* builds a fresh cluster from the cached sampled profiles,
runs its inputs to drain and reads the results.  Inputs are drawn from
``random.Random(f"{workload}:{seed}:{i}")`` before any episode runs, so
the simulator only ever sees the generated inputs.  Each workload keeps
its inputs varied but stratified (size classes cycle by episode index),
so a run's aggregate statistics move little from seed to seed while
every seed still yields different traffic.

Only public entry points are driven: ``build_paper_cluster``,
``ClusterBuilder``, ``Session.isend/irecv/wait``, ``MpiWorld.create``,
``Communicator.alltoall/alltoallv``, the cluster's obs read-outs and
``AlgorithmSelector.calibrate``.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.api.cluster import ClusterBuilder
from repro.api.collectives import moe_matrix
from repro.api.mpi import MpiWorld
from repro.bench.runners import build_paper_cluster
from repro.core.packets import MessageStatus
from repro.core.strategies import (
    HeteroSplitStrategy,
    IsoSplitStrategy,
    SingleRailStrategy,
)
from repro.hardware.topology import Fabric
from repro.obs import measured_hop_table
from repro.util.units import KiB, MiB, bytes_per_us_to_mbps

RAILS = ("myri10g", "quadrics")


@dataclass
class Episode:
    """What one episode did, in simulated terms only."""

    attempted: int
    failed: int
    #: simulated latency samples (µs) of the ops that succeeded
    latencies: List[float]
    #: application payload moved (bytes)
    payload_bytes: int
    #: simulated makespan (µs)
    makespan_us: float
    #: exact simulated outputs, hashed into the run's ``sim_digest``
    digest_rows: List[Any] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    #: measured episodes per 10 s of ``--seconds`` (fitted on the
    #: reference host, see README.md)
    episodes_per_10s: int
    inputs: Callable[[random.Random, int], Dict[str, Any]]
    run: Callable[..., Episode]
    #: the cluster an episode builds (timed by the set-up probe)
    build: Callable[[Dict[str, Any], Any], Any]
    #: inputs of the untimed warm-up episode (default: ``inputs``)
    warmup_inputs: Optional[Callable[[random.Random], Dict[str, Any]]] = None
    #: re-run episode 0 at the end and require identical outputs
    rerun_check: bool = True


@contextmanager
def captured_clusters() -> Iterator[List[Any]]:
    """Collect every cluster ``ClusterBuilder.build`` returns meanwhile."""
    built: List[Any] = []
    original = ClusterBuilder.build

    def build(builder):
        cluster = original(builder)
        built.append(cluster)
        return cluster

    ClusterBuilder.build = build
    try:
        yield built
    finally:
        ClusterBuilder.build = original


def _log_uniform(rng: random.Random, lo: float, hi: float) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _jitter(rng: random.Random, base: int, spread: float) -> int:
    """``base`` scaled by 2**U(-spread, 0), 64-byte aligned.

    Only downwards: segment counts and ``auto`` choices step at powers of
    two, so a size straddling its class's power of two would make a
    run's aggregates jump with the seed."""
    return max(64, int(base * 2.0 ** rng.uniform(-spread, 0.0)) // 64 * 64)


# ---------------------------------------------------------------------- #
# point to point
# ---------------------------------------------------------------------- #


def _p2p_outcome(cluster, sent, recvs, attempted: int) -> Episode:
    """Score the sends: complete, byte-exact, and matched by a receive."""
    matched = {id(h.matched) for h in recvs if h.matched is not None}
    latencies: List[float] = []
    rows: List[Any] = []
    for msg in sent:
        rows.append((msg.size, msg.t_post, msg.t_complete, tuple(msg.chunk_sizes)))
        if (
            msg.status is MessageStatus.COMPLETE
            and msg.bytes_received == msg.size
            and id(msg) in matched
        ):
            latencies.append(msg.latency)
    rows.append(cluster.sim.now)
    return Episode(
        attempted=attempted,
        failed=attempted - len(latencies),
        latencies=latencies,
        payload_bytes=sum(m.size for m in sent),
        makespan_us=cluster.sim.now,
        digest_rows=rows,
    )


#: closed-loop client count of p2p_rdv_split (one send outstanding each)
RDV_CLIENTS = 4


#: messages per p2p_rdv_split episode, and the bands of equal log width
#: they are spread over evenly
RDV_MESSAGES = 32
RDV_BANDS = 8


def _rdv_inputs(rng: random.Random, i: int) -> Dict[str, Any]:
    # Log-uniform 64 KiB-8 MiB, stratified: every band gets the same
    # number of messages, in random order, so a run's mix of sizes does
    # not hang on the seed.
    lo, hi = math.log(64 * KiB), math.log(8 * MiB)
    width = (hi - lo) / RDV_BANDS
    sizes = [
        int(math.exp(lo + width * (j % RDV_BANDS + rng.random())))
        for j in range(RDV_MESSAGES)
    ]
    rng.shuffle(sizes)
    return {"sizes": sizes}


def _rdv_build(inputs, profiles):
    return build_paper_cluster("hetero_split", profiles=profiles)


def _rdv_run(inputs, profiles, until: Optional[float] = None) -> Episode:
    cluster = _rdv_build(inputs, profiles)
    sender, receiver = cluster.sessions("node0", "node1")
    sizes = inputs["sizes"]
    sent, recvs = [], []

    def client(c: int):
        for i in range(c, len(sizes), RDV_CLIENTS):
            recvs.append(receiver.irecv(source="node0", tag=i))
            msg = sender.isend("node1", sizes[i], tag=i)
            sent.append(msg)
            yield from sender.wait(msg)

    for c in range(RDV_CLIENTS):
        cluster.sim.spawn(client(c), name=f"client{c}")
    cluster.run(until=until)
    return _p2p_outcome(cluster, sent, recvs, len(sizes))


def _storm_inputs(rng: random.Random, i: int) -> Dict[str, Any]:
    t = 0.0
    sends = []
    for _ in range(40):
        t += rng.expovariate(1.0 / 40.0)
        for _ in range(rng.randint(1, 16)):
            sends.append((t, _log_uniform(rng, 8, 16 * KiB)))
    return {"sends": sends}


def _storm_build(inputs, profiles):
    return build_paper_cluster("adaptive", profiles=profiles)


def _storm_run(inputs, profiles, until: Optional[float] = None) -> Episode:
    cluster = _storm_build(inputs, profiles)
    sender, receiver = cluster.sessions("node0", "node1")
    sends = inputs["sends"]
    sent = []
    recvs = [receiver.irecv(source="node0") for _ in sends]

    def post(size: int) -> None:
        sent.append(sender.isend("node1", size))

    # Open loop: each burst is due at its simulated instant whatever the
    # engine's backlog, so a message's latency counts from when it was due.
    for t, size in sends:
        cluster.sim.schedule_at(t, post, size)
    cluster.run(until=until)
    return _p2p_outcome(cluster, sent, recvs, len(sends))


# ---------------------------------------------------------------------- #
# collectives
# ---------------------------------------------------------------------- #


def _flat_world(ranks: int, profiles) -> MpiWorld:
    return MpiWorld.create(fabric=Fabric.flat(ranks, rails=RAILS), profiles=profiles)


def _collective_outcome(
    world: MpiWorld, calls: int, times: List[List[float]], payload: int
) -> Episode:
    """One op per world-wide call: it fails when a rank never returned
    from it, or when any message of the episode is incomplete, degraded
    or short of bytes."""
    cluster = world.cluster
    msgs = [m for e in cluster.engines.values() for m in e.sent_log]
    healthy = all(
        m.status is MessageStatus.COMPLETE and m.bytes_received == m.size
        for m in msgs
    )
    failed = 0
    latencies: List[float] = []
    for call in range(calls):
        done = [t[call] for t in times if len(t) > call]
        if healthy and len(done) == world.size:
            latencies.extend(done)
        else:
            failed += 1
    rows: List[Any] = [tuple(t) for t in times]
    rows.append((len(msgs), cluster.sim.now))
    return Episode(
        attempted=calls,
        failed=failed,
        latencies=latencies,
        payload_bytes=payload,
        makespan_us=cluster.sim.now,
        digest_rows=rows,
    )


def _timed_program(times: List[List[float]], call: Callable, calls: int):
    """Per-rank program: ``calls`` back-to-back collectives, each rank's
    simulated time inside each call appended to ``times[rank]``."""

    def program(comm):
        sim = comm.session.sim
        for _ in range(calls):
            t0 = sim.now
            yield from call(comm)
            times[comm.rank].append(sim.now - t0)

    return program


ALLTOALL_CALLS = 2
#: per-episode size jitter (log2 units, see _jitter): enough that every
#: seed moves every simulated number, small enough that no size crosses
#: an ``auto`` decision threshold
SIZE_JITTER = 0.1
#: one episode has nothing to average its jitter over, so less of it
FLAT128_JITTER = 0.02


def _flat128_inputs(rng: random.Random, i: int) -> Dict[str, Any]:
    return {"ranks": 128, "size": _jitter(rng, 16 * KiB, FLAT128_JITTER)}


def _flat128_warmup(rng: random.Random) -> Dict[str, Any]:
    # A full 128-rank episode would double the run; a 16-rank world at
    # the same size reaches the same code paths and caches.
    return {"ranks": 16, "size": _jitter(rng, 16 * KiB, FLAT128_JITTER)}


def _alltoall_build(inputs, profiles):
    return _flat_world(inputs["ranks"], profiles)


def _alltoall_run(inputs, profiles, until: Optional[float] = None) -> Episode:
    n, size = inputs["ranks"], inputs["size"]
    world = _alltoall_build(inputs, profiles)
    times: List[List[float]] = [[] for _ in range(n)]
    world.spawn_all(
        _timed_program(
            times, lambda comm: comm.alltoall(size, algorithm="auto"), ALLTOALL_CALLS
        )
    )
    world.run(until=until)
    return _collective_outcome(
        world, ALLTOALL_CALLS, times, ALLTOALL_CALLS * n * (n - 1) * size
    )


MOE_RANKS = 8
#: base sizes of moe_fat_tree_obs, cycled by episode; 16 KiB twice so
#: the median sample falls inside a class instead of on a class boundary
MOE_BASES = (16 * KiB, 16 * KiB, 64 * KiB)
#: hot-destination skews; with MOE_BASES, every (base, skew) pair comes
#: once per 15 episodes, so the tail does not hang on how often a seed
#: drew the heaviest pairs
MOE_SKEWS = (4, 5, 6, 7, 8)


def _moe_inputs(rng: random.Random, i: int) -> Dict[str, Any]:
    hot = sorted(rng.sample(range(MOE_RANKS), 2))
    base = _jitter(rng, MOE_BASES[i % len(MOE_BASES)], SIZE_JITTER)
    skew = MOE_SKEWS[i // len(MOE_BASES) % len(MOE_SKEWS)]
    return {"matrix": moe_matrix(MOE_RANKS, base, hot=hot, skew=skew)}


def _moe_build(inputs, profiles):
    return MpiWorld.create(
        fabric=Fabric.fat_tree(MOE_RANKS, rails=RAILS),
        profiles=profiles,
        observability=True,
    )


def _moe_run(inputs, profiles, until: Optional[float] = None) -> Episode:
    matrix = inputs["matrix"]
    world = _moe_build(inputs, profiles)
    times: List[List[float]] = [[] for _ in range(MOE_RANKS)]
    world.spawn_all(
        _timed_program(
            times, lambda comm: comm.alltoallv(matrix, algorithm="auto"), 1
        )
    )
    world.run(until=until)
    episode = _collective_outcome(world, 1, times, sum(map(sum, matrix)))
    # The `cli obs report` read-out: what an obs user pays for after a run.
    cluster = world.cluster
    snapshot = cluster.metrics_snapshot()
    coll = cluster.obs.collectives.snapshot()
    trace = cluster.chrome_trace()
    hop_scale = world.selector().calibrate(measured_hop_table(coll["hops"]))
    episode.digest_rows.append(
        (
            len(snapshot["counters"]),
            len(coll["critical_path"]),
            len(trace["traceEvents"]),
            hop_scale,
        )
    )
    return episode


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("p2p_rdv_split", 600, _rdv_inputs, _rdv_run, _rdv_build),
        Workload("p2p_eager_storm", 700, _storm_inputs, _storm_run, _storm_build),
        Workload(
            "alltoall_flat128", 1, _flat128_inputs, _alltoall_run, _alltoall_build,
            warmup_inputs=_flat128_warmup, rerun_check=False,
        ),
        Workload("moe_fat_tree_obs", 190, _moe_inputs, _moe_run, _moe_build),
    )
}


# ---------------------------------------------------------------------- #
# the Fig. 8 oracle
# ---------------------------------------------------------------------- #

#: the paper's 8 MiB plateaus (MB/s), Fig. 8
PAPER_PLATEAUS = {
    "myri10g": 1170.0,
    "quadrics": 837.0,
    "iso": 1670.0,
    "hetero": 1987.0,
}
#: Fig. 8 forces every strategy's rendezvous threshold to 32 KiB
_FIG8_THRESHOLD = 32 * KiB


def paper_err_pct(profiles) -> float:
    """Largest relative error (%) of the four simulated 8 MiB plateaus
    against the paper's Fig. 8 values."""
    strategies = {
        "myri10g": SingleRailStrategy(rail="myri10g", rdv_threshold=_FIG8_THRESHOLD),
        "quadrics": SingleRailStrategy(rail="quadrics", rdv_threshold=_FIG8_THRESHOLD),
        "iso": IsoSplitStrategy(rdv_threshold=_FIG8_THRESHOLD),
        "hetero": HeteroSplitStrategy(rdv_threshold=_FIG8_THRESHOLD),
    }
    worst = 0.0
    for name, strategy in strategies.items():
        cluster = build_paper_cluster(strategy, profiles=profiles)
        sender, receiver = cluster.sessions("node0", "node1")
        receiver.irecv(source="node0")
        msg = sender.isend("node1", 8 * MiB)
        cluster.run()
        if msg.latency is None:
            raise RuntimeError(f"Fig. 8 oracle: the {name} 8 MiB send never completed")
        mbps = bytes_per_us_to_mbps(msg.size / msg.latency)
        worst = max(worst, abs(mbps - PAPER_PLATEAUS[name]) / PAPER_PLATEAUS[name])
    return 100.0 * worst
