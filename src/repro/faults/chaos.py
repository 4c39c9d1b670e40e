"""Chaos-soak harness: seeded randomized fault scenarios, soaked and shrunk.

Where :class:`~repro.faults.schedule.FaultSchedule` is hand-written, a
:class:`ChaosSchedule` is *generated*: a seed deterministically expands
into a composition of fault **episodes** — flapping rails, correlated
dual-rail outages, mid-rendezvous kills, degrade storms, loss bursts and
node-level crash/restart (a fault class above the per-NIC faults of
``docs/faults.md``: every rail out of one node dies and recovers
together).  The same seed always yields the same episodes, the same
:class:`FaultSchedule`, the same workload, and — because the whole stack
is a deterministic discrete-event simulation — the same run, byte for
byte.  ``ChaosSchedule(seed).to_json()`` round-trips losslessly, so a
failing scenario travels as a small JSON blob.

:func:`run_scenario` executes one seeded scenario on the paper testbed
with the :class:`~repro.core.invariants.InvariantMonitor` armed and a
seeded message workload racing the faults; :func:`soak` sweeps many
seeds and reports outcomes plus scenarios/sec; :func:`shrink` reduces a
failing seed's schedule to a minimal set of episodes that still
reproduces the violation (greedy ddmin over episodes).

Fabric chaos: a schedule built with a ``fabric`` spec additionally
draws :data:`FABRIC_EPISODE_KINDS` — spine outage storms, switch-port
flapping, pod partitions (``docs/fabric-faults.md``) — and
``run_scenario(shape="fat_tree", ranks=8)`` runs it on a switched
fat-tree cluster with a re-planning alltoallv as the workload.

See ``docs/chaos.md`` for the workflow.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.invariants import InvariantViolation
from repro.faults.schedule import FaultSchedule
from repro.util.errors import ConfigurationError
from repro.util.parallel import parallel_map

#: episode kinds a chaos seed may draw (generation order = this order)
EPISODE_KINDS = (
    "flap",
    "dual_outage",
    "mid_rdv_kill",
    "degrade_storm",
    "loss_burst",
    "node_crash",
)

#: the pool with silent degradation added.  Kept SEPARATE from
#: EPISODE_KINDS: extending that tuple would re-map every existing
#: seed's ``rng.choice`` draws and silently change all pinned scenarios.
SILENT_EPISODE_KINDS = EPISODE_KINDS + ("silent_degrade",)

#: fabric-level episode kinds, only drawn when a schedule is built with
#: a ``fabric`` spec ({"switches": [...], "spines": int}).  Appended to
#: the pool rather than merged into EPISODE_KINDS for the same pinned-
#: seed reason as SILENT_EPISODE_KINDS.
FABRIC_EPISODE_KINDS = ("spine_outage", "link_flap", "pod_partition")

#: fabric scenario shapes run_scenario understands
CHAOS_SHAPES = ("paper", "flat", "fat_tree")

#: fat-tree geometry for fabric chaos scenarios (8 ranks = 2 pods)
FABRIC_POD_SIZE = 4
FABRIC_SPINES = 2

#: default simulated horizon faults are generated within (µs)
DEFAULT_HORIZON = 4000.0

#: default number of fault episodes per scenario
DEFAULT_INTENSITY = 3

#: watchdog configuration for chaos runs — aggressive enough that every
#: scenario terminates (completes or degrades) well within a drain
CHAOS_TIMEOUT = "200us"
CHAOS_MAX_RETRIES = 8

#: workload message-size palette: eager-range and rendezvous-range mixes
_WORKLOAD_SIZES = (
    1024,
    4 * 1024,
    16 * 1024,
    64 * 1024,
    256 * 1024,
    1024 * 1024,
)


def _round(value: float) -> float:
    """Clamp generated times to 0.1 µs so schedules read cleanly.

    Floats round-trip exactly through JSON either way; this only keeps
    the episode parameters human-scannable in violation reports.
    """
    return round(value, 1)


class ChaosSchedule:
    """A seed, deterministically expanded into fault episodes.

    Construction draws every parameter from ``random.Random(
    f"chaos:{seed}")`` — no global randomness, no wall clock — so the same
    ``(seed, nics, nodes, horizon, intensity)`` always yields the same
    episodes.  ``episodes`` is plain JSON-able data; :meth:`schedule`
    expands it (in order) into a :class:`FaultSchedule`.

    Shrinking (:func:`shrink`) works on the episode list: any subset of
    episodes is itself a valid ChaosSchedule via :meth:`from_json`.
    """

    def __init__(
        self,
        seed: int,
        nics: Sequence[str] = ("myri10g0", "quadrics1"),
        nodes: Sequence[str] = ("node0", "node1"),
        horizon: float = DEFAULT_HORIZON,
        intensity: int = DEFAULT_INTENSITY,
        episodes: Optional[List[Dict[str, Any]]] = None,
        silent: bool = False,
        fabric: Optional[Dict[str, Any]] = None,
    ) -> None:
        if horizon <= 0:
            raise ConfigurationError(f"chaos horizon must be positive: {horizon}")
        if intensity < 1:
            raise ConfigurationError(f"chaos intensity must be >= 1: {intensity}")
        if not nics or not nodes:
            raise ConfigurationError("chaos needs at least one NIC and one node")
        self.seed = int(seed)
        self.nics = tuple(nics)
        self.nodes = tuple(nodes)
        self.horizon = float(horizon)
        self.intensity = int(intensity)
        #: opt-in: draw from the pool that includes silent_degrade
        #: episodes (unannounced bandwidth drops, calibration PR)
        self.silent = bool(silent)
        #: opt-in fabric targets ({"switches": [...], "spines": int});
        #: set => the pool gains FABRIC_EPISODE_KINDS
        if fabric is not None:
            switches = fabric.get("switches")
            if not switches:
                raise ConfigurationError(
                    "chaos fabric spec needs at least one switch name"
                )
            self.fabric: Optional[Dict[str, Any]] = {
                "switches": [str(s) for s in switches],
                "spines": int(fabric.get("spines", 0)),
            }
        else:
            self.fabric = None
        self.episodes: List[Dict[str, Any]] = (
            list(episodes) if episodes is not None else self._generate()
        )

    def __repr__(self) -> str:
        kinds = [e["kind"] for e in self.episodes]
        return f"<ChaosSchedule seed={self.seed} episodes={kinds}>"

    def __len__(self) -> int:
        return len(self.episodes)

    # ------------------------------------------------------------------ #
    # generation
    # ------------------------------------------------------------------ #

    def _generate(self) -> List[Dict[str, Any]]:
        rng = random.Random(f"chaos:{self.seed}")
        count = self.intensity + rng.randrange(self.intensity + 1)
        pool = SILENT_EPISODE_KINDS if self.silent else EPISODE_KINDS
        if self.fabric is not None:
            extra = (
                FABRIC_EPISODE_KINDS
                if self.fabric["spines"] > 0
                else tuple(
                    k for k in FABRIC_EPISODE_KINDS if k != "spine_outage"
                )
            )
            pool = pool + extra
        episodes: List[Dict[str, Any]] = []
        for _ in range(count):
            kind = rng.choice(pool)
            episodes.append(self._draw(kind, rng))
        return episodes

    def _draw(self, kind: str, rng: random.Random) -> Dict[str, Any]:
        h = self.horizon
        start = _round(rng.uniform(0.0, 0.7 * h))
        if kind == "flap":
            return {
                "kind": kind,
                "nic": rng.choice(self.nics),
                "start": start,
                "period": _round(rng.uniform(0.05 * h, 0.2 * h)),
                "duty": round(rng.uniform(0.2, 0.7), 2),
                "cycles": rng.randrange(2, 6),
            }
        if kind == "dual_outage":
            # Correlated failure: every rail down in the same instant.
            return {
                "kind": kind,
                "start": start,
                "duration": _round(rng.uniform(0.05 * h, 0.25 * h)),
            }
        if kind == "mid_rdv_kill":
            # A short, sharp kill timed into the window where rendezvous
            # handshakes and data phases of the workload are in flight.
            return {
                "kind": kind,
                "nic": rng.choice(self.nics),
                "start": _round(rng.uniform(0.05 * h, 0.5 * h)),
                "duration": _round(rng.uniform(0.01 * h, 0.08 * h)),
            }
        if kind == "degrade_storm":
            return {
                "kind": kind,
                "nic": rng.choice(self.nics),
                "start": start,
                "bursts": rng.randrange(2, 5),
                "period": _round(rng.uniform(0.05 * h, 0.15 * h)),
                "bw_factor": round(rng.uniform(0.2, 0.8), 2),
                "extra_latency": _round(rng.uniform(0.0, 5.0)),
            }
        if kind == "loss_burst":
            return {
                "kind": kind,
                "nic": rng.choice(self.nics),
                "start": start,
                "duration": _round(rng.uniform(0.1 * h, 0.4 * h)),
                "probability": round(rng.uniform(0.1, 0.9), 2),
                "control": rng.random() < 0.4,  # stall handshakes instead
            }
        if kind == "node_crash":
            return {
                "kind": kind,
                "node": rng.choice(self.nodes),
                "start": start,
                "duration": _round(rng.uniform(0.05 * h, 0.3 * h)),
            }
        if kind == "silent_degrade":
            # Unannounced bandwidth drop: no fault event reaches the
            # planner — only the calibration drift loop can notice.
            return {
                "kind": kind,
                "nic": rng.choice(self.nics),
                "start": start,
                "bw_factor": round(rng.uniform(0.3, 0.7), 2),
                "duration": _round(rng.uniform(0.2 * h, 0.5 * h)),
            }
        # Fabric kinds carry their targets inline so any episode subset
        # (shrinking) round-trips through from_json self-contained.
        if kind == "spine_outage":
            # Storm: successive spines of one switch go down in turn.
            fabric = self.fabric or {}
            spines = max(1, int(fabric.get("spines", 1)))
            return {
                "kind": kind,
                "switch": rng.choice(list(fabric["switches"])),
                "spines": spines,
                "first": rng.randrange(spines),
                "outages": rng.randrange(1, 4),
                "start": start,
                "duration": _round(rng.uniform(0.05 * h, 0.25 * h)),
            }
        if kind == "link_flap":
            return {
                "kind": kind,
                "switch": rng.choice(list((self.fabric or {})["switches"])),
                "node": rng.choice(self.nodes),
                "start": start,
                "period": _round(rng.uniform(0.05 * h, 0.2 * h)),
                "duty": round(rng.uniform(0.2, 0.7), 2),
                "cycles": rng.randrange(2, 6),
            }
        if kind == "pod_partition":
            # A contiguous slice of edge ports dies (and recovers)
            # together — one pod cut off from the rest of the fabric.
            width = max(1, len(self.nodes) // 4)
            first = rng.randrange(len(self.nodes))
            nodes = [
                self.nodes[(first + i) % len(self.nodes)]
                for i in range(width)
            ]
            return {
                "kind": kind,
                "switch": rng.choice(list((self.fabric or {})["switches"])),
                "nodes": nodes,
                "start": start,
                "duration": _round(rng.uniform(0.05 * h, 0.2 * h)),
            }
        raise ConfigurationError(f"unknown chaos episode kind {kind!r}")

    # ------------------------------------------------------------------ #
    # expansion
    # ------------------------------------------------------------------ #

    def schedule(self) -> FaultSchedule:
        """Expand the episodes, in order, into a :class:`FaultSchedule`."""
        sched = FaultSchedule(seed=self.seed)
        for i, ep in enumerate(self.episodes):
            kind = ep["kind"]
            if kind == "flap":
                sched.flapping(
                    ep["nic"],
                    period=ep["period"],
                    duty=ep["duty"],
                    start=ep["start"],
                    cycles=ep["cycles"],
                )
            elif kind == "dual_outage":
                for nic in self.nics:
                    sched.nic_down(nic, at=ep["start"], duration=ep["duration"])
            elif kind == "mid_rdv_kill":
                sched.nic_down(ep["nic"], at=ep["start"], duration=ep["duration"])
            elif kind == "degrade_storm":
                t = ep["start"]
                for _ in range(ep["bursts"]):
                    sched.degrade(
                        ep["nic"],
                        at=t,
                        bw_factor=ep["bw_factor"],
                        extra_latency=ep["extra_latency"],
                        duration=ep["period"] / 2.0,
                    )
                    t = _round(t + ep["period"])
            elif kind == "loss_burst":
                loss = sched.rdv_stall if ep["control"] else sched.eager_loss
                loss(
                    ep["nic"],
                    probability=ep["probability"],
                    start=ep["start"],
                    stop=ep["start"] + ep["duration"],
                    label=f"chaos-{i}",
                )
            elif kind == "node_crash":
                sched.node_crash(ep["node"], at=ep["start"], duration=ep["duration"])
            elif kind == "silent_degrade":
                sched.silent_degrade(
                    ep["nic"],
                    at=ep["start"],
                    bw_factor=ep["bw_factor"],
                    duration=ep["duration"],
                )
            elif kind == "spine_outage":
                t = ep["start"]
                spines = max(1, int(ep["spines"]))
                spine = int(ep.get("first", 0)) % spines
                for _ in range(ep["outages"]):
                    sched.spine_down(
                        f"{ep['switch']}.spine{spine}",
                        at=t,
                        duration=ep["duration"],
                    )
                    spine = (spine + 1) % spines
                    t = _round(t + 1.5 * ep["duration"])
            elif kind == "link_flap":
                sched.port_flapping(
                    f"{ep['switch']}.{ep['node']}",
                    period=ep["period"],
                    duty=ep["duty"],
                    start=ep["start"],
                    cycles=ep["cycles"],
                )
            elif kind == "pod_partition":
                for node in ep["nodes"]:
                    sched.link_down(
                        f"{ep['switch']}.{node}",
                        at=ep["start"],
                        duration=ep["duration"],
                    )
            else:
                raise ConfigurationError(f"unknown chaos episode kind {kind!r}")
        return sched

    # ------------------------------------------------------------------ #
    # (de)serialization — lossless round trip
    # ------------------------------------------------------------------ #

    def to_json(self) -> Dict[str, Any]:
        out = {
            "seed": self.seed,
            "nics": list(self.nics),
            "nodes": list(self.nodes),
            "horizon": self.horizon,
            "intensity": self.intensity,
            "silent": self.silent,
            "episodes": [dict(e) for e in self.episodes],
        }
        if self.fabric is not None:
            out["fabric"] = dict(self.fabric)
        return out

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ChaosSchedule":
        if not isinstance(data, dict):
            raise ConfigurationError(f"chaos schedule must be a mapping: {data!r}")
        unknown = set(data) - {
            "seed", "nics", "nodes", "horizon", "intensity", "silent",
            "episodes", "fabric",
        }
        if unknown:
            raise ConfigurationError(f"unknown chaos keys: {sorted(unknown)}")
        return cls(
            seed=int(data["seed"]),
            nics=tuple(data.get("nics", ("myri10g0", "quadrics1"))),
            nodes=tuple(data.get("nodes", ("node0", "node1"))),
            horizon=float(data.get("horizon", DEFAULT_HORIZON)),
            intensity=int(data.get("intensity", DEFAULT_INTENSITY)),
            episodes=[dict(e) for e in data.get("episodes", [])],
            silent=bool(data.get("silent", False)),
            fabric=data.get("fabric"),
        )


# ---------------------------------------------------------------------- #
# scenario execution
# ---------------------------------------------------------------------- #


@dataclass
class ScenarioResult:
    """Outcome of one chaos scenario (one seed, one run)."""

    seed: int
    ok: bool
    violation: Optional[InvariantViolation]
    elapsed_us: float
    messages_sent: int
    messages_completed: int
    messages_degraded: int
    retries_issued: int
    duplicates_suppressed: int
    deliveries_cancelled: int
    faults_fired: int
    checks_performed: int
    #: flight-recorder post-mortem for the violation (None when ok or
    #: when the recorder was not armed) — see repro.obs.flight
    flight_dump: Optional[Dict[str, Any]] = None
    #: metrics snapshot (only with ``run_scenario(obs_metrics=True)``);
    #: merged across shards by repro.bench.parallel.soak_obs_artifact
    metrics_snapshot: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "seed": self.seed,
            "ok": self.ok,
            "elapsed_us": self.elapsed_us,
            "messages_sent": self.messages_sent,
            "messages_completed": self.messages_completed,
            "messages_degraded": self.messages_degraded,
            "retries_issued": self.retries_issued,
            "duplicates_suppressed": self.duplicates_suppressed,
            "deliveries_cancelled": self.deliveries_cancelled,
            "faults_fired": self.faults_fired,
            "checks_performed": self.checks_performed,
        }
        if self.violation is not None:
            out["violation"] = self.violation.to_dict()
        if self.flight_dump is not None:
            out["flight_dump"] = self.flight_dump
        return out


def _reset_id_counters() -> None:
    """Restart the process-global message/transfer id counters.

    Ids only need to be unique within one simulator; restarting them per
    scenario makes every scenario self-contained — the same seed yields
    the same ids (and therefore byte-identical traces) no matter how
    many scenarios ran before it in this process.
    """
    import repro.core.packets as packets
    import repro.networks.transfer as transfer

    packets._msg_seq = itertools.count()
    transfer._transfer_ids = itertools.count()


def _seeded_workload(cluster, chaos: ChaosSchedule, seed: int) -> List[Any]:
    """Post a deterministic message mix racing the fault episodes.

    Every receive is posted up front (tag-matched), sends are staggered
    through the first 60% of the horizon so faults land before, between
    and inside transfers.  All draws come from ``random.Random(
    f"workload:{seed}")`` — independent of the chaos draws, so editing
    the episode generator never perturbs the workload and vice versa.
    """
    rng = random.Random(f"workload:{seed}")
    sender, receiver = cluster.sessions("node0", "node1")
    count = 6 + rng.randrange(7)
    messages: List[Any] = []
    send_engine = cluster.engine("node0")
    for tag in range(count):
        receiver.irecv(tag=tag)
    for tag in range(count):
        size = rng.choice(_WORKLOAD_SIZES)
        at = _round(rng.uniform(0.0, 0.6 * chaos.horizon))
        cluster.sim.schedule_at(
            at,
            lambda s=size, t=tag: messages.append(
                send_engine.isend("node1", s, tag=t)
            ),
        )
    return messages


def fabric_spec(shape: str, rails: int = 2) -> Dict[str, Any]:
    """The chaos ``fabric`` dict matching :func:`run_scenario`'s build.

    Switch names follow ``ClusterBuilder.build``'s naming: one
    ``fattree<i>`` / ``switch<i>`` per rail, in rail order.
    """
    if shape not in ("flat", "fat_tree"):
        raise ConfigurationError(
            f"fabric_spec wants 'flat' or 'fat_tree', got {shape!r}"
        )
    prefix = "fattree" if shape == "fat_tree" else "switch"
    return {
        "switches": [f"{prefix}{i}" for i in range(rails)],
        "spines": FABRIC_SPINES if shape == "fat_tree" else 0,
    }


def _default_chaos(
    seed: int,
    shape: str,
    ranks: int,
    horizon: float,
    intensity: int,
    silent: bool = False,
) -> ChaosSchedule:
    """The schedule :func:`run_scenario` generates when none is given."""
    if shape == "paper":
        return ChaosSchedule(
            seed, horizon=horizon, intensity=intensity, silent=silent
        )
    return ChaosSchedule(
        seed,
        nodes=tuple(f"rank{i}" for i in range(ranks)),
        horizon=horizon,
        intensity=intensity,
        silent=silent,
        fabric=fabric_spec(shape),
    )


def _fabric_workload(world, seed: int) -> List[List[int]]:
    """Spawn a seeded re-planning alltoallv racing the fabric faults.

    An MoE-skewed matrix (random base size, skew and hot destinations
    from ``random.Random(f"workload:{seed}")``) driven by every rank
    with ``algorithm="replan"`` — the schedule the fault episodes are
    aimed at.  Returns the matrix (byte totals feed the report).
    """
    from repro.api.collectives import moe_matrix

    rng = random.Random(f"workload:{seed}")
    n = world.size
    base = rng.choice((16 * 1024, 64 * 1024))
    skew = rng.randrange(4, 9)
    hot = sorted(rng.sample(range(n), max(1, n // 4)))
    matrix = moe_matrix(n, base, hot=hot, skew=skew)
    for comm in world.comms:
        world.cluster.sim.spawn(comm.alltoallv(matrix, algorithm="replan"))
    return matrix


def _violation_flight_dump(cluster, violation) -> Optional[Dict[str, Any]]:
    """The post-mortem for a violation (snapshotting if none landed)."""
    if violation is None:
        return None
    flight = cluster.obs.flight
    dump = flight.last_dump()
    if dump is None or dump.get("reason") != "invariant-violation":
        # Mid-run violations (monitor raises inside cluster.run())
        # bypass check_drain's trigger — snapshot the ring now.
        if cluster.hooks.on_violation:
            cluster.hooks.on_violation(violation, cluster.sim.now)
        dump = flight.last_dump()
    return dump


def _run_fabric_scenario(
    seed: int,
    chaos: Optional[ChaosSchedule],
    shape: str,
    ranks: int,
    strategy: str,
    horizon: float,
    intensity: int,
    invariants: bool,
    obs_metrics: bool,
) -> ScenarioResult:
    """One chaos scenario on an N-rank switched fabric.

    The fabric analogue of the paper-testbed path: same watchdog, same
    invariant monitor, same flight recorder — but the cluster is a
    flat-switch or fat-tree fabric, the fault pool includes spine
    outages / link flaps / pod partitions, and the workload is a
    re-planning alltoallv across all ranks.
    """
    from repro.api.cluster import ClusterBuilder
    from repro.api.mpi import MpiWorld
    from repro.bench.runners import default_profiles
    from repro.hardware.topology import Fabric

    rails = ("myri10g", "quadrics")
    if ranks < 2:
        raise ConfigurationError(f"fabric chaos needs >= 2 ranks, got {ranks}")
    if chaos is None:
        chaos = _default_chaos(seed, shape, ranks, horizon, intensity)
    _reset_id_counters()
    if shape == "fat_tree":
        fab = Fabric.fat_tree(
            ranks,
            rails,
            pod_size=FABRIC_POD_SIZE,
            spines=FABRIC_SPINES,
            prefix="rank",
        )
    else:
        fab = Fabric.flat(ranks, rails, prefix="rank")
    builder = (
        ClusterBuilder(strategy)
        .fabric(fab)
        .sampling(profiles=default_profiles(rails))
        .resilience(timeout=CHAOS_TIMEOUT, max_retries=CHAOS_MAX_RETRIES)
        .faults(chaos.schedule())
        .observability(
            trace=False, metrics=obs_metrics, accuracy=False, collectives=False
        )
    )
    if invariants:
        builder.invariants()
    cluster = builder.build()
    monitor = cluster.invariants
    if monitor is not None:
        monitor.bind_context(seed=seed, schedule=chaos.to_json())
    violation: Optional[InvariantViolation] = None
    try:
        _fabric_workload(MpiWorld.from_cluster(cluster), seed)
        cluster.run()
        cluster.check_drain()
    except InvariantViolation as exc:
        violation = exc
    engines = cluster.engines.values()
    return ScenarioResult(
        seed=seed,
        ok=violation is None,
        violation=violation,
        elapsed_us=cluster.sim.now,
        messages_sent=sum(e.messages_sent for e in engines),
        messages_completed=sum(e.messages_completed for e in engines),
        messages_degraded=sum(e.messages_degraded for e in engines),
        retries_issued=sum(e.retries_issued for e in engines),
        duplicates_suppressed=sum(e.duplicates_suppressed for e in engines),
        deliveries_cancelled=sum(e.deliveries_cancelled for e in engines),
        faults_fired=(
            cluster.fault_injector.faults_fired if cluster.fault_injector else 0
        ),
        checks_performed=monitor.checks_performed if monitor else 0,
        flight_dump=_violation_flight_dump(cluster, violation),
        metrics_snapshot=(
            cluster.obs.metrics.snapshot() if obs_metrics else None
        ),
    )


def run_scenario(
    seed: int,
    chaos: Optional[ChaosSchedule] = None,
    strategy: str = "hetero_split",
    horizon: float = DEFAULT_HORIZON,
    intensity: int = DEFAULT_INTENSITY,
    invariants: bool = True,
    silent: bool = False,
    calibration: bool = False,
    obs_metrics: bool = False,
    shape: str = "paper",
    ranks: int = 8,
) -> ScenarioResult:
    """Run one chaos scenario: paper testbed + seeded faults + invariants.

    Builds the §IV testbed with the watchdog armed and the invariant
    monitor installed, injects ``chaos`` (generated from ``seed`` when
    not given), drives the seeded workload to drain, then audits the
    drained cluster.  Never raises on a violation — it is captured in
    the returned :class:`ScenarioResult` (soak loops keep going).

    ``invariants=False`` runs the same scenario without the monitor —
    the BENCH_PR4 overhead comparison; only the drain check remains.

    ``silent=True`` draws episodes from the pool that includes
    unannounced bandwidth drops; ``calibration=True`` arms the drift
    loop so those drops can be detected and re-sampled away mid-run.

    The flight recorder is always armed (cheap ring; a violating seed
    ships its own post-mortem in ``flight_dump``).  ``obs_metrics=True``
    additionally arms the metrics registry and attaches its snapshot to
    the result — the per-shard input to
    :func:`repro.bench.parallel.soak_obs_artifact`'s merge.

    ``shape`` picks the testbed: ``"paper"`` (default, the two-node §IV
    testbed), or a switched fabric — ``"flat"`` (one crossbar per rail)
    or ``"fat_tree"`` (two-tier, :data:`FABRIC_SPINES` spines) across
    ``ranks`` nodes, where the episode pool additionally draws
    :data:`FABRIC_EPISODE_KINDS` and the workload is a re-planning
    alltoallv (``silent``/``calibration`` are paper-shape only).
    """
    from repro.api.cluster import ClusterBuilder
    from repro.bench.runners import default_profiles

    if shape not in CHAOS_SHAPES:
        raise ConfigurationError(
            f"chaos shape must be one of {CHAOS_SHAPES}, got {shape!r}"
        )
    if shape != "paper":
        return _run_fabric_scenario(
            seed,
            chaos,
            shape,
            ranks,
            strategy,
            horizon,
            intensity,
            invariants,
            obs_metrics,
        )
    if chaos is None:
        chaos = ChaosSchedule(
            seed, horizon=horizon, intensity=intensity, silent=silent
        )
    _reset_id_counters()
    builder = (
        ClusterBuilder.paper_testbed(strategy=strategy)
        .sampling(profiles=default_profiles(("myri10g", "quadrics")))
        .resilience(timeout=CHAOS_TIMEOUT, max_retries=CHAOS_MAX_RETRIES)
        .faults(chaos.schedule())
        # Flight recorder always on: a cheap ring of recent events, so a
        # violating seed ships its own post-mortem.  Purely passive —
        # the obs contract guarantees identical timestamps either way.
        .observability(
            trace=False, metrics=obs_metrics, accuracy=False, collectives=False
        )
    )
    if invariants:
        builder.invariants()
    if calibration:
        builder.calibration()
    cluster = builder.build()
    monitor = cluster.invariants
    if monitor is not None:
        monitor.bind_context(seed=seed, schedule=chaos.to_json())
    violation: Optional[InvariantViolation] = None
    messages: List[Any] = []
    try:
        messages = _seeded_workload(cluster, chaos, seed)
        cluster.run()
        cluster.check_drain()
    except InvariantViolation as exc:
        violation = exc
    flight_dump = _violation_flight_dump(cluster, violation)
    engine = cluster.engine("node0")
    return ScenarioResult(
        seed=seed,
        ok=violation is None,
        violation=violation,
        elapsed_us=cluster.sim.now,
        messages_sent=len(messages),
        messages_completed=sum(
            e.messages_completed for e in cluster.engines.values()
        ),
        messages_degraded=sum(
            e.messages_degraded for e in cluster.engines.values()
        ),
        retries_issued=engine.retries_issued,
        duplicates_suppressed=sum(
            e.duplicates_suppressed for e in cluster.engines.values()
        ),
        deliveries_cancelled=sum(
            e.deliveries_cancelled for e in cluster.engines.values()
        ),
        faults_fired=(
            cluster.fault_injector.faults_fired if cluster.fault_injector else 0
        ),
        checks_performed=monitor.checks_performed if monitor else 0,
        flight_dump=flight_dump,
        metrics_snapshot=(
            cluster.obs.metrics.snapshot() if obs_metrics else None
        ),
    )


# ---------------------------------------------------------------------- #
# soak
# ---------------------------------------------------------------------- #


@dataclass
class SoakReport:
    """Aggregate outcome of a multi-seed chaos soak."""

    scenarios: List[ScenarioResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: minimal shrunk schedules per failing seed (when shrinking ran)
    shrunk: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    @property
    def violations(self) -> List[ScenarioResult]:
        return [s for s in self.scenarios if not s.ok]

    @property
    def scenarios_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.scenarios) / self.wall_seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenarios": len(self.scenarios),
            "violations": len(self.violations),
            "scenarios_per_sec": self.scenarios_per_sec,
            "wall_seconds": self.wall_seconds,
            "results": [s.to_dict() for s in self.scenarios],
            "shrunk": {str(k): v for k, v in self.shrunk.items()},
        }

    def summary(self) -> str:
        ok = len(self.scenarios) - len(self.violations)
        lines = [
            f"chaos soak: {len(self.scenarios)} scenario(s), {ok} clean, "
            f"{len(self.violations)} violation(s), "
            f"{self.scenarios_per_sec:.2f} scenarios/sec"
        ]
        for bad in self.violations:
            assert bad.violation is not None
            lines.append(
                f"  seed {bad.seed}: {bad.violation.invariant} — "
                f"{bad.violation.detail}"
            )
            if bad.seed in self.shrunk:
                eps = self.shrunk[bad.seed].get("episodes", [])
                kinds = ", ".join(e["kind"] for e in eps)
                lines.append(
                    f"    shrunk to {len(eps)} episode(s): {kinds}"
                )
        return "\n".join(lines)


def soak(
    seeds,
    strategy: str = "hetero_split",
    horizon: float = DEFAULT_HORIZON,
    intensity: int = DEFAULT_INTENSITY,
    shrink_failures: bool = False,
    invariants: bool = True,
    silent: bool = False,
    calibration: bool = False,
    obs_metrics: bool = False,
    shape: str = "paper",
    ranks: int = 8,
    jobs: Optional[int] = 1,
) -> SoakReport:
    """Run a chaos scenario per seed; collect outcomes, never abort.

    ``seeds`` is an iterable of ints (or an int: ``range(seeds)``).
    With ``shrink_failures``, every failing seed's schedule is reduced
    to a minimal still-failing episode set (:func:`shrink`) and attached
    to the report.  ``silent``/``calibration`` run the silent-degrade
    pool with the drift loop armed (the PR 5 soak).  ``shape``/``ranks``
    pick the testbed per :func:`run_scenario` — the fabric soak.

    ``jobs`` shards the seeds over that many processes
    (:func:`repro.util.parallel.parallel_map`; ``0`` = one per CPU).
    Results merge back in seed order, so
    :func:`repro.bench.parallel.soak_artifact` is byte-identical for any
    ``jobs``; only ``wall_seconds`` differs.
    Shrinking runs in the calling process after the fan-out: the ddmin
    loop is itself a sequential fixpoint.
    """
    if isinstance(seeds, int):
        seeds = range(seeds)
    scenario = partial(
        run_scenario,
        strategy=strategy,
        horizon=horizon,
        intensity=intensity,
        invariants=invariants,
        silent=silent,
        calibration=calibration,
        obs_metrics=obs_metrics,
        shape=shape,
        ranks=ranks,
    )
    report = SoakReport()
    t0 = time.perf_counter()
    report.scenarios = parallel_map(scenario, [int(s) for s in seeds], jobs)
    if shrink_failures:
        for result in report.violations:
            minimal = shrink(
                result.seed,
                strategy=strategy,
                horizon=horizon,
                intensity=intensity,
                shape=shape,
                ranks=ranks,
            )
            report.shrunk[result.seed] = minimal.to_json()
    report.wall_seconds = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------- #
# shrinking
# ---------------------------------------------------------------------- #


def shrink(
    seed: int,
    strategy: str = "hetero_split",
    horizon: float = DEFAULT_HORIZON,
    intensity: int = DEFAULT_INTENSITY,
    max_runs: int = 64,
    shape: str = "paper",
    ranks: int = 8,
) -> ChaosSchedule:
    """Reduce a failing seed's schedule to a minimal failing episode set.

    Greedy delta-debugging over episodes: repeatedly try dropping one
    episode; keep any drop after which the scenario still violates.
    Terminates when no single episode can be removed (1-minimal) or
    after ``max_runs`` scenario executions.  Returns the reduced
    :class:`ChaosSchedule` — deterministic, so the returned schedule
    replays the violation via ``run_scenario(seed, chaos=shrunk)``.
    Works over mixed node + fabric episode sets: with a fabric
    ``shape``, candidate subsets keep the base schedule's ``fabric``
    spec, so spine/link episodes replay against the same switch names.
    """
    base = _default_chaos(seed, shape, ranks, horizon, intensity)

    def fails(episodes: List[Dict[str, Any]]) -> bool:
        candidate = ChaosSchedule(
            seed,
            nics=base.nics,
            nodes=base.nodes,
            horizon=base.horizon,
            intensity=base.intensity,
            episodes=episodes,
            fabric=base.fabric,
        )
        return not run_scenario(
            seed, chaos=candidate, strategy=strategy, shape=shape, ranks=ranks
        ).ok

    runs = 0
    if not fails(base.episodes):
        # Nothing to shrink: the full schedule passes.
        return base
    episodes = list(base.episodes)
    reduced = True
    while reduced and runs < max_runs:
        reduced = False
        for i in range(len(episodes)):
            trial = episodes[:i] + episodes[i + 1 :]
            runs += 1
            if runs >= max_runs:
                break
            if fails(trial):
                episodes = trial
                reduced = True
                break
    return ChaosSchedule(
        seed,
        nics=base.nics,
        nodes=base.nodes,
        horizon=base.horizon,
        intensity=base.intensity,
        episodes=episodes,
        fabric=base.fabric,
    )


__all__ = [
    "CHAOS_MAX_RETRIES",
    "CHAOS_SHAPES",
    "CHAOS_TIMEOUT",
    "ChaosSchedule",
    "DEFAULT_HORIZON",
    "DEFAULT_INTENSITY",
    "EPISODE_KINDS",
    "FABRIC_EPISODE_KINDS",
    "FABRIC_POD_SIZE",
    "FABRIC_SPINES",
    "SILENT_EPISODE_KINDS",
    "ScenarioResult",
    "SoakReport",
    "fabric_spec",
    "run_scenario",
    "shrink",
    "soak",
]
