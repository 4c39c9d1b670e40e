"""FAB — fabric fault tolerance: re-planning vs blind under spine loss.

The fabric-fault PR's headline scenario (BENCH_PR10.json): a skewed
MoE-shaped all-to-allv on an 8-rank two-pod fat tree, with one spine of
each rail's fat tree failing mid-collective.  Two contenders:

* **replan** — adaptive (health-aware ECMP) routing plus the
  re-planning RailS schedule: surviving spines absorb re-hashed flows,
  and every rank re-cuts its remaining segment queue largest-remaining-
  first when fault/degrade/retry signals fire.  The invariant monitor
  is armed throughout (route-liveness, replan byte conservation,
  collective completion).
* **blind** — static spine hashing and the fault-oblivious ``rails``
  schedule: flows pinned to the dead spine drop until the engine
  watchdog re-sends them.

Both complete (the watchdog guarantees progress); the guard pins the
throughput ratio — re-planning must beat the blind schedule by at least
:data:`GUARD_MIN_SPEEDUP` on the same fault schedule.

The healthy section re-measures the PR 8 skewed fat-tree table with the
fault surface compiled in and compares bit-for-bit against the
committed ``BENCH_PR8.json`` — with no faults armed, the fabric must
price, route and serialize exactly as before this PR.

Everything is simulated time (µs): deterministic across hosts, so the
payload pins exact numbers, not noisy wall-clock rates.
``cli run FAB --json PATH`` regenerates it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench.runners import default_profiles, repo_root
from repro.util.errors import ConfigurationError

#: rail technologies (the paper's pair — one fat tree per rail)
RAILS = ("myri10g", "quadrics")
#: world size / fat-tree geometry (8 ranks = 2 pods of 4, 2 spines)
RANKS = 8
POD_SIZE = 4
SPINES = 2
#: skewed workload: base bytes, hot destinations, skew factor (the
#: BENCH_PR7/PR8 spread placement)
MOE_BASE = 64 * 1024
MOE_HOT = (3, 6)
MOE_SKEW = 8
#: mid-collective outage: spine0 of both rails' fat trees dies at
#: OUTAGE_AT for OUTAGE_DURATION — inside the collective's busy window
OUTAGE_AT = "300us"
OUTAGE_DURATION = "1200us"
#: schedule seed (fixed — BENCH_PR10.json depends on it)
SEED = 1
#: watchdog configuration (the chaos defaults)
TIMEOUT = "200us"
MAX_RETRIES = 8
#: the guard: replan throughput must be >= this x the blind schedule's
GUARD_MIN_SPEEDUP = 1.2


def _spine_outage_schedule():
    from repro.faults import FaultSchedule

    sched = FaultSchedule(seed=SEED)
    for rail_idx in range(len(RAILS)):
        sched.spine_down(
            f"fattree{rail_idx}.spine0",
            at=OUTAGE_AT,
            duration=OUTAGE_DURATION,
        )
    return sched


def _fabric_world(adaptive: bool, faulty: bool, invariants: bool):
    """An 8-rank dual-rail fat-tree world, optionally faulted."""
    from repro.api.cluster import ClusterBuilder
    from repro.api.mpi import MpiWorld
    from repro.hardware.topology import Fabric

    fab = Fabric.fat_tree(
        RANKS,
        rails=RAILS,
        pod_size=POD_SIZE,
        spines=SPINES,
        prefix="rank",
        adaptive=adaptive,
    )
    builder = (
        ClusterBuilder("hetero_split")
        .fabric(fab)
        .sampling(profiles=default_profiles(RAILS))
    )
    if faulty:
        builder.resilience(timeout=TIMEOUT, max_retries=MAX_RETRIES)
        builder.faults(_spine_outage_schedule())
    if invariants:
        builder.invariants()
    return MpiWorld.from_cluster(builder.build())


def _measure(
    algorithm: str, adaptive: bool, faulty: bool, invariants: bool
) -> Dict:
    """Makespan + fabric counters of one skewed all-to-allv run."""
    from repro.api import collectives as coll
    from repro.core.invariants import InvariantViolation
    from repro.networks.switch import FatTreeSwitch

    world = _fabric_world(adaptive, faulty, invariants)
    matrix = coll.moe_matrix(RANKS, MOE_BASE, hot=list(MOE_HOT), skew=MOE_SKEW)

    def program(comm):
        yield from comm.alltoallv(matrix, algorithm=algorithm)

    world.spawn_all(program)
    violation: Optional[str] = None
    try:
        world.cluster.run()
    except InvariantViolation as exc:
        violation = f"{exc.invariant}: {exc.detail}"
    switches = [
        nic.wire
        for engine in world.cluster.engines.values()
        for nic in engine.machine.nics
        if isinstance(nic.wire, FatTreeSwitch)
    ]
    seen = {id(sw): sw for sw in switches}
    monitor = world.cluster.invariants
    return {
        "makespan_us": world.cluster.sim.now,
        "rerouted_packets": sum(
            sw.spine_rerouted_packets for sw in seen.values()
        ),
        "dropped_packets": sum(
            sw.spine_dropped_packets + sw.link_dropped_packets
            for sw in seen.values()
        ),
        "retries_issued": sum(
            e.retries_issued for e in world.cluster.engines.values()
        ),
        "invariant_checks": monitor.checks_performed if monitor else 0,
        "violation": violation,
    }


def degraded_guard() -> Dict:
    """Re-planning vs blind under the mid-collective spine outage."""
    replan = _measure("replan", adaptive=True, faulty=True, invariants=True)
    blind = _measure("rails", adaptive=False, faulty=True, invariants=False)
    if replan["violation"] is not None:
        raise ConfigurationError(
            f"replan run violated an invariant: {replan['violation']}"
        )
    speedup = blind["makespan_us"] / replan["makespan_us"]
    return {
        "replan": replan,
        "blind": blind,
        "replan_speedup": speedup,
        "guard_min_speedup": GUARD_MIN_SPEEDUP,
        "guard_ok": speedup >= GUARD_MIN_SPEEDUP,
    }


def healthy_bit_equality() -> Dict:
    """Re-measure the PR 8 skewed fat-tree table; compare bit-for-bit.

    Also records the healthy replan makespan: with no faults armed the
    re-planning schedule never fires a re-plan, but it still runs the
    same segmentation as ``rails``.
    """
    from repro.bench.experiments.collectives import skewed_table

    table = skewed_table()
    healthy_replan = _measure(
        "replan", adaptive=True, faulty=False, invariants=True
    )
    pinned = None
    path = repo_root() / "BENCH_PR8.json"
    if path.exists():
        committed = json.loads(path.read_text()).get(
            "skewed_alltoallv_fat_tree", {}
        )
        pinned = {
            "mean_naive_us_identical": (
                committed.get("mean_naive_us") == table["mean_naive_us"]
            ),
            "mean_rails_us_identical": (
                committed.get("mean_rails_us") == table["mean_rails_us"]
            ),
        }
    return {
        "skewed_alltoallv_fat_tree": table,
        "healthy_replan_us": healthy_replan["makespan_us"],
        "healthy_replan_rerouted": healthy_replan["rerouted_packets"],
        "vs_bench_pr8": pinned,
    }


@dataclass
class FabricFaultsResult:
    """Registry-shaped result: the guard scenario, renderable."""

    guard: Dict
    healthy: Dict
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        g = self.guard
        lines = [
            "FAB: skewed all-to-allv on an 8-rank fat tree, spine0 of "
            f"both rails down at {OUTAGE_AT} for {OUTAGE_DURATION} "
            "(simulated us, lower is better)",
            "",
            f"{'schedule':>10} {'makespan us':>12} {'rerouted':>9} "
            f"{'dropped':>8} {'retries':>8}",
        ]
        for label, row in (("replan", g["replan"]), ("blind", g["blind"])):
            lines.append(
                f"{label:>10} {row['makespan_us']:>12.1f} "
                f"{row['rerouted_packets']:>9} {row['dropped_packets']:>8} "
                f"{row['retries_issued']:>8}"
            )
        lines += [
            "",
            f"replan speedup {g['replan_speedup']:.2f}x "
            f"(guard >= {g['guard_min_speedup']:.1f}x: "
            f"{'ok' if g['guard_ok'] else 'FAIL'})",
        ]
        if self.notes:
            lines += [""] + self.notes
        return "\n".join(lines)

    def payload(self) -> Dict:
        """The BENCH_PR10.json payload: healthy bit-equality + the guard."""
        return {
            "schema": 1,
            "pr": 10,
            "description": (
                "Fabric-scale fault tolerance: skewed MoE all-to-allv on "
                f"an {RANKS}-rank dual-rail fat tree (pods of {POD_SIZE}, "
                f"{SPINES} spines) with spine0 of both rails down at "
                f"{OUTAGE_AT} for {OUTAGE_DURATION} (schedule seed {SEED}). "
                "'degraded' races the health-aware re-planning schedule "
                "(adaptive ECMP + largest-remaining-first re-cuts, "
                "invariant monitor armed) against the blind static-hash "
                "rails schedule; the guard pins the speedup floor.  "
                "'healthy' re-measures the BENCH_PR8 skewed fat-tree table and "
                "must match BENCH_PR8.json bit-for-bit — no faults armed "
                "means no behavior change.  Deterministic: re-running "
                "'python -m repro.bench.cli run FAB --json PATH' "
                "reproduces these numbers exactly."
            ),
            "harness": "python -m repro.bench.cli run FAB --json PATH",
            "scenario": {
                "ranks": RANKS,
                "pod_size": POD_SIZE,
                "spines": SPINES,
                "rails": list(RAILS),
                "moe_base_bytes": MOE_BASE,
                "moe_hot": list(MOE_HOT),
                "moe_skew": MOE_SKEW,
                "outage_at": OUTAGE_AT,
                "outage_duration": OUTAGE_DURATION,
                "seed": SEED,
                "timeout": TIMEOUT,
                "max_retries": MAX_RETRIES,
            },
            "degraded": self.guard,
            "healthy": self.healthy,
        }


def run() -> FabricFaultsResult:
    """Fabric fault tolerance: re-planning vs blind under spine loss."""
    return FabricFaultsResult(
        guard=degraded_guard(),
        healthy=healthy_bit_equality(),
        notes=[
            "replan = adaptive ECMP + mid-collective re-planning with the"
            " invariant monitor armed; blind = static hashing + the"
            " fault-oblivious rails schedule (watchdog re-sends drops).",
        ],
    )
