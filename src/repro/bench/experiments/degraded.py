"""DEG — degraded-mode throughput: one rail flapping at 50% duty.

The fault subsystem's headline scenario: the §IV testbed moves a burst
of messages while the Myri-10G rail (both endpoints) flaps down/up at a
50% duty cycle.  The engine's watchdog + retry machinery and the
fault-aware planner keep every message completing on the surviving
Quadrics rail during down windows, at a bandwidth cost this experiment
quantifies.  The committed ``BENCH_PR2.json`` pins the healthy vs
degraded trajectory (deterministic — the schedule is seed-driven);
``cli run DEG --json PATH`` regenerates it.

The rendered table ends with the single-message story behind those
numbers: a 4 MiB send loses its fast rail mid-transfer, and the
message's ``explain()`` and Gantt chart show the stranded chunk retried
on the survivor.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.bench.runners import default_profiles, repo_root
from repro.bench.series import Series, SweepResult
from repro.util.errors import ConfigurationError
from repro.util.units import bytes_per_us_to_mbps

#: burst of messages per measured point
BURST = 8
#: sweep sizes (bytes)
SIZES = [256 * 1024, 1024 * 1024, 4 * 1024 * 1024]
#: flapping rail — bare name: both endpoints of the Myri-10G rail
FLAP_NIC = "myri10g0"
#: one down+up cycle (µs); down for the first half of each period
FLAP_PERIOD = 800.0
FLAP_DUTY = 0.5
FLAP_CYCLES = 200
#: watchdog configuration for the degraded runs
TIMEOUT = "200us"
#: schedule seed (fixed — BENCH_PR2.json depends on it)
SEED = 2


class Burst(NamedTuple):
    """One BURST run: its cluster and completed sends, their aggregate
    MB/s and makespan (first post to last completion, µs), and the wall
    seconds spent posting and running."""

    cluster: Any
    done: List[Any]
    mbps: float
    makespan_us: float
    wall_s: float


def run_burst(
    size: int,
    configure: Optional[Callable[[Any], object]] = None,
    partial: bool = False,
) -> Burst:
    """BURST ``size``-byte hetero_split sends node0 -> node1 on the paper
    testbed, posted at once — the healthy burst of DEG, OBS, CHAOS and
    CAL.  ``configure(builder)`` adds what a caller measures on top
    (faults, obs, the invariant monitor, calibration).  Raises when a
    send is left incomplete, or with ``partial`` when none completed.
    """
    from repro.api.cluster import ClusterBuilder

    builder = ClusterBuilder.paper_testbed(strategy="hetero_split").sampling(
        profiles=default_profiles(("myri10g", "quadrics"))
    )
    if configure is not None:
        configure(builder)
    cluster = builder.build()
    sender, receiver = cluster.sessions("node0", "node1")
    t0 = time.perf_counter()
    messages = []
    for i in range(BURST):
        receiver.irecv(tag=i)
        messages.append(sender.isend("node1", size, tag=i))
    cluster.run()
    wall = time.perf_counter() - t0
    done = [m for m in messages if m.t_complete is not None]
    if not done or (len(done) < BURST and not partial):
        raise ConfigurationError(f"burst incomplete at {size}B")
    elapsed = max(m.t_complete for m in done) - min(m.t_post for m in messages)
    mbps = bytes_per_us_to_mbps(sum(m.size for m in done) / elapsed)
    return Burst(cluster, done, mbps, elapsed, wall)


def committed_mbps(filename: str, key: str) -> Dict[int, float]:
    """Per-size ``key`` of a committed BENCH file's points (empty when
    the file is absent — e.g. an installed package without the repo)."""
    path = repo_root() / filename
    if not path.exists():
        return {}
    payload = json.loads(path.read_text())
    return {p["size"]: p[key] for p in payload.get("points", [])}


def _measure_burst(
    size: int, faulty: bool
) -> Tuple[float, int, int, float]:
    """The burst healthy, or with the myri10g rail flapping.

    Returns (MB/s, retries issued, messages degraded, last completion µs).
    """
    from repro.faults import FaultSchedule

    def flapping(builder) -> None:
        schedule = FaultSchedule(seed=SEED).flapping(
            FLAP_NIC,
            period=FLAP_PERIOD,
            duty=FLAP_DUTY,
            start=FLAP_PERIOD * FLAP_DUTY,  # first window opens mid-flight
            cycles=FLAP_CYCLES,
        )
        builder.faults(schedule).resilience(timeout=TIMEOUT)

    burst = run_burst(size, flapping if faulty else None, partial=faulty)
    engine = burst.cluster.engine("node0")
    return (
        burst.mbps,
        engine.retries_issued,
        engine.messages_degraded,
        max(m.t_complete for m in burst.done),
    )


def _nic_down_story() -> str:
    """A 4 MiB hetero-split send loses node0.myri10g0 at 150 µs; returns
    the message's ``explain()`` and the cluster's Gantt chart."""
    from repro.api.cluster import ClusterBuilder
    from repro.faults import FaultSchedule
    from repro.obs import Timeline, explain

    schedule = FaultSchedule(seed=7).nic_down(
        "node0.myri10g0", at=150.0, duration=2000.0
    )
    cluster = (
        ClusterBuilder.paper_testbed(strategy="hetero_split")
        .faults(schedule)
        .resilience(timeout=TIMEOUT)
        .build()
    )
    timeline = Timeline.record(cluster)
    sender, receiver = cluster.sessions("node0", "node1")
    receiver.irecv(source="node0")
    msg = sender.isend("node1", "4M")
    result = cluster.run()
    return "\n".join(
        [
            "scenario: 4M hetero_split send; node0.myri10g0 down "
            "t=150..2150us",
            f"run: {result!r}",
            "",
            explain(msg),
            "",
            timeline.to_ascii(),
        ]
    )


@dataclass
class DegradedResult(SweepResult):
    """The DEG sweep plus its BENCH_PR2 points and the NIC-down story."""

    points: List[Dict] = field(default_factory=list)
    story: str = ""

    def render(self, precision: int = 2) -> str:
        return super().render(precision) + "\n\n" + self.story

    def payload(self) -> Dict:
        """The BENCH_PR2.json payload: per-size healthy/degraded numbers."""
        return {
            "schema": 1,
            "pr": 2,
            "description": (
                "Degraded-mode scenario of the fault-injection layer: "
                f"{BURST}-message bursts on the paper testbed "
                "(hetero_split) with the myri10g rail flapping at "
                f"{FLAP_DUTY:.0%} duty ({FLAP_PERIOD:.0f}us period, both "
                f"endpoints), watchdog timeout {TIMEOUT}, schedule seed "
                f"{SEED}.  Deterministic: re-running 'python -m "
                "repro.bench.cli run DEG --json PATH' reproduces these "
                "numbers exactly."
            ),
            "harness": "python -m repro.bench.cli run DEG --json PATH",
            "scenario": {
                "burst": BURST,
                "flap_nic": FLAP_NIC,
                "flap_period_us": FLAP_PERIOD,
                "flap_duty": FLAP_DUTY,
                "timeout": TIMEOUT,
                "seed": SEED,
            },
            "points": self.points,
        }


def run() -> DegradedResult:
    """Degraded-mode bandwidth: healthy vs Myri-10G flapping at 50% duty."""
    points = []
    for size in SIZES:
        h_bw, _, _, _ = _measure_burst(size, faulty=False)
        d_bw, retries, n_degraded, last_t = _measure_burst(size, faulty=True)
        points.append(
            {
                "size": size,
                "healthy_mbps": h_bw,
                "degraded_mbps": d_bw,
                "retained_fraction": d_bw / h_bw,
                "retries_issued": retries,
                "messages_degraded": n_degraded,
                "last_completion_us": last_t,
            }
        )
    return DegradedResult(
        title=(
            f"DEG: {BURST}-message burst bandwidth, healthy vs "
            f"myri10g flapping ({FLAP_PERIOD:.0f}us period, "
            f"{FLAP_DUTY:.0%} duty)"
        ),
        x_sizes=list(SIZES),
        series=[
            Series(label="healthy", values=[p["healthy_mbps"] for p in points]),
            Series(label="flapping", values=[p["degraded_mbps"] for p in points]),
        ],
        y_label="aggregate bandwidth, MB/s",
        points=points,
        story=_nic_down_story(),
    )
