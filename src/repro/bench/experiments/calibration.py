"""CAL — estimator drift defense under silent degradation (the PR 5 guard).

The scenario the calibration subsystem exists for: one rail's bandwidth
silently halves at t=0 — **no** fault event is announced, so the planner's
launch-time profile is a lie and only the drift loop can notice.  A
sequential 4 MiB stream (each send waits for the previous completion, so
every split is planned against idle rails and the stale profile fully
misleads it) is driven through four builds:

``healthy``
    no degradation — the reference ceiling.
``blind``
    degraded, no calibration — the stale-profile baseline (ablation A8's
    pathology, now measured end-to-end).
``defended``
    degraded, calibration on — drift detection, online re-sampling and
    the fallback ladder recover most of the lost throughput.
``oracle``
    degraded, with a perfect-knowledge ``Cluster.resample(rail=...,
    blend=1.0)`` scheduled right after the degrade — the best any
    closed-loop defense could do.

``BENCH_PR5.json`` pins ``defended >= RECOVERY_FLOOR × oracle`` and that
``blind`` stays measurably worse, plus the healthy-path guard: with
calibration off (and even armed-but-healthy), simulated makespans are
bit-identical to the committed ``BENCH_PR4.json`` numbers.
``cli run CAL --json PATH`` regenerates it; the rendered table ends
with the defended build's calibration report (drift events, re-samples
and fallback-ladder moves).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench.experiments.degraded import BURST, SIZES
from repro.bench.runners import default_profiles, repo_root
from repro.util.errors import ConfigurationError
from repro.util.units import bytes_per_us_to_mbps

#: sequential messages in the degrade stream
COUNT = 24

#: message size (the paper's 4 MiB reference point)
SIZE = 4 * 1024 * 1024

#: silent bandwidth factor applied to node0.myri10g0 at t=0
BW_FACTOR = 0.5

#: acceptance floor: defended throughput as a fraction of oracle
RECOVERY_FLOOR = 0.8

#: detector knobs used by the defended build (fast-reacting variant of
#: the defaults — the stream is only COUNT messages long)
CALIBRATION_KNOBS = dict(cooldown=1000.0, min_samples=2)

_RAIL = "node0.myri10g0"


def _build(mode: str):
    """One paper-testbed cluster in the given scenario mode."""
    from repro.api.cluster import ClusterBuilder
    from repro.faults import FaultSchedule

    builder = ClusterBuilder.paper_testbed(strategy="hetero_split").sampling(
        profiles=default_profiles(("myri10g", "quadrics"))
    )
    if mode == "defended":
        builder.calibration(**CALIBRATION_KNOBS)
    if mode != "healthy":
        schedule = FaultSchedule()
        schedule.silent_degrade(_RAIL, at=0.0, bw_factor=BW_FACTOR)
        builder.faults(schedule)
    cluster = builder.build()
    if mode == "oracle":
        # The re-sample must run *in-sim*, after the degrade action has
        # fired, so the online probe sees the slowed rail.
        cluster.sim.schedule_at(
            0.5, lambda: cluster.resample(rail=_RAIL, blend=1.0)
        )
    return cluster


def _sequential(cluster) -> float:
    """Drive COUNT sequential sends; returns the makespan in µs."""
    src, dst = cluster.sessions("node0", "node1")
    done: List[float] = []

    def driver():
        for i in range(COUNT):
            dst.irecv(source="node0", tag=i)
            msg = src.isend("node1", SIZE, tag=i)
            yield from src.wait(msg)
            done.append(cluster.sim.now)

    cluster.sim.spawn(driver())
    cluster.run()
    if len(done) != COUNT:
        raise ConfigurationError(
            f"sequential stream incomplete: {len(done)}/{COUNT}"
        )
    return done[-1]


def _mode_point(mode: str, cluster) -> Dict[str, object]:
    makespan = _sequential(cluster)
    point: Dict[str, object] = {
        "mode": mode,
        "makespan_us": makespan,
        "mbps": bytes_per_us_to_mbps(COUNT * SIZE / makespan),
    }
    if cluster.calibration is not None:
        snap = cluster.calibration_snapshot()
        point["drift_events"] = snap["drift_events"]
        point["resamples"] = len(snap["resamples"])
        point["fallback_transitions"] = sum(
            len(l["transitions"]) for l in snap["ladders"].values()
        )
    return point


def _healthy_burst(calibration: bool) -> Dict[int, float]:
    """The OBS/CHAOS healthy burst per size — the bit-identity probe."""
    from repro.api.cluster import ClusterBuilder

    out: Dict[int, float] = {}
    for size in SIZES:
        builder = ClusterBuilder.paper_testbed(
            strategy="hetero_split"
        ).sampling(profiles=default_profiles(("myri10g", "quadrics")))
        if calibration:
            builder.calibration()
        cluster = builder.build()
        sender, receiver = cluster.sessions("node0", "node1")
        messages = []
        for i in range(BURST):
            receiver.irecv(tag=i)
            messages.append(sender.isend("node1", size, tag=i))
        cluster.run()
        if any(m.t_complete is None for m in messages):
            raise ConfigurationError(f"burst incomplete at {size}B")
        elapsed = max(m.t_complete for m in messages) - min(
            m.t_post for m in messages
        )
        out[size] = bytes_per_us_to_mbps(sum(m.size for m in messages) / elapsed)
    return out


def _bench_pr4_healthy() -> Dict[int, float]:
    """Committed healthy MB/s per size from BENCH_PR4.json (empty when
    the file is absent)."""
    path = repo_root() / "BENCH_PR4.json"
    if not path.exists():
        return {}
    payload = json.loads(path.read_text())
    return {p["size"]: p["mbps"] for p in payload.get("points", [])}


@dataclass
class CalibrationResult:
    """Rendered summary for ``python -m repro.bench.cli run CAL``."""

    points: List[Dict[str, object]] = field(default_factory=list)
    recovery: float = 0.0        #: defended / oracle throughput
    blind_ratio: float = 0.0     #: blind / oracle throughput
    #: per-size (mbps, matches BENCH_PR4?, identical with calibration armed?)
    healthy: List[Tuple[int, float, Optional[bool], bool]] = field(
        default_factory=list
    )
    #: the defended build's ``calibration_report()``
    report: str = ""

    def render(self) -> str:
        lines = [
            f"CAL: silent degrade ({_RAIL} at {BW_FACTOR:.0%} bandwidth, "
            "unannounced), sequential "
            f"{COUNT}x{SIZE // (1024 * 1024)} MiB stream",
            "",
        ]
        for p in self.points:
            extra = ""
            if "resamples" in p:
                extra = (
                    f"  [{p['drift_events']} drift, {p['resamples']} "
                    f"resample(s), {p['fallback_transitions']} ladder "
                    "move(s)]"
                )
            lines.append(
                f"  {p['mode']:>9}  {p['mbps']:10.1f} MB/s  "
                f"makespan {p['makespan_us']:10.1f} us{extra}"
            )
        lines += [
            "",
            f"  defended/oracle  {self.recovery:.3f}  "
            f"(floor {RECOVERY_FLOOR})",
            f"  blind/oracle     {self.blind_ratio:.3f}",
            "",
            "  healthy burst, calibration absent vs armed "
            "(identical = zero planning impact while trusted):",
        ]
        for size, mbps, matches, same in self.healthy:
            mark = "identical" if same else "DIVERGED"
            pr4 = {True: "=PR4", False: "PR4-MISMATCH", None: "no-PR4"}[matches]
            lines.append(f"    {size:>9}B  {mbps:10.2f} MB/s  {mark}  {pr4}")
        lines += ["", "defended build:", self.report]
        return "\n".join(lines)

    def payload(self) -> Dict:
        """The BENCH_PR5.json payload: recovery ratios + healthy identity."""
        return {
            "schema": 1,
            "pr": 5,
            "description": (
                "Estimator drift defense guard: node0.myri10g0's bandwidth "
                f"silently drops to {BW_FACTOR:.0%} at t=0 (no fault event "
                "announced) under a sequential stream of "
                f"{COUNT}x{SIZE // (1024 * 1024)} MiB sends.  The "
                "drift-defended build (calibration on) must recover at "
                f"least {RECOVERY_FLOOR:.0%} of the oracle re-sampled "
                "throughput while the blind baseline stays measurably "
                "worse.  The healthy block re-runs the BENCH_PR4 burst with "
                "calibration absent vs armed: throughput must be "
                "bit-identical both ways and equal BENCH_PR4.json exactly."
            ),
            "harness": "python -m repro.bench.cli run CAL --json PATH",
            "scenario": {
                "count": COUNT,
                "size": SIZE,
                "bw_factor": BW_FACTOR,
                "rail": _RAIL,
                "recovery_floor": RECOVERY_FLOOR,
                "calibration_knobs": dict(CALIBRATION_KNOBS),
            },
            "modes": self.points,
            "recovery": self.recovery,
            "blind_ratio": self.blind_ratio,
            "recovery_ok": self.recovery >= RECOVERY_FLOOR,
            "blind_worse": self.blind_ratio < self.recovery,
            "healthy": [
                {
                    "size": size,
                    "mbps": mbps,
                    "matches_bench_pr4": matches,
                    "identical_with_calibration": same,
                }
                for size, mbps, matches, same in self.healthy
            ],
        }


def run() -> CalibrationResult:
    """Blind vs drift-defended vs oracle under silent degrade."""
    result = CalibrationResult()
    for mode in ("healthy", "oracle", "defended", "blind"):
        cluster = _build(mode)
        result.points.append(_mode_point(mode, cluster))
        if cluster.calibration is not None:
            result.report = cluster.calibration_report()
    by_mode = {p["mode"]: p for p in result.points}
    result.recovery = by_mode["defended"]["mbps"] / by_mode["oracle"]["mbps"]
    result.blind_ratio = by_mode["blind"]["mbps"] / by_mode["oracle"]["mbps"]
    pr4 = _bench_pr4_healthy()
    off = _healthy_burst(calibration=False)
    on = _healthy_burst(calibration=True)
    for size in SIZES:
        result.healthy.append(
            (
                size,
                off[size],
                pr4[size] == off[size] if size in pr4 else None,
                off[size] == on[size],
            )
        )
    return result
