"""One workload, measured in this (fresh, single-threaded) process.

Run by ``run.py``, never by hand::

    python benchmarks/e2e/measure.py --probe WORKLOAD
    python benchmarks/e2e/measure.py --oracle
    python benchmarks/e2e/measure.py --workload W --seed N --seconds S --trace 0|1

``--probe`` times one start-up: the CPU time from before ``import
repro`` to the first cluster built with sampled profiles.  ``--oracle``
prints ``paper_err_pct``, the Fig. 8 check.

A measurement run warms up on one episode of a different input, times
the measured episodes (host CPU time of this process), reads exact
counters from every cluster the episodes built, and finally re-runs
episode 0 to check that its simulated outputs repeat.  With
``--trace 1`` the first quarter of the episodes (at least one) runs a
second time under ``cProfile`` and light wrappers on
``Simulator.schedule``/``schedule_at``, ``Nic.submit`` and
``AlgorithmSelector.select``.  The last line of standard output is one
JSON object.

Host times are reported at the reference host's speed (``HostClock``):
the machine a benchmark shares drifts by 10% and more within seconds,
which would swamp any regression bound.  The unscaled times are kept in
the output too.
"""

import time

C0 = time.process_time()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pstats  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, Iterator, List  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))


# ---------------------------------------------------------------------- #
# the host-speed yardstick
# ---------------------------------------------------------------------- #

#: median CPU time of ``yardstick_s()`` on the reference host (the one
#: README.md's baseline was measured on)
REFERENCE_S = 0.00135
#: CPU seconds of episode time between two timings of the yardstick
SLICE_S = 0.025
#: the simulator slows down by the yardstick's slowdown to this power.
#: When the reference host was busy, the yardstick ran up to 1.9x slower
#: but the simulator only about 1.6x.  Over 13 sets of 10 runs (every
#: workload, three batches), scaling by the full ratio (power 1) left
#: 0.5-6% seed-to-seed spread in ops_per_host_s, power 0.9 0.9-3.7%,
#: power 0.8 1.1-5%.
TRACKING = 0.9


def speed(yardstick: float) -> float:
    """Factor from this host's CPU seconds to the reference host's, for
    a yardstick timing of ``yardstick`` seconds."""
    return (REFERENCE_S / yardstick) ** TRACKING


class _RefEvent:
    __slots__ = ("t", "seq", "fn", "arg")

    def __init__(self, t: float, seq: int, fn, arg: int) -> None:
        self.t, self.seq, self.fn, self.arg = t, seq, fn, arg

    def __lt__(self, other: "_RefEvent") -> bool:
        return (self.t, self.seq) < (other.t, other.seq)


def yardstick() -> int:
    """Fixed Python work in the simulator's style (a heap of slotted
    events, callbacks, dict counters, generators), timed to measure the
    host rather than the program: it never changes.

    It allocates everything it touches afresh, so its time does not
    depend on what the program left in the CPU caches; a variant walking
    a long-lived 6 MiB pool tracked the host's drift better, but ran 1.9x
    slower inside a run than alone, so a change to the program's own
    memory footprint would have moved the scale.
    """
    queue: List[_RefEvent] = []
    counts: Dict[int, int] = {}

    def hop(key: int) -> None:
        counts[key] = counts.get(key, 0) + 1

    def chunks(key: int):
        for i in range(4):
            yield i * key

    for i in range(500):
        heapq.heappush(queue, _RefEvent((i * 7919) % 1000 / 10.0, i, hop, i % 97))
        if len(queue) > 64:
            ev = heapq.heappop(queue)
            ev.fn(ev.arg)
            sum(chunks(ev.arg))
    return len(counts)


def yardstick_s() -> float:
    """CPU seconds of one ``yardstick()``.

    Every CPU time here is the thread's clock: while a process-wide CPU
    timer is armed (``HostClock``), Linux reads the process clock at
    scheduler-tick granularity (4 ms), the thread clock stays exact."""
    c0 = time.thread_time()
    yardstick()
    return time.thread_time() - c0


def _probe(name: str) -> None:
    """Print this start-up's CPU seconds, scaled to the reference host
    slice by slice like the measured episodes (``HostClock``); this
    script's own imports before it are scaled by the clock's first
    yardstick timing.

    CPU rather than wall time: on a shared host the wall clock also
    counts the time other tenants held the CPU, which no yardstick can
    scale away.  Scaling by the median of 18 yardstick timings taken
    around the start-up, rather than slice by slice, left the median of
    5 start-ups spreading 5.7% from run to run instead of 3.1%."""
    before = time.process_time() - C0
    with HostClock() as clock:
        clock.start()
        from repro.bench.runners import default_profiles
        from workloads import WORKLOADS

        workload = WORKLOADS[name]
        inputs = (workload.warmup_inputs or (lambda rng: workload.inputs(rng, 0)))(
            random.Random(f"{name}:probe")
        )
        workload.build(inputs, default_profiles())
        clock.stop()
    setup = before * speed(clock.refs[0]) + clock.scaled_s
    print(json.dumps({"setup_s": setup, "setup_raw_s": before + clock.raw_s}))


class HostClock:
    """CPU time of the timed episodes, at the reference host's speed.

    While active, a profiling timer interrupts the process every
    ``SLICE_S`` of CPU time to time the ``yardstick``.  Each slice of
    episode time is scaled by ``speed`` of the mean of the yardstick's
    timings at its two ends, so drift is corrected where it happens; the
    yardstick's own time is not counted.  On the reference host, raw CPU
    time spread 5-26% from run to run, one run-wide scale 4-9%, slice by
    slice 1-4%.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0     # episode CPU seconds, unscaled
        self.scaled_s = 0.0  # the same, at the reference host's speed
        self.refs: List[float] = []
        self._pending = 0.0  # episode CPU of the open slice
        self._mark = None    # thread_time() where the open span began

    def __enter__(self) -> "HostClock":
        self.refs.append(yardstick_s())
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SLICE_S, SLICE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        self._close_slice()

    def start(self) -> None:
        self._mark = time.thread_time()

    def stop(self) -> None:
        # A tick landing mid-update would count the open span twice.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})
        try:
            self._account()
            self._mark = None
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGPROF})

    def _account(self) -> None:
        spent = time.thread_time() - self._mark
        self._pending += spent
        self.raw_s += spent

    def _close_slice(self) -> None:
        ref = yardstick_s()
        self.scaled_s += self._pending * speed((self.refs[-1] + ref) / 2)
        self._pending = 0.0
        self.refs.append(ref)

    def _tick(self, signum, frame) -> None:
        if self._mark is None:  # between episodes: nothing to scale
            return
        self._account()
        self._mark = None  # a nested tick during the yardstick returns early
        self._close_slice()
        self._mark = time.thread_time()


# ---------------------------------------------------------------------- #
# exact counters, read from every cluster an episode built
# ---------------------------------------------------------------------- #


def read_counters(clusters: List[Any]) -> Counter:
    c: Counter = Counter()
    for cluster in clusters:
        now = cluster.sim.now
        c["events"] += cluster.sim.events_processed
        for engine in cluster.engines.values():
            c["messages"] += engine.messages_sent
            c["bytes_sent"] += engine.bytes_sent
            c["split"] += sum(1 for m in engine.sent_log if len(set(m.rails_used)) >= 2)
            c["offloads"] += engine.pioman.offloads
            c["interrupts"] += engine.pioman.interrupts
        for machine in cluster.machines.values():
            for nic in machine.nics:
                c["nic_busy_us"] += nic.utilization() * now
                c["nic_us"] += now
            for core in machine.cores:
                c["core_busy_us"] += core.utilization() * now
                c["core_us"] += now
    return c


# ---------------------------------------------------------------------- #
# trace-only probes (wrappers installed from outside the program)
# ---------------------------------------------------------------------- #


class Probes:
    """Event-queue depth, NIC/switch timing and ``auto`` picks."""

    def __init__(self) -> None:
        self.scheduled = 0
        self.peak_pending = 0
        self.transfers: List[Any] = []
        self.waits: List[float] = []
        self.lags: List[float] = []
        self.picks: Counter = Counter()

    @contextmanager
    def installed(self) -> Iterator["Probes"]:
        from repro.api.collectives import AlgorithmSelector
        from repro.networks.nic import Nic
        from repro.networks.switch import Switch
        from repro.simtime import Simulator

        originals = (
            Simulator.schedule, Simulator.schedule_at, Nic.submit,
            AlgorithmSelector.select,
        )
        schedule, schedule_at, submit, select = originals
        probes = self

        def note_pending(sim) -> None:
            probes.scheduled += 1
            pending = sim.pending_events
            if pending > probes.peak_pending:
                probes.peak_pending = pending

        def wrapped_schedule(sim, *args, **kwargs):
            ev = schedule(sim, *args, **kwargs)
            note_pending(sim)
            return ev

        def wrapped_schedule_at(sim, *args, **kwargs):
            ev = schedule_at(sim, *args, **kwargs)
            note_pending(sim)
            return ev

        def wrapped_submit(nic, transfer, core):
            probes.transfers.append((transfer, isinstance(nic.wire, Switch)))
            return submit(nic, transfer, core)

        def wrapped_select(selector, *args, **kwargs):
            pick = select(selector, *args, **kwargs)
            probes.picks[pick] += 1
            return pick

        Simulator.schedule = wrapped_schedule
        Simulator.schedule_at = wrapped_schedule_at
        Nic.submit = wrapped_submit
        AlgorithmSelector.select = wrapped_select
        try:
            yield self
        finally:
            (
                Simulator.schedule, Simulator.schedule_at, Nic.submit,
                AlgorithmSelector.select,
            ) = originals

    def collect_transfers(self) -> None:
        """Fold the episode's transfer timings in; drop the transfers."""
        for t, switched in self.transfers:
            if t.t_service_start is not None and t.t_submit is not None:
                self.waits.append(t.t_service_start - t.t_submit)
            if switched and t.t_delivered is not None and t.t_tx_done is not None:
                self.lags.append(t.t_delivered - t.t_tx_done)
        self.transfers.clear()


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


#: ops that must lie beyond the reported tail percentile
TAIL_OPS = 20


def tail_quantile(ops: int) -> float:
    """The highest quantile, up to p99, with ``TAIL_OPS`` ops beyond it.

    Ops, not latency samples, are what must lie beyond it: the samples of
    one op (the messages of one scenario, the ranks of one call) wait on
    the same faults and the same contention, so they are not independent.
    Twenty rather than the usual ten: with ten, fabric_chaos's tail (its
    p94.6 over 185 scenarios) moved 6-12% from seed to seed, with twenty
    (p89) 4-5%.
    """
    return max(0.5, min(0.99, 1.0 - TAIL_OPS / ops)) if ops else 0.99


def sim_digest(episodes, counters: Counter) -> str:
    """Hash of every simulated output: episode rows plus model counters
    (not ``events``: it describes the simulator, and a change that only
    speeds the simulator up may move it)."""
    modelled = sorted((k, v) for k, v in counters.items() if k != "events")
    rows = [ep.digest_rows for ep in episodes] + [modelled]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------- #
# the measurement
# ---------------------------------------------------------------------- #


def episode_count(per_10s: int, seconds: float) -> int:
    return max(1, round(per_10s * seconds / 10.0))


#: share of the measured episodes the traced pass runs again (the first
#: ones): the profiler makes an episode 2.6-3.1x as costly, and at seed
#: 0 a quarter of the episodes gave every layer's share within 2 points
#: of a pass over all of them
TRACE_SHARE = 0.25


def _run_pass(
    workload, inputs, profiles, built, clock=None, profiler=None, probes=None
):
    """Run every input once, timing each episode on ``clock`` (untraced)
    or under ``profiler``; returns (episodes, per-episode counters, wall
    seconds, per-episode CPU seconds, unscaled and without the clock's
    yardstick)."""
    episodes, counters, cpus = [], [], []
    wall = 0.0
    for inp in inputs:
        w0 = time.perf_counter()
        c0 = clock.raw_s if clock is not None else time.thread_time()
        if clock is not None:
            clock.start()
        if profiler is not None:
            profiler.enable()
        episode = workload.run(inp, profiles)
        if profiler is not None:
            profiler.disable()
        if clock is not None:
            clock.stop()
        cpus.append((clock.raw_s if clock is not None else time.thread_time()) - c0)
        wall += time.perf_counter() - w0
        episodes.append(episode)
        counters.append(read_counters(built))
        built.clear()
        if probes is not None:
            probes.collect_transfers()
    return episodes, counters, wall, cpus


def summarize(episodes) -> Dict[str, Any]:
    """The simulated end-to-end metrics of a list of episodes."""
    from repro.util.units import bytes_per_us_to_mbps

    ops = sum(ep.attempted for ep in episodes)
    latencies = [x for ep in episodes for x in ep.latencies]
    q_tail = tail_quantile(ops)
    makespan = sum(ep.makespan_us for ep in episodes)
    payload = sum(ep.payload_bytes for ep in episodes)
    return {
        "sim_us_p50": percentile(latencies, 0.5),
        "sim_us_tail": percentile(latencies, q_tail),
        "sim_goodput_mbps": (
            bytes_per_us_to_mbps(payload / makespan) if makespan else 0.0
        ),
        "ops_failed_frac": sum(ep.failed for ep in episodes) / ops,
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from repro.bench.runners import default_profiles
    from workloads import WORKLOADS, captured_clusters
    from layers import attribute

    workload = WORKLOADS[name]
    profiles = default_profiles()
    n = episode_count(workload.episodes_per_10s, seconds)
    inputs = [
        workload.inputs(random.Random(f"{name}:{seed}:{i}"), i) for i in range(n)
    ]
    warm_rng = random.Random(f"{name}:{seed}:warmup")
    warm = (
        workload.warmup_inputs(warm_rng)
        if workload.warmup_inputs
        else workload.inputs(warm_rng, n)
    )
    out: Dict[str, Any] = {"workload": name, "seed": seed, "episodes": n}
    with captured_clusters() as built:
        workload.run(warm, profiles)
        built.clear()

        gc.collect()
        with HostClock() as clock:
            episodes, per_episode, wall, cpus = _run_pass(
                workload, inputs, profiles, built, clock=clock
            )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        counters = sum(per_episode, Counter())
        out["sim_digest"] = sim_digest(episodes, counters)

        if trace:
            k = max(1, round(TRACE_SHARE * n))
            probes = Probes()
            profiler = cProfile.Profile()
            gc.collect()
            with probes.installed():
                t_episodes, t_per_episode, t_wall, t_cpus = _run_pass(
                    workload, inputs[:k], profiles, built,
                    profiler=profiler, probes=probes,
                )
            t_counters = sum(t_per_episode, Counter())
            out["traced_episodes"] = k
            out["traced_sim_digest"] = sim_digest(t_episodes, t_counters)
            out["untraced_sim_digest"] = sim_digest(
                episodes[:k], sum(per_episode[:k], Counter())
            )
            stats = pstats.Stats(profiler)
            layer_table = attribute(stats)
            out["traced_wall_s"] = t_wall
            out["traced_self_s"] = sum(v["self_s"] for v in layer_table.values())

        if workload.rerun_check:
            again = workload.run(inputs[0], profiles)
            built.clear()
            out["rerun_identical"] = again.digest_rows == episodes[0].digest_rows

    ops = sum(ep.attempted for ep in episodes)
    failed = sum(ep.failed for ep in episodes)
    samples = sum(len(ep.latencies) for ep in episodes)
    events = counters["events"]
    host_s = clock.scaled_s

    metrics: Dict[str, float] = {
        "ops_per_host_s": ops / host_s,
        "peak_rss_mb": peak_rss_mb,
        **summarize(episodes),
        "simtime.events_per_op": events / ops,
        "simtime.host_us_per_event": 1e6 * host_s / events,
        "core.strategies.split_frac": counters["split"] / max(1, counters["messages"]),
        "networks.nic.busy_frac": counters["nic_busy_us"] / counters["nic_us"],
        "hardware.core_busy_frac": counters["core_busy_us"] / counters["core_us"],
        "pioman.offloads_per_op": counters["offloads"] / ops,
        "pioman.interrupts_per_op": counters["interrupts"] / ops,
    }
    if trace:
        for layer, row in layer_table.items():
            for key, value in row.items():
                metrics[f"{layer}.{key}"] = value
        metrics["trace.overhead_frac"] = sum(t_cpus) / sum(cpus[:k]) - 1.0
        metrics["simtime.peak_pending"] = probes.peak_pending
        metrics["simtime.fired_frac"] = t_counters["events"] / max(1, probes.scheduled)
        metrics["networks.nic.wait_us_p50"] = percentile(probes.waits, 0.5)
        metrics["networks.nic.wait_us_p99"] = percentile(probes.waits, 0.99)
        metrics["networks.switch.lag_us_p99"] = percentile(probes.lags, 0.99)
        for algorithm in ("naive", "ring", "doubling", "rails"):
            metrics[f"api.collectives.pick.{algorithm}"] = probes.picks[algorithm]

    out.update(
        attempted=ops,
        failed=failed,
        host_wall_s=wall,
        host_cpu_s=clock.raw_s,
        host_scaled_s=host_s,
        yardstick_s=clock.refs,
        sim_samples=samples,
        sim_tail_quantile=tail_quantile(ops),
        metrics=metrics,
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--probe", metavar="WORKLOAD")
    parser.add_argument("--oracle", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.probe:
        _probe(args.probe)
        return 0
    if args.oracle:
        from repro.bench.runners import default_profiles
        from workloads import paper_err_pct

        print(json.dumps({"paper_err_pct": paper_err_pct(default_profiles())}))
        return 0
    if not args.workload:
        parser.error("--workload or --probe is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
