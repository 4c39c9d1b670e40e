"""A1–A6 — ablations of the design choices DESIGN.md §5 calls out."""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.bench.runners import (
    build_paper_cluster,
    default_profiles,
    measure_oneway,
)
from repro.bench.series import Series, SweepResult
from repro.core.packets import TransferMode
from repro.core.sampling import NetworkSampler, ProfileStore
from repro.core.split import dichotomy_split
from repro.core.strategies import HeteroSplitStrategy, MulticoreSplitStrategy, SingleRailStrategy
from repro.networks.profile import rail_profile
from repro.util.units import KiB, MiB, bytes_per_us_to_mbps, pow2_sizes


# --------------------------------------------------------------------- #
# A1 — dichotomy depth vs split accuracy
# --------------------------------------------------------------------- #

def run_a1_dichotomy_depth(
    size: int = 4 * MiB, depths: Sequence[int] = (1, 2, 4, 8, 16, 32)
) -> SweepResult:
    """Predicted-completion excess (%) of depth-limited dichotomy over the
    converged solution, for one 4 MiB split."""
    profiles = default_profiles()
    rails = [(profiles["myri10g"], 0.0), (profiles["quadrics"], 0.0)]
    converged = dichotomy_split(
        size, rails, TransferMode.RENDEZVOUS, max_iterations=60
    ).predicted_completion
    excess = []
    imbalance = []
    for depth in depths:
        res = dichotomy_split(
            size, rails, TransferMode.RENDEZVOUS, max_iterations=depth, tolerance=0.0
        )
        excess.append((res.predicted_completion / converged - 1.0) * 100.0)
        t = res.predicted_times
        imbalance.append(abs(t[0] - t[1]))
    return SweepResult(
        title=f"A1: dichotomy depth vs split quality ({size}B message)",
        x_sizes=list(depths),
        series=[
            Series("completion excess %", excess),
            Series("chunk-time imbalance us", imbalance),
        ],
        y_label="vs converged dichotomy",
        notes=["x axis is iteration count, not bytes"],
    )


# --------------------------------------------------------------------- #
# A2 — sampling grid density vs estimator error
# --------------------------------------------------------------------- #

def run_a2_sampling_grid(strides: Sequence[int] = (1, 2, 3)) -> SweepResult:
    """Max |estimate − ground truth| / ground truth (%) over off-grid
    sizes, when sampling keeps every ``stride``-th power of two."""
    truth = rail_profile("myri10g")
    probe_sizes = [3 * KiB, 5 * KiB, 48 * KiB, 300 * KiB, 3 * MiB, 12 * MiB]
    eager_err: List[float] = []
    dma_err: List[float] = []
    for stride in strides:
        eager_grid = pow2_sizes(4, truth.eager_limit)[::stride]
        dma_grid = pow2_sizes(4 * KiB, 16 * MiB)[::stride]
        if len(eager_grid) < 2 or len(dma_grid) < 2:
            raise ValueError(f"stride {stride} leaves too few samples")
        est = NetworkSampler(eager_sizes=eager_grid, dma_sizes=dma_grid).sample(
            truth
        )
        e_errs, d_errs = [], []
        for s in probe_sizes:
            if s <= truth.eager_limit:
                ref = truth.eager_oneway(s)
                e_errs.append(abs(est.transfer_time(s, TransferMode.EAGER) - ref) / ref)
            ref = truth.rdv_data_oneway(s)
            d_errs.append(
                abs(est.transfer_time(s, TransferMode.RENDEZVOUS) - ref) / ref
            )
        eager_err.append(max(e_errs) * 100.0)
        dma_err.append(max(d_errs) * 100.0)
    return SweepResult(
        title="A2: sampling grid stride vs estimator error",
        x_sizes=list(strides),
        series=[
            Series("max eager error %", eager_err),
            Series("max dma error %", dma_err),
        ],
        y_label="relative error vs ground truth",
        notes=["x axis is the grid stride (1 = every power of two)"],
    )


# --------------------------------------------------------------------- #
# A3 — idle prediction on/off under background traffic (Fig. 2 rule)
# --------------------------------------------------------------------- #

def run_a3_idle_prediction(
    size: int = 512 * KiB, busy_times: Sequence[int] = (0, 200, 1000, 5000, 50_000)
) -> SweepResult:
    """Transfer latency with the Myri rail pre-occupied for ``busy`` µs,
    with and without the Fig. 2 idle-prediction rule."""
    profiles = default_profiles()
    with_pred: List[float] = []
    without_pred: List[float] = []
    for busy in busy_times:
        for use, out in ((True, with_pred), (False, without_pred)):
            cluster = build_paper_cluster(
                HeteroSplitStrategy(rdv_threshold=32 * KiB, use_idle_prediction=use),
                profiles=profiles,
            )
            if busy:
                cluster.machines["node0"].nic_by_name("myri10g0").inject_busy(
                    float(busy)
                )
            out.append(measure_oneway(cluster, size).latency)
    return SweepResult(
        title=f"A3: idle prediction under background traffic ({size}B message)",
        x_sizes=list(busy_times),
        series=[
            Series("with idle prediction", with_pred),
            Series("without idle prediction", without_pred),
        ],
        y_label="one-way latency, us",
        notes=["x axis is the fast rail's pre-injected busy time, us"],
    )


# --------------------------------------------------------------------- #
# A4 — equation (1) sensitivity to the offloading cost TO
# --------------------------------------------------------------------- #

def run_a4_offload_cost(costs: Sequence[float] = (0.0, 3.0, 6.0, 12.0)) -> SweepResult:
    """Fig. 9 split crossover size as TO varies."""
    from repro.bench.experiments import fig9

    crossovers: List[float] = []
    best_reduction: List[float] = []
    for to in costs:
        sweep = fig9.run(offload_cost=to)
        myri = sweep[fig9.MYRI].values
        est = sweep[fig9.ESTIMATE].values
        crossover = 0
        for size, m, e in zip(sweep.x_sizes, myri, est):
            if e < m:
                crossover = size
                break
        crossovers.append(float(crossover))
        best_reduction.append(
            max((1.0 - e / m) * 100.0 for m, e in zip(myri, est))
        )
    return SweepResult(
        title="A4: offloading cost TO vs split viability",
        x_sizes=[int(c) for c in costs],
        series=[
            Series("crossover size B", crossovers),
            Series("best reduction %", best_reduction),
        ],
        y_label="equation (1) outcomes",
        notes=["x axis is TO in us"],
    )


# --------------------------------------------------------------------- #
# A5 — n-rail scaling
# --------------------------------------------------------------------- #

def run_a5_nrail(size: int = 8 * MiB) -> SweepResult:
    """Hetero-split bandwidth as rails are added (Myri → +Quadrics → +IB),
    against the theoretical aggregate of the rails present."""
    rail_sets: List[Tuple[str, ...]] = [
        ("myri10g",),
        ("myri10g", "quadrics"),
        ("myri10g", "quadrics", "infiniband"),
    ]
    measured: List[float] = []
    theoretical: List[float] = []
    for rails in rail_sets:
        profiles = default_profiles(rails)
        cluster = build_paper_cluster(
            HeteroSplitStrategy(rdv_threshold=32 * KiB),
            rails=rails,
            profiles=profiles,
        )
        msg = measure_oneway(cluster, size)
        measured.append(bytes_per_us_to_mbps(size / msg.latency))
        theoretical.append(
            sum(
                bytes_per_us_to_mbps(rail_profile(r).dma_rate)
                for r in rails
            )
        )
    return SweepResult(
        title=f"A5: n-rail scaling of hetero-split ({size}B message)",
        x_sizes=[len(r) for r in rail_sets],
        series=[
            Series("measured MB/s", measured),
            Series("theoretical aggregate MB/s", theoretical),
        ],
        y_label="bandwidth",
        notes=["x axis is the rail count"],
    )


# --------------------------------------------------------------------- #
# A6 — equation (1) estimation vs actually-measured multicore run
# --------------------------------------------------------------------- #

def run_a6_estimation_vs_measured(
    sizes: Sequence[int] = tuple(pow2_sizes(4 * KiB, 64 * KiB)),
) -> SweepResult:
    """What the paper could not show yet: the measured multicore eager
    split next to its equation-(1) estimate.  The gap is the receive-side
    serialization (one polling core copies both chunks) that the estimate
    ignores — the 'synchronization issues' of §IV-B."""
    from repro.bench.experiments import fig9

    est_sweep = fig9.run(sizes=sizes)
    profiles = default_profiles()
    measured: List[float] = []
    for size in sizes:
        cluster = build_paper_cluster(
            MulticoreSplitStrategy(rdv_threshold=128 * KiB), profiles=profiles
        )
        measured.append(measure_oneway(cluster, size).latency)
    return SweepResult(
        title="A6: multicore eager split - estimation vs measured",
        x_sizes=list(sizes),
        series=[
            Series("Myri-10G (single rail)", est_sweep[fig9.MYRI].values),
            Series("equation (1) estimate", est_sweep[fig9.ESTIMATE].values),
            Series("measured multicore run", measured),
        ],
        y_label="one-way latency, us",
        notes=[
            "measured >= estimate: the poll core serializes the two",
            "receive copies, which equation (1) does not model",
        ],
    )


# --------------------------------------------------------------------- #
# A7 — multicore receive-side progression (the paper's future work)
# --------------------------------------------------------------------- #

def run_a7_multicore_rx(
    sizes: Sequence[int] = tuple(pow2_sizes(4 * KiB, 64 * KiB)),
) -> SweepResult:
    """Measured multicore eager split with single-core vs multicore
    receive progression.  Spilling the second receive copy onto an idle
    core removes the receiver-side serialization, pulling the measured
    run towards the equation-(1) estimate — quantifying how much of the
    §IV-B overhead the paper's planned 'improved multithreading
    subsystem' could reclaim."""
    from repro.api.cluster import ClusterBuilder
    from repro.bench.experiments import fig9

    est_sweep = fig9.run(sizes=sizes)
    profiles = default_profiles()
    single_rx: List[float] = []
    multi_rx: List[float] = []
    for multicore, out in ((False, single_rx), (True, multi_rx)):
        for size in sizes:
            builder = ClusterBuilder.paper_testbed(
                strategy=MulticoreSplitStrategy(rdv_threshold=128 * KiB)
            ).sampling(profiles=profiles)
            if multicore:
                builder.multicore_rx(True)
            cluster = builder.build()
            out.append(measure_oneway(cluster, size).latency)
    return SweepResult(
        title="A7: multicore receive progression (future work, SIV-B)",
        x_sizes=list(sizes),
        series=[
            Series("equation (1) estimate", est_sweep[fig9.ESTIMATE].values),
            Series("measured, single-core rx", single_rx),
            Series("measured, multicore rx", multi_rx),
        ],
        y_label="one-way latency, us",
        notes=[
            "multicore rx removes the receive-side serialization and",
            "closes most of the gap to the equation (1) estimate",
        ],
    )


# --------------------------------------------------------------------- #
# A8 — stale sampling: a rail degrades after the §III-C pass
# --------------------------------------------------------------------- #

def run_a8_stale_sampling(
    size: int = 4 * MiB,
    degradations: Sequence[float] = (1.0, 0.75, 0.5, 0.25),
) -> SweepResult:
    """Hetero-split latency when the Myri rail's DMA rate silently drops
    to ``degradation × nominal`` *after* sampling.

    The paper samples once at launch; if a rail later degrades (cable
    renegotiation, PCIe contention), the stale curves mis-balance the
    split and the fast chunk finishes long after the slow one.
    Re-sampling restores the equal-completion property — quantifying how
    much the strategy's quality depends on profile freshness.
    """
    from repro.api.cluster import ClusterBuilder
    from repro.core.sampling import ProfileStore

    stale: List[float] = []
    fresh: List[float] = []
    nominal_profiles = default_profiles()
    for factor in degradations:
        if not 0 < factor <= 1:
            raise ValueError(f"degradation factor {factor} outside (0, 1]")
        degraded_rate = rail_profile("myri10g").dma_rate * factor
        rails = [
            rail_profile("myri10g", dma_rate=degraded_rate),
            rail_profile("quadrics"),
        ]
        resampled = ProfileStore.sample_rails(rails)
        for store, out in ((nominal_profiles, stale), (resampled, fresh)):
            builder = ClusterBuilder(strategy=HeteroSplitStrategy(rdv_threshold=32 * KiB))
            builder.add_node("node0").add_node("node1")
            builder.add_rail(rails[0], "node0", "node1")
            builder.add_rail(rails[1], "node0", "node1")
            builder.sampling(profiles=store)
            cluster = builder.build()
            out.append(measure_oneway(cluster, size).latency)
    return SweepResult(
        title=f"A8: stale vs fresh sampling under rail degradation ({size}B)",
        x_sizes=[int(f * 100) for f in degradations],
        series=[
            Series("stale profiles", stale),
            Series("re-sampled profiles", fresh),
        ],
        y_label="one-way latency, us",
        notes=["x axis is the degraded Myri DMA rate, % of nominal"],
    )


# --------------------------------------------------------------------- #
# A9 — sampling-noise robustness
# --------------------------------------------------------------------- #

def run_a9_sampling_noise(
    size: int = 4 * MiB,
    jitters: Sequence[float] = (0.0, 2.0, 5.0, 10.0, 20.0),
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
) -> SweepResult:
    """Hetero-split latency when the sampling measurements carried
    Gaussian jitter (median of 5 probes per point, like the real
    benchmarks).  Reported per jitter level: the mean and worst latency
    over several noise seeds, next to the noise-free baseline.

    The split ratio is a *ratio of interpolated medians*, so moderate
    noise largely cancels — the robustness that makes install-time
    sampling practical."""
    from repro.api.cluster import ClusterBuilder
    from repro.core.sampling import NoisySampler, ProfileStore

    rails = [rail_profile("myri10g"), rail_profile("quadrics")]
    baseline_cluster = ClusterBuilder.paper_testbed(
        strategy=HeteroSplitStrategy(rdv_threshold=32 * KiB)
    ).sampling(profiles=default_profiles()).build()
    baseline = measure_oneway(baseline_cluster, size).latency

    mean_lat: List[float] = []
    worst_lat: List[float] = []
    for jitter in jitters:
        lats: List[float] = []
        for seed in seeds:
            sampler = NoisySampler(jitter_pct=jitter, seed=seed)
            store = ProfileStore.sample_rails(rails, sampler=sampler)
            cluster = ClusterBuilder.paper_testbed(
                strategy=HeteroSplitStrategy(rdv_threshold=32 * KiB)
            ).sampling(profiles=store).build()
            lats.append(measure_oneway(cluster, size).latency)
        mean_lat.append(sum(lats) / len(lats))
        worst_lat.append(max(lats))
    return SweepResult(
        title=f"A9: hetero-split vs sampling noise ({size}B message)",
        x_sizes=[int(j) for j in jitters],
        series=[
            Series("mean latency", mean_lat),
            Series("worst latency", worst_lat),
            Series("noise-free baseline", [baseline] * len(jitters)),
        ],
        y_label="one-way latency, us",
        notes=[
            "x axis is the per-probe jitter sigma in %, median of 5 probes",
            f"{len(seeds)} noise seeds per level",
        ],
    )


# --------------------------------------------------------------------- #
# A10 — reactivity: polling vs spill vs interrupt event detection
# --------------------------------------------------------------------- #

def run_a10_reactivity(
    sizes: Sequence[int] = (4 * KiB, 16 * KiB, 64 * KiB),
) -> SweepResult:
    """One-way eager latency as the *receiver's* CPUs fill with compute.

    PIOMan picks the detection method by context (§III-A): with the
    polling core free the event is handled at polling cost; with idle
    cores it spills for free; with every core computing it falls back to
    an interrupt-based preemption (the topology's 6 µs).  The receiver's
    reactivity therefore degrades gracefully instead of collapsing."""
    from repro.api.cluster import ClusterBuilder
    from repro.core.strategies import SingleRailStrategy

    profiles = default_profiles()
    scenarios = {
        "receiver idle (polling)": 0,
        "poll core computing (spill)": 1,
        "all cores computing (interrupt)": 4,
    }
    series = []
    for label, busy_cores in scenarios.items():
        values: List[float] = []
        for size in sizes:
            cluster = (
                ClusterBuilder.paper_testbed(
                    strategy=SingleRailStrategy(
                        rail="myri10g", rdv_threshold=128 * KiB
                    )
                )
                .sampling(profiles=profiles)
                .build()
            )
            receiver = cluster.engines["node1"]
            for core in receiver.machine.cores[:busy_cores]:
                receiver.marcel.spawn_compute(
                    core, work_us=None, preemptable=True
                )
            cluster.sim.run(until=1.0)  # let the threads take their cores
            values.append(measure_oneway(cluster, size).latency - 1.0)
        series.append(Series(label, values))
    return SweepResult(
        title="A10: event-detection reactivity under receiver compute load",
        x_sizes=list(sizes),
        series=series,
        y_label="one-way eager latency, us",
        notes=[
            "polling == spill (idle cores are free to poll);",
            "interrupt adds the 6 us preemption window",
        ],
    )


# --------------------------------------------------------------------- #
# A11 — aggregation-window sensitivity
# --------------------------------------------------------------------- #

def run_a11_aggregation_window(
    seg_size: int = 2 * KiB,
    gaps: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0),
) -> SweepResult:
    """Completion of two small messages as the posting gap grows.

    Aggregation (Fig. 3's winner) depends on both packets sitting in the
    out-list when the scheduler activates.  With a gap, the first packet
    may already be on the wire when the second arrives; the batch — and
    its benefit — shrinks to that of plain dispatch.  This bounds how
    bursty an application must be for aggregation to engage."""
    from repro.api.cluster import ClusterBuilder
    from repro.bench.workloads import run_stream
    from repro.core.strategies import AdaptiveStrategy, GreedyStrategy

    profiles = default_profiles()
    adaptive: List[float] = []
    greedy: List[float] = []
    aggregated_flag: List[float] = []
    for gap in gaps:
        for strat, out in ((AdaptiveStrategy(), adaptive), (GreedyStrategy(), greedy)):
            cluster = (
                ClusterBuilder.paper_testbed(strategy=strat)
                .sampling(profiles=profiles)
                .build()
            )
            sends = [(0.0, seg_size, 0), (gap, seg_size, 1)]
            stream = run_stream(cluster, sends)
            out.append(stream.makespan_us)
            if isinstance(strat, AdaptiveStrategy):
                strategy = cluster.engine("node0").strategy
                aggregated_flag.append(float(strategy.aggregations > 0))
    return SweepResult(
        title=f"A11: aggregation window (2 x {seg_size}B, growing post gap)",
        x_sizes=[int(g * 1000) for g in gaps],  # ns to keep integer axis
        series=[
            Series("adaptive", adaptive),
            Series("greedy", greedy),
            Series("adaptive aggregated? (1=yes)", aggregated_flag),
        ],
        y_label="completion of both messages, us",
        notes=["x axis is the posting gap in ns (0 = same instant)"],
    )
