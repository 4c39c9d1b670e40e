"""Cluster assembly: nodes, rails, sampling, engines — one builder call.

:class:`ClusterBuilder` wires the whole stack in the right order:
machines → NICs/wires → sampling (once per technology) → engines with the
chosen strategy.  :meth:`ClusterBuilder.paper_testbed` reproduces the
paper's evaluation platform: two dual dual-core Opteron nodes joined by a
Myri-10G rail and a Quadrics rail (§IV).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.engine import NmadEngine
from repro.core.invariants import (
    InvariantMonitor,
    InvariantViolation,
    stuck_detail,
)
from repro.core.sampling import NetworkSampler, ProfileStore  # noqa: F401 (re-export)
from repro.core.strategies import Strategy, make_strategy
from repro.faults import FaultInjector, FaultSchedule, install_faults
from repro.hardware.machine import Machine
from repro.hardware.topology import CpuTopology, Fabric
from repro.networks.nic import Nic
from repro.networks.profile import NetworkProfile, rail_profile
from repro.networks.wire import Wire
from repro.obs import Hooks, Observability
from repro.simtime import Simulator
from repro.util.errors import ConfigurationError

StrategySpec = Union[str, Strategy, Callable[[], Strategy]]


@dataclass(frozen=True)
class RunResult:
    """What one :meth:`Cluster.run` call accomplished.

    Floats transparently to the final clock value, so code written
    against the old ``run() -> float`` contract keeps working via
    ``float(result)`` / format strings.
    """

    elapsed: float          #: simulated clock (µs) when the run stopped
    events_processed: int   #: events executed during this call
    faults_fired: int       #: fault actions injected so far (cumulative)

    def __float__(self) -> float:
        return self.elapsed

    def __repr__(self) -> str:
        return (
            f"<RunResult t={self.elapsed:.3f}us events={self.events_processed}"
            f" faults={self.faults_fired}>"
        )


def _resolve_strategy(spec: StrategySpec) -> Strategy:
    if isinstance(spec, Strategy):
        # A strategy instance may be given once but serve several nodes;
        # every engine needs its own (strategies hold per-engine state),
        # so hand out shallow copies, each attached by its engine.
        return copy.copy(spec)
    if isinstance(spec, str):
        return make_strategy(spec)
    return spec()


class Cluster:
    """A built cluster: simulator + machines + one engine per node."""

    def __init__(
        self,
        sim: Simulator,
        machines: Dict[str, Machine],
        engines: Dict[str, NmadEngine],
        profiles: ProfileStore,
        hooks: Hooks,
        observability: Observability,
    ) -> None:
        self.sim = sim
        self.machines = machines
        self.engines = engines
        self.profiles = profiles
        #: the hook stream every engine, NIC, switch and injector emits to
        self.hooks = hooks
        self._observability = observability
        #: armed by :func:`repro.faults.install_faults` (None = no faults)
        self.fault_injector: Optional[FaultInjector] = None
        #: cluster-wide invariant monitor (None = checking off, the default)
        self.invariants: Optional[InvariantMonitor] = None
        #: closed-loop calibration controller (None = drift defense off,
        #: the default; see docs/calibration.md)
        self.calibration: Optional[Any] = None
        #: the declarative description this cluster was built from, when
        #: it came through :meth:`ClusterBuilder.fabric` (None otherwise)
        self.fabric: Optional[Fabric] = None
        #: default collective-algorithm overrides for MPI worlds wrapping
        #: this cluster (set via :meth:`ClusterBuilder.collectives`)
        self.collectives: Dict[str, str] = {}

    def __repr__(self) -> str:
        return f"<Cluster nodes={sorted(self.machines)}>"

    @property
    def obs(self) -> Observability:
        """The obs read-outs (tracer, metrics, accuracy, collective
        profiler); with observability off they stay empty."""
        return self._observability

    def engine(self, node: str) -> NmadEngine:
        try:
            return self.engines[node]
        except KeyError:
            raise ConfigurationError(
                f"no node {node!r}; have {sorted(self.engines)}"
            ) from None

    def session(self, node: str) -> "Session":
        from repro.api.session import Session

        return Session(self.engine(node))

    def sessions(self, *nodes: str) -> Tuple["Session", ...]:
        """Sessions for the named nodes — or every node, sorted, when
        called with no arguments: ``s0, s1 = cluster.sessions()``."""
        names = nodes if nodes else tuple(sorted(self.engines))
        return tuple(self.session(name) for name in names)

    def run(self, until: Optional[float] = None) -> RunResult:
        """Advance the simulation (drain, or up to ``until`` µs).

        Returns a :class:`RunResult`; ``float(result)`` is the final
        clock value, matching the historical return.
        """
        before = self.sim.events_processed
        elapsed = self.sim.run(until=until)
        return RunResult(
            elapsed=elapsed,
            events_processed=self.sim.events_processed - before,
            faults_fired=(
                self.fault_injector.faults_fired if self.fault_injector else 0
            ),
        )

    def resample(self, rail: str, blend: float = 0.5) -> ProfileStore:
        """Re-sample one live rail online and swap the blended estimator
        into every engine.

        The paper samples once at launch; ablation A8 shows how much a
        silently degraded rail costs under stale profiles.  This is the
        calibration drift loop's re-sample: ``rail`` is a qualified NIC
        name (``"node0.myri10g0"``), measured with an
        :class:`~repro.core.sampling.OnlineSampler` that mirrors the
        live NIC's silent degradation onto the probes; the fresh curve
        is blended into its technology's estimator with weight ``blend``
        (``1.0`` replaces it outright).  The ping-pong runs on a
        *private* simulator, so in-flight traffic is quiesced, not
        disturbed.

        The engines' predictors are rebuilt, which also invalidates plan
        caches (they are keyed per predictor instance).
        """
        from repro.core.prediction import CompletionPredictor
        from repro.core.sampling import OnlineSampler

        if not 0.0 < blend <= 1.0:
            raise ConfigurationError(f"blend must be in (0, 1], got {blend}")
        nics = {
            nic.qualified_name: nic
            for machine in self.machines.values()
            for nic in machine.nics
        }
        nic = nics.get(rail)
        if nic is None:
            raise ConfigurationError(f"no rail {rail!r}; have {sorted(nics)}")
        tech = nic.profile.name
        fresh = OnlineSampler(nic).sample(nic.profile)
        old = self.profiles.estimators.get(tech)
        # Copy-on-write: the store may be shared (e.g. the cached
        # default_profiles), so never mutate it in place.
        store = ProfileStore(self.profiles.estimators)
        store.estimators[tech] = (
            fresh if old is None or blend == 1.0 else old.blend(fresh, blend)
        )
        self.profiles = store
        for engine in self.engines.values():
            engine.predictor = CompletionPredictor(
                store.estimators, hooks=self.hooks, node=engine.machine.name
            )
        return store

    # ------------------------------------------------------------------ #
    # observability front-door (see docs/observability.md)
    # ------------------------------------------------------------------ #

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Name-sorted counters/gauges/histograms at the current instant.

        Gauges (utilization, queue depths, predictor cache rates) are
        refreshed from the live cluster before snapshotting; counters and
        histograms accumulate as the simulation runs.
        """
        self.obs.sample_cluster(self)
        return self.obs.metrics.snapshot()

    def accuracy_snapshot(self) -> Dict[str, Any]:
        """Predicted-vs-actual transfer-time statistics (see
        :class:`repro.obs.PredictionAccuracy`)."""
        return self.obs.accuracy.snapshot()

    def accuracy_report(self) -> str:
        """Human-readable per-rail/per-size prediction-error table."""
        if not self.obs.on:
            return "prediction accuracy: telemetry disabled"
        return self.obs.accuracy.report()

    def calibration_snapshot(self) -> Dict[str, Any]:
        """JSON-able drift-defense state (observations, drift events,
        resamples, per-rail confidence, ladder transitions).  Raises when
        calibration was not enabled at build time."""
        if self.calibration is None:
            raise ConfigurationError(
                "calibration is off; build with ClusterBuilder.calibration()"
            )
        return self.calibration.snapshot()

    def calibration_report(self) -> str:
        """Human-readable drift-defense summary (see docs/calibration.md)."""
        if self.calibration is None:
            raise ConfigurationError(
                "calibration is off; build with ClusterBuilder.calibration()"
            )
        return self.calibration.report()

    def chrome_trace(self) -> Dict[str, Any]:
        """The run so far as a Chrome ``trace_event`` JSON object."""
        return self.obs.chrome_trace()

    def export_chrome_trace(self, target) -> int:
        """Write the Chrome trace to ``target`` (path or file object);
        returns the number of events written.  Load the file in
        ``chrome://tracing`` or https://ui.perfetto.dev."""
        return self.obs.export_chrome_trace(target)

    # ------------------------------------------------------------------ #
    # drain accounting (see docs/chaos.md)
    # ------------------------------------------------------------------ #

    def drain_report(self) -> List[str]:
        """Diagnoses for every send still non-terminal, across all nodes.

        Empty after a healthy drain; each entry names a message that
        neither completed nor degraded — a silent hang made visible.
        """
        out: List[str] = []
        for name in sorted(self.engines):
            out.extend(self.engines[name].stuck_messages())
        return out

    def check_drain(self) -> None:
        """Audit the drained cluster: every send terminal, NICs quiet.

        Routes through the invariant monitor when one is attached (the
        full ``drain-no-stuck`` / ``nic-tx-sanity`` audit, with scenario
        context in the violation); otherwise performs the stuck-message
        check directly.  Raises :class:`InvariantViolation` on failure.
        """
        if self.invariants is not None:
            self.invariants.check_drain(self)
            return
        stuck = self.drain_report()
        if stuck:
            raise InvariantViolation(
                "drain-no-stuck", stuck_detail(stuck), self.sim.now
            )

    def drain_stuck(self) -> List[Any]:
        """Degrade every still-pending send on every node (see
        :meth:`NmadEngine.drain_stuck`); returns the drained messages."""
        drained: List[Any] = []
        for name in sorted(self.engines):
            drained.extend(self.engines[name].drain_stuck())
        return drained


class ClusterBuilder:
    """Fluent builder for simulated multirail clusters."""

    def __init__(self, strategy: StrategySpec = "hetero_split") -> None:
        self.sim = Simulator()
        self._strategy = strategy
        self._per_node_strategy: Dict[str, StrategySpec] = {}
        self._machines: Dict[str, Machine] = {}
        self._rails: List[Tuple[str, str, NetworkProfile]] = []
        #: (nodes, profile, latency, stage spec) — spec {} = flat switch,
        #: {"pod_size": ..., "spines": ...} = two-stage fat tree
        self._switches: List[
            Tuple[Tuple[str, ...], NetworkProfile, float, Dict[str, Any]]
        ] = []
        self._fabric: Optional[Fabric] = None
        self._collectives: Dict[str, str] = {}
        self._sampler: Optional[NetworkSampler] = None
        self._profiles: Optional[ProfileStore] = None
        self._multicore_rx = False
        self._faults: Optional[FaultSchedule] = None
        self._resilience: Dict[str, Any] = {}
        self._observability = False
        self._invariants = False
        self._calibration: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------ #
    # configuration
    # ------------------------------------------------------------------ #

    def add_node(
        self,
        name: str,
        topology: Optional[CpuTopology] = None,
        memcpy_rate: float = 3000.0,
    ) -> "ClusterBuilder":
        if name in self._machines:
            raise ConfigurationError(f"duplicate node {name!r}")
        self._machines[name] = Machine(
            self.sim, name, topology=topology, memcpy_rate=memcpy_rate
        )
        return self

    def add_rail(
        self,
        technology: Union[str, NetworkProfile],
        node_a: str,
        node_b: str,
        **overrides,
    ) -> "ClusterBuilder":
        """Join two nodes with one rail of the given technology (a name
        in :data:`~repro.networks.profile.RAIL_PROFILES`, whose fields
        ``overrides`` replace, or a :class:`NetworkProfile`)."""
        profile = self._rail_profile(technology, overrides)
        for node in (node_a, node_b):
            if node not in self._machines:
                raise ConfigurationError(f"unknown node {node!r}; add_node first")
        self._rails.append((node_a, node_b, profile))
        return self

    def add_switch(
        self,
        technology: Union[str, NetworkProfile],
        nodes: List[str],
        switch_latency: float = 0.3,
        **overrides,
    ) -> "ClusterBuilder":
        """Join several nodes through one shared switch (one NIC each).

        Unlike :meth:`add_rail`'s dedicated point-to-point links, flows
        through a switch contend for the destination's port — the incast
        behaviour of real (e.g. T2K-style) fabrics.
        """
        profile = self._switch_profile("switch", technology, nodes, overrides)
        self._switches.append((tuple(nodes), profile, switch_latency, {}))
        return self

    def add_fat_tree(
        self,
        technology: Union[str, NetworkProfile],
        nodes: List[str],
        switch_latency: float = 0.3,
        pod_size: int = 4,
        spines: int = 2,
        adaptive: bool = True,
        **overrides,
    ) -> "ClusterBuilder":
        """Join several nodes through a two-stage fat tree (one NIC each).

        Like :meth:`add_switch` plus the multi-stage effects:
        ``pod_size`` nodes share an edge pod (intra-pod traffic behaves
        exactly like a flat switch), and inter-pod packets serialize on
        one of ``spines`` shared uplinks chosen by a static flow hash —
        see :class:`repro.networks.switch.FatTreeSwitch`.  ``adaptive``
        re-routes flows off down/degraded spines (the default; identical
        to the static hash until a fabric fault fires).
        """
        profile = self._switch_profile("fat tree", technology, nodes, overrides)
        if pod_size < 1:
            raise ConfigurationError(f"pod_size must be >= 1, got {pod_size}")
        if spines < 1:
            raise ConfigurationError(f"spines must be >= 1, got {spines}")
        self._switches.append(
            (
                tuple(nodes),
                profile,
                switch_latency,
                {"pod_size": pod_size, "spines": spines, "adaptive": adaptive},
            )
        )
        return self

    @staticmethod
    def _rail_profile(
        technology: Union[str, NetworkProfile], overrides: Dict[str, Any]
    ) -> NetworkProfile:
        """Take a rail's profile as given, or resolve its technology name
        (with its overrides)."""
        if not isinstance(technology, NetworkProfile):
            return rail_profile(technology, **overrides)
        if overrides:
            raise ConfigurationError(
                "profile overrides only apply to a technology name"
            )
        return technology

    def _switch_profile(
        self,
        kind: str,
        technology: Union[str, NetworkProfile],
        nodes: List[str],
        overrides: Dict[str, Any],
    ) -> NetworkProfile:
        """Check a switch's node list (known nodes, one port each) and
        resolve its profile."""
        profile = self._rail_profile(technology, overrides)
        if len(set(nodes)) < 2:
            raise ConfigurationError(f"a {kind} needs at least two distinct nodes")
        if len(set(nodes)) != len(nodes):
            twice = sorted({n for n in nodes if nodes.count(n) > 1})
            raise ConfigurationError(
                f"a {kind} has one port per node; listed twice: {twice}"
            )
        for node in nodes:
            if node not in self._machines:
                raise ConfigurationError(f"unknown node {node!r}; add_node first")
        return profile

    def fabric(self, fabric: Union[Fabric, Dict[str, Any]]) -> "ClusterBuilder":
        """Materialize a :class:`~repro.hardware.topology.Fabric`.

        Adds every named node and wires each :class:`FabricRail` as a
        full wire mesh, one flat switch, or one fat tree — the
        declarative front-door over :meth:`add_node` / :meth:`add_rail` /
        :meth:`add_switch` / :meth:`add_fat_tree`.  The built
        :class:`Cluster` remembers the description as ``cluster.fabric``
        (``cli topology`` and :meth:`MpiWorld.from_cluster` read it).
        """
        if isinstance(fabric, dict):
            fabric = Fabric.from_dict(fabric)
        if not isinstance(fabric, Fabric):
            raise ConfigurationError(
                f"fabric() wants a Fabric or its dict form, got {fabric!r}"
            )
        for name in fabric.nodes:
            self.add_node(name)
        nodes = list(fabric.nodes)
        # Wire rails go pair by pair, each pair over every wire rail: a
        # node's NICs then number in peer order (MpiWorld.create's mesh).
        wires = [rail for rail in fabric.rails if rail.kind == "wire"]
        for i, node_a in enumerate(nodes):
            for node_b in nodes[i + 1:]:
                for rail in wires:
                    self.add_rail(rail.technology, node_a, node_b, **rail.overrides)
        for rail in fabric.rails:
            if rail.kind == "switch":
                self.add_switch(
                    rail.technology,
                    nodes,
                    switch_latency=rail.switch_latency,
                    **rail.overrides,
                )
            elif rail.kind == "fat_tree":
                self.add_fat_tree(
                    rail.technology,
                    nodes,
                    switch_latency=rail.switch_latency,
                    pod_size=fabric.pod_size_of(rail),
                    spines=rail.spines,
                    adaptive=rail.adaptive,
                    **rail.overrides,
                )
        self._fabric = fabric
        return self

    def collectives(self, overrides: Dict[str, str]) -> "ClusterBuilder":
        """Default collective-algorithm choices for MPI worlds over this
        cluster (``{"alltoall": "ring", ...}``; validated now — unknown
        names raise with the valid choices listed)."""
        from repro.api.collectives import validate_overrides

        self._collectives = validate_overrides(overrides)
        return self

    def strategy_for(self, node: str, strategy: StrategySpec) -> "ClusterBuilder":
        """Override the strategy for one node (defaults apply elsewhere).
        The node may be added later; :meth:`build` rejects a name that
        no node has."""
        self._per_node_strategy[node] = strategy
        return self

    def sampling(
        self,
        sampler: Optional[NetworkSampler] = None,
        profiles: Optional[ProfileStore] = None,
    ) -> "ClusterBuilder":
        """Control the §III-C sampling pass, which every build runs.

        ``sampler`` measures the rails (default: a
        :class:`~repro.core.sampling.NetworkSampler`); ``profiles``
        short-circuits measurement with pre-recorded tables (the real
        system loads its sampling files at launch, too).
        """
        self._sampler = sampler
        self._profiles = profiles
        return self

    def multicore_rx(self, enabled: bool = True) -> "ClusterBuilder":
        """Let receive-side progression spill to idle cores (paper's
        future-work improvement; ablation A7 quantifies it)."""
        self._multicore_rx = enabled
        return self

    def faults(
        self, schedule: Union[FaultSchedule, Dict[str, Any], None]
    ) -> "ClusterBuilder":
        """Arm a fault schedule when the cluster is built.

        Accepts a :class:`~repro.faults.FaultSchedule`, its ``to_dict``
        form (the config-file representation), or ``None`` to clear a
        previously set schedule.
        """
        if schedule is None:
            self._faults = None
        elif isinstance(schedule, FaultSchedule):
            self._faults = schedule
        elif isinstance(schedule, dict):
            self._faults = FaultSchedule.from_dict(schedule)
        else:
            raise ConfigurationError(
                f"faults() wants a FaultSchedule or dict, got {schedule!r}"
            )
        return self

    def resilience(
        self,
        timeout: Union[float, str, None] = None,
        max_retries: int = 8,
    ) -> "ClusterBuilder":
        """Configure every engine's timeout/retry behaviour.

        ``timeout`` enables the per-message watchdog (``None`` keeps it
        off — the default, and the bit-identical healthy path).  Time
        values accept ``"200us"`` / ``"1.5ms"`` strings.  See
        :class:`~repro.core.engine.NmadEngine` for the full contract.
        """
        self._resilience = {"timeout": timeout, "max_retries": max_retries}
        return self

    def observability(self, enabled: bool = True) -> "ClusterBuilder":
        """Attach a cluster-wide :class:`repro.obs.Observability` bundle:
        all four surfaces, or none.

        Off by default — and the disabled path is bit-identical to a
        build without this call (the surfaces are record-only hook
        subscribers).  To record one surface alone, subscribe it to the
        built cluster's ``hooks`` instead.
        """
        self._observability = bool(enabled)
        return self

    def invariants(self, enabled: bool = True) -> "ClusterBuilder":
        """Attach a cluster-wide :class:`repro.core.invariants.InvariantMonitor`.

        Off by default — and, like :meth:`observability`, the disabled
        path is bit-identical to a build without this call: the monitor
        is purely passive (it reads state and raises, never schedules
        events), so enabling it moves no simulated timestamp either.
        A violation's trail holds the monitor's last
        :data:`~repro.core.invariants.DEFAULT_TRAIL_DEPTH` observations.
        """
        self._invariants = bool(enabled)
        return self

    def calibration(
        self, enabled: bool = True, min_samples: int = 3, cooldown: float = 300.0
    ) -> "ClusterBuilder":
        """Attach the closed-loop drift defense (docs/calibration.md).

        Off by default — and, like :meth:`observability`, the disabled
        path is bit-identical to a build without this call.  *Unlike*
        observability, an **enabled** controller deliberately changes
        planning: it watches per-rail prediction error, re-samples
        drifting rails online, and degrades the split strategy along the
        FULL → PARTIAL → SINGLE fallback ladder while confidence is low.

        ``min_samples`` (observations a size band needs before it may
        trigger) and ``cooldown`` (simulated µs before the same rail may
        trigger again) configure the
        :class:`repro.core.calibration.DriftDetector`.
        """
        self._calibration = (
            {"min_samples": min_samples, "cooldown": cooldown} if enabled else None
        )
        return self

    # ------------------------------------------------------------------ #
    # build
    # ------------------------------------------------------------------ #

    def build(self) -> Cluster:
        from repro.networks.switch import FatTreeSwitch, Switch

        if not self._machines:
            raise ConfigurationError("cluster has no nodes")
        if not self._rails and not self._switches:
            raise ConfigurationError("cluster has no rails")
        unknown = sorted(set(self._per_node_strategy) - set(self._machines))
        if unknown:
            raise ConfigurationError(
                f"per-node strategy for unknown node(s) {unknown}; "
                f"known: {sorted(self._machines)}"
            )
        rail_count: Dict[str, int] = {name: 0 for name in self._machines}
        for node_a, node_b, profile in self._rails:
            idx_a, idx_b = rail_count[node_a], rail_count[node_b]
            nic_a = Nic(
                self._machines[node_a], profile, name=f"{profile.name}{idx_a}"
            )
            nic_b = Nic(
                self._machines[node_b], profile, name=f"{profile.name}{idx_b}"
            )
            Wire(nic_a, nic_b)
            rail_count[node_a] += 1
            rail_count[node_b] += 1
        for s_idx, (nodes, profile, latency, stages) in enumerate(self._switches):
            if stages:
                switch: Switch = FatTreeSwitch(
                    name=f"fattree{s_idx}",
                    switch_latency=latency,
                    pod_size=stages["pod_size"],
                    spines=stages["spines"],
                    adaptive=stages.get("adaptive", True),
                )
            else:
                switch = Switch(name=f"switch{s_idx}", switch_latency=latency)
            for node in nodes:
                idx = rail_count[node]
                switch.attach(
                    Nic(
                        self._machines[node],
                        profile,
                        name=f"{profile.name}{idx}",
                    )
                )
                rail_count[node] += 1

        profiles = self._profiles
        if profiles is None:
            rails = [p for _, _, p in self._rails]
            rails += [p for _, p, _, _ in self._switches]
            profiles = ProfileStore.sample_rails(rails, sampler=self._sampler)

        # One hook stream per cluster.  Subscription order is delivery
        # order: the obs surfaces record a fact before the monitor checks
        # it, and the drift feed (install_calibration) comes last.
        hooks = Hooks()
        obs = Observability(self._observability)
        obs.subscribe(hooks)
        inv = InvariantMonitor() if self._invariants else None
        if inv is not None:
            hooks.subscribe(inv)
        engines: Dict[str, NmadEngine] = {}
        for name, machine in self._machines.items():
            spec = self._per_node_strategy.get(name, self._strategy)
            engines[name] = NmadEngine(
                machine,
                strategy=_resolve_strategy(spec),
                estimators=profiles.estimators,
                multicore_rx=self._multicore_rx,
                hooks=hooks,
                **self._resilience,
            )
        cluster = Cluster(self.sim, self._machines, engines, profiles, hooks, obs)
        cluster.invariants = inv
        cluster.fabric = self._fabric
        cluster.collectives = dict(self._collectives)
        if self._calibration is not None:
            from repro.core.calibration import (
                CalibrationController,
                install_calibration,
            )

            install_calibration(
                cluster, CalibrationController(**self._calibration)
            )
        if self._faults is not None:
            install_faults(cluster, self._faults)
        return cluster

    # ------------------------------------------------------------------ #
    # canned testbeds
    # ------------------------------------------------------------------ #

    @classmethod
    def paper_testbed(
        cls,
        strategy: StrategySpec = "hetero_split",
        rails: Tuple[str, ...] = ("myri10g", "quadrics"),
    ) -> "ClusterBuilder":
        """The §IV platform: two dual dual-core nodes, Myri-10G + Quadrics.

        ``rails`` can be widened (e.g. ``("myri10g", "quadrics",
        "infiniband")``) for the n-rail ablations.
        """
        builder = cls(strategy=strategy)
        builder.add_node("node0", topology=CpuTopology.paper_testbed())
        builder.add_node("node1", topology=CpuTopology.paper_testbed())
        for rail in rails:
            builder.add_rail(rail, "node0", "node1")
        return builder
