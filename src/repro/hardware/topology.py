"""Hierarchical CPU topology (sockets × cores), signalling costs, and
fabric-scale network descriptions.

Marcel "was carefully designed to ... efficiently exploit hierarchical
architectures" (paper §III-A).  For the strategy, the observable part of
that hierarchy is the *cost of poking another core*.  The paper measures
the end-to-end offload cost at 3 µs (6 µs when the target thread must be
preempted by a signal, §III-D); those are the machine-wide costs here,
the same whichever socket the target core sits on.

The second half of this module is the :class:`Fabric` description layer:
a declarative picture of an N-node multirail testbed — named node set
plus one :class:`FabricRail` per rail technology, each either a full mesh
of back-to-back wires (the paper's two-node testbed generalized), one
flat shared switch, or a two-stage fat tree with per-uplink contention
(the T2K-style clusters of the paper's introduction).  A ``Fabric`` holds
no simulator state; :meth:`repro.api.cluster.ClusterBuilder.fabric`
materializes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.util.errors import ConfigurationError

#: Paper §III-D: communication between the strategy and a remote core.
DEFAULT_SIGNAL_COST_US: float = 3.0
#: Paper §III-D: extra cost when a running thread must be preempted.
DEFAULT_PREEMPT_COST_US: float = 6.0


@dataclass(frozen=True)
class CpuTopology:
    """Socket/core layout plus inter-core signalling cost model.

    The default layout is the paper's testbed: a *dual dual-core Opteron*
    node (2 sockets × 2 cores).

    ``signal_cost_us`` is the cost of notifying an **idle** remote core
    that a send request is registered (tasklet wake-up, §III-D: 3 µs);
    ``preempt_cost_us`` is the cost when the remote core runs a computing
    thread that must be preempted by a signal (6 µs).
    """

    sockets: int = 2
    cores_per_socket: int = 2
    signal_cost_us: float = DEFAULT_SIGNAL_COST_US
    preempt_cost_us: float = DEFAULT_PREEMPT_COST_US

    def __post_init__(self) -> None:
        if self.sockets < 1 or self.cores_per_socket < 1:
            raise ConfigurationError(
                f"topology needs >=1 socket and core, got "
                f"{self.sockets}x{self.cores_per_socket}"
            )
        if self.signal_cost_us < 0 or self.preempt_cost_us < 0:
            raise ConfigurationError("signalling costs must be >= 0")

    @property
    def total_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    def socket_of(self, core_id: int) -> int:
        """Socket index of a global core id (cores numbered socket-major)."""
        if not 0 <= core_id < self.total_cores:
            raise ConfigurationError(
                f"core id {core_id} outside 0..{self.total_cores - 1}"
            )
        return core_id // self.cores_per_socket

    def core_ids(self) -> Iterator[int]:
        return iter(range(self.total_cores))

    def signal_cost(self, src: int, dst: int, preempt: bool = False) -> float:
        """Cost (µs) for core ``src`` to hand work to core ``dst``.

        ``preempt=True`` models the case where ``dst`` runs a computing
        thread that must be interrupted by a signal.  Signalling oneself is
        free — the strategy simply keeps the chunk on the local core.
        """
        if src == dst:
            return 0.0
        return self.preempt_cost_us if preempt else self.signal_cost_us

    @classmethod
    def paper_testbed(cls) -> "CpuTopology":
        """The evaluation platform: dual dual-core Opteron (§IV)."""
        return cls(sockets=2, cores_per_socket=2)

    @classmethod
    def flat(cls, cores: int) -> "CpuTopology":
        """A single-socket machine with ``cores`` cores (for ablations)."""
        return cls(sockets=1, cores_per_socket=cores)


# --------------------------------------------------------------------- #
# fabric-scale descriptions (N nodes, per-rail switch graphs)
# --------------------------------------------------------------------- #

#: fabric rail kinds understood by the builder
RAIL_KINDS = ("wire", "switch", "fat_tree")


@dataclass(frozen=True)
class FabricRail:
    """One rail technology of a fabric and how its links are arranged.

    ``kind``:

    * ``"wire"`` — dedicated back-to-back links between every node pair
      (the paper's testbed shape; NIC count grows as n-1 per node);
    * ``"switch"`` — one flat shared switch, one NIC per node, output
      ports contended (:class:`repro.networks.switch.Switch`);
    * ``"fat_tree"`` — two-stage fat tree: per-pod edge switching plus
      ``spines`` contended spine uplinks
      (:class:`repro.networks.switch.FatTreeSwitch`).

    ``pod_size`` (fat tree only) is nodes per edge pod; 0 picks a
    near-square layout at build time.  ``adaptive`` (fat tree only)
    enables health-aware spine selection: flows hashed onto a
    down/degraded spine deterministically re-route to a healthy one
    (bit-identical to the static ECMP hash while no fabric fault has
    fired).  ``overrides`` replace profile fields, as in
    :meth:`ClusterBuilder.add_rail`.
    """

    technology: str
    kind: str = "switch"
    switch_latency: float = 0.3
    pod_size: int = 0
    spines: int = 2
    adaptive: bool = True
    overrides: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in RAIL_KINDS:
            raise ConfigurationError(
                f"unknown fabric rail kind {self.kind!r}; known: {RAIL_KINDS}"
            )
        if self.switch_latency < 0:
            raise ConfigurationError(
                f"negative switch latency: {self.switch_latency}"
            )
        if self.pod_size < 0:
            raise ConfigurationError(f"negative pod_size: {self.pod_size}")
        if self.spines < 1:
            raise ConfigurationError(f"fat tree needs >= 1 spine: {self.spines}")
        # freeze the overrides mapping so the dataclass stays hashable-ish
        object.__setattr__(self, "overrides", dict(self.overrides))

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"driver": self.technology, "kind": self.kind}
        if self.switch_latency != 0.3:
            out["switch_latency"] = self.switch_latency
        if self.kind == "fat_tree":
            if self.pod_size:
                out["pod_size"] = self.pod_size
            out["spines"] = self.spines
            if not self.adaptive:
                out["adaptive"] = False
        if self.overrides:
            out["overrides"] = dict(self.overrides)
        return out

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "FabricRail":
        known = {
            "driver", "technology", "kind", "switch_latency", "pod_size",
            "spines", "adaptive", "overrides",
        }
        unknown = set(spec) - known
        if unknown:
            raise ConfigurationError(
                f"unknown fabric rail keys {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        technology = spec.get("driver", spec.get("technology"))
        if not technology:
            raise ConfigurationError(f"fabric rail needs a 'driver': {spec!r}")
        return cls(
            technology=str(technology),
            kind=str(spec.get("kind", "switch")),
            switch_latency=float(spec.get("switch_latency", 0.3)),
            pod_size=int(spec.get("pod_size", 0)),
            spines=int(spec.get("spines", 2)),
            adaptive=bool(spec.get("adaptive", True)),
            overrides=dict(spec.get("overrides", {})),
        )


@dataclass(frozen=True)
class Fabric:
    """A declarative N-node multirail testbed: node names + rails.

    Purely descriptive — building the simulator objects is
    :meth:`ClusterBuilder.fabric`'s job.  The default construction is the
    paper's two-node testbed (:meth:`paper_testbed`), so existing
    configs and tests keep working unchanged.
    """

    nodes: Tuple[str, ...]
    rails: Tuple[FabricRail, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise ConfigurationError(
                f"a fabric needs >= 2 nodes, got {len(self.nodes)}"
            )
        if len(set(self.nodes)) != len(self.nodes):
            raise ConfigurationError(f"duplicate fabric node names: {self.nodes}")
        if not self.rails:
            raise ConfigurationError("a fabric needs >= 1 rail")
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "rails", tuple(self.rails))

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def technologies(self) -> Tuple[str, ...]:
        """Rail technologies in declaration order, deduplicated."""
        seen: List[str] = []
        for rail in self.rails:
            if rail.technology not in seen:
                seen.append(rail.technology)
        return tuple(seen)

    def pod_size_of(self, rail: FabricRail) -> int:
        """The effective pod size of a fat-tree rail (0 = near-square)."""
        if rail.pod_size:
            return min(rail.pod_size, self.size)
        pods = 2
        while pods * pods < self.size:
            pods += 1
        return max(1, (self.size + pods - 1) // pods)

    def with_node_names(self, names: Sequence[str]) -> "Fabric":
        """The same rail layout over a renamed node set (e.g. MPI ranks)."""
        if len(names) != len(self.nodes):
            raise ConfigurationError(
                f"fabric has {len(self.nodes)} nodes, got {len(names)} names"
            )
        return Fabric(nodes=tuple(names), rails=self.rails)

    # ------------------------------------------------------------------ #
    # canned shapes
    # ------------------------------------------------------------------ #

    @classmethod
    def paper_testbed(
        cls, rails: Sequence[str] = ("myri10g", "quadrics")
    ) -> "Fabric":
        """Two nodes wired back-to-back — the §IV platform."""
        return cls(
            nodes=("node0", "node1"),
            rails=tuple(FabricRail(technology=r, kind="wire") for r in rails),
        )

    @classmethod
    def full_mesh(
        cls,
        n: int,
        rails: Sequence[str] = ("myri10g", "quadrics"),
        prefix: str = "node",
    ) -> "Fabric":
        """N nodes, dedicated point-to-point wires per pair and rail
        (:meth:`MpiWorld.create`'s default world)."""
        return cls(
            nodes=tuple(f"{prefix}{i}" for i in range(n)),
            rails=tuple(FabricRail(technology=r, kind="wire") for r in rails),
        )

    @classmethod
    def flat(
        cls,
        n: int,
        rails: Sequence[str] = ("myri10g", "quadrics"),
        switch_latency: float = 0.3,
        prefix: str = "node",
    ) -> "Fabric":
        """N nodes hanging off one flat switch per rail technology."""
        return cls(
            nodes=tuple(f"{prefix}{i}" for i in range(n)),
            rails=tuple(
                FabricRail(
                    technology=r, kind="switch", switch_latency=switch_latency
                )
                for r in rails
            ),
        )

    @classmethod
    def fat_tree(
        cls,
        n: int,
        rails: Sequence[str] = ("myri10g", "quadrics"),
        pod_size: int = 0,
        spines: int = 2,
        switch_latency: float = 0.3,
        prefix: str = "node",
        adaptive: bool = True,
    ) -> "Fabric":
        """N nodes behind a two-stage fat tree per rail technology."""
        return cls(
            nodes=tuple(f"{prefix}{i}" for i in range(n)),
            rails=tuple(
                FabricRail(
                    technology=r,
                    kind="fat_tree",
                    switch_latency=switch_latency,
                    pod_size=pod_size,
                    spines=spines,
                    adaptive=adaptive,
                )
                for r in rails
            ),
        )

    # ------------------------------------------------------------------ #
    # serialization (the config file `fabric:` section)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        return {
            "nodes": list(self.nodes),
            "rails": [rail.to_dict() for rail in self.rails],
        }

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "Fabric":
        known = {"nodes", "prefix", "rails"}
        unknown = set(spec) - known
        if unknown:
            raise ConfigurationError(
                f"unknown fabric keys {sorted(unknown)}; known: {sorted(known)}"
            )
        nodes_spec = spec.get("nodes")
        prefix = str(spec.get("prefix", "node"))
        if isinstance(nodes_spec, int):
            nodes = tuple(f"{prefix}{i}" for i in range(nodes_spec))
        elif isinstance(nodes_spec, (list, tuple)) and nodes_spec:
            nodes = tuple(str(n) for n in nodes_spec)
        else:
            raise ConfigurationError(
                f"fabric 'nodes' must be a count or a non-empty name list; "
                f"got {nodes_spec!r}"
            )
        rails_spec = spec.get("rails")
        if not rails_spec:
            raise ConfigurationError("fabric needs a non-empty 'rails' list")
        return cls(
            nodes=nodes,
            rails=tuple(FabricRail.from_dict(r) for r in rails_spec),
        )

    # ------------------------------------------------------------------ #
    # rendering (the `cli topology` view)
    # ------------------------------------------------------------------ #

    def describe(self, profiles: Optional[Mapping[str, Any]] = None) -> str:
        """ASCII picture of the fabric: nodes, per-rail link graphs, and
        (when sampled ``profiles`` are given) per-link rate estimates."""
        n = self.size
        lines = [f"fabric: {n} nodes"]
        if n <= 12:
            lines.append("  " + "  ".join(self.nodes))
        else:
            lines.append(
                f"  {self.nodes[0]} .. {self.nodes[-1]} ({n} nodes)"
            )
        for rail in self.rails:
            est = (profiles or {}).get(rail.technology)
            rate = ""
            if est is not None:
                plateau = est.plateau_bandwidth()
                rate = f", ~{plateau:.0f} B/us/link plateau"
            if rail.kind == "wire":
                links = n * (n - 1) // 2
                lines.append(
                    f"  rail {rail.technology:<10} wire mesh: {links} "
                    f"dedicated link(s){rate}"
                )
            elif rail.kind == "switch":
                lines.append(
                    f"  rail {rail.technology:<10} flat switch: {n} ports, "
                    f"latency {rail.switch_latency}us{rate}"
                )
            else:
                pod = self.pod_size_of(rail)
                pods = (n + pod - 1) // pod
                lines.append(
                    f"  rail {rail.technology:<10} fat tree: {pods} pod(s) x "
                    f"{pod} node(s), {rail.spines} spine uplink(s), "
                    f"latency {rail.switch_latency}us/stage{rate}"
                )
        return "\n".join(lines)
