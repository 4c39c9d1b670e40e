"""Shared switches: one rail fabric connecting many nodes.

The paper's testbed wires its two nodes back-to-back (:class:`Wire`), but
the multirail clusters its introduction motivates — the T2K's 4-link
InfiniBand — run through switches, where flows *share* ports.  A
:class:`Switch` connects one NIC of one technology per node and models
the piece a wire cannot: **output-port contention**.

Forwarding model (virtual cut-through):

* the first byte of a packet reaches the switch ``switch_latency`` µs
  after the source NIC starts transmitting;
* the destination port drains one packet at the link rate
  (``profile.dma_rate``); a packet starts draining at
  ``max(first byte in, port free)``, so an uncontended transfer pays
  only the extra switch latency (cut-through), while simultaneous
  senders to one node serialize at the output port — the incast effect.

This module is the one owner of routing: which port, pod and spine a
packet takes, and whether that path is alive.  Both switch kinds share
one :meth:`Switch.transmit` pipeline (edge links, the stages between
the edges, the output port); a :class:`FatTreeSwitch` contributes only
its spine stage.  :meth:`Switch.path_alive` answers liveness from the
same state, and :meth:`Switch.link_targets` /
:meth:`FatTreeSwitch.spine_targets` name what a fault rule addresses.

The engine is fabric-agnostic: both :class:`Wire` and :class:`Switch`
expose ``peers_of(nic)``, ``transmit(src, transfer)`` and
``path_alive(nic, peer_node)`` (transfers through a switch carry their
destination node, which the engine's protocol constructors always set).

Fabric faults (``docs/fabric-faults.md``): a switch is a fault domain of
its own.  Per-port *links* (keyed by attached node name) can go down —
packets to or from a dead link are discarded at the edge, the sender's
watchdog recovers them — or degrade (output drain stretched by
``1/bw_factor`` plus extra delivery latency).  A :class:`FatTreeSwitch`
additionally exposes per-*spine* faults: a down spine serializes nothing
(packets hashed onto it are discarded at the edge, never queued), and a
degraded spine drains slower.  All fault state starts empty/healthy and
every fault adjustment is branch-guarded, so a run with no fabric fault
armed is bit-identical to one built before this surface existed.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.util.errors import ConfigurationError, ProtocolError

from repro.networks.nic import Nic
from repro.networks.transfer import Transfer


class Switch:
    """A shared fabric for one technology, one port per node.

    Each attached NIC owns the switch it transmits into (``Nic.wire``),
    so the switch holds its ports weakly.
    """

    def __init__(self, name: str = "switch", switch_latency: float = 0.3) -> None:
        if switch_latency < 0:
            raise ConfigurationError(f"negative switch latency: {switch_latency}")
        self.name = name
        self.switch_latency = switch_latency
        #: attached NICs by node name, in attach order (weak links)
        self._ports: Dict[str, Callable[[], Optional[Nic]]] = {}
        #: per node: its port's attach index (fat-tree pods and the
        #: spine hash are cut from it)
        self._index: Dict[str, int] = {}
        #: per node: instant its output port frees up
        self._port_free: Dict[str, float] = {}
        self.packets_forwarded = 0
        self.contended_packets = 0
        #: links (keyed by node name) currently down — empty when healthy
        self._link_down: Set[str] = set()
        #: per-node-link degrade state (bandwidth factor / extra latency);
        #: empty dicts on the healthy path, so no float op ever changes
        self._link_bw: Dict[str, float] = {}
        self._link_extra: Dict[str, float] = {}
        #: packets discarded at the edge because a link was down
        self.link_dropped_packets = 0

    def __repr__(self) -> str:
        return f"<Switch {self.name}: {len(self._ports)} ports>"

    # ------------------------------------------------------------------ #
    # wiring (the Wire-compatible fabric protocol)
    # ------------------------------------------------------------------ #

    def attach(self, nic: Nic) -> "Switch":
        """Connect a NIC to this switch (its ``wire`` becomes the switch)."""
        first = next(iter(self.ports), None)
        if first is not None and nic.profile.name != first.profile.name:
            raise ConfigurationError(
                f"switch {self.name} carries {first.profile.name}, "
                f"got {nic.profile.name}"
            )
        if nic.wire is not None:
            raise ConfigurationError(f"{nic!r} is already wired")
        node = nic.node
        if node in self._ports:
            raise ConfigurationError(
                f"switch {self.name} already has a port on node {node!r}"
            )
        if first is not None and nic.sim is not first.sim:
            raise ConfigurationError("switch ports live in different simulators")
        nic.wire = self
        self._index[node] = len(self._ports)
        self._ports[node] = weakref.ref(nic)
        self._port_free[node] = 0.0
        return self

    @property
    def ports(self) -> List[Nic]:
        return [port() for port in self._ports.values()]

    def _port(self, node: str) -> Optional[Nic]:
        port = self._ports.get(node)
        return None if port is None else port()

    def peers_of(self, nic: Nic) -> List[Nic]:
        """Every other port's NIC (the engine builds routes from this)."""
        if self._port(nic.node) is not nic:
            raise ConfigurationError(f"{nic!r} is not a port of {self!r}")
        return [p for p in self.ports if p is not nic]

    # Wire-API compatibility: a switch has no single peer; peer_of is only
    # answerable when exactly two ports exist (then it degenerates to a
    # wire, which keeps simple two-node setups working).
    def peer_of(self, nic: Nic) -> Nic:
        """The single peer — only defined for a two-port switch."""
        peers = self.peers_of(nic)
        if len(peers) != 1:
            raise ConfigurationError(
                f"switch {self.name} has {len(self._ports)} ports; "
                "use peers_of/destination routing"
            )
        return peers[0]

    def path_alive(self, nic: Nic, peer_node: str) -> bool:
        """Would a packet sent from ``nic`` now reach ``peer_node``'s port?

        Both NICs up and both edge links up; a fat tree also needs a
        spine for inter-pod pairs.  Read-only: mutates no switch state.
        """
        peer = self._port(peer_node)
        return (
            peer is not None
            and peer is not nic
            and nic.is_up
            and peer.is_up
            and self.link_is_up(nic.node)
            and self.link_is_up(peer_node)
        )

    # ------------------------------------------------------------------ #
    # fabric faults: per-port link state (docs/fabric-faults.md)
    # ------------------------------------------------------------------ #

    def _check_link(self, node: str) -> str:
        if node not in self._ports:
            raise ConfigurationError(
                f"switch {self.name} has no port on node {node!r}; "
                f"known: {sorted(self._ports)}"
            )
        return node

    def link_targets(self, target: str) -> List[str]:
        """Nodes a link fault target addresses: one node's edge port, or
        ``"*"`` for every port (in attach order)."""
        if target == "*":
            return list(self._ports)
        return [self._check_link(target)]

    def link_fail(self, node: str) -> None:
        """Take the port link of ``node`` down: packets to or from it are
        discarded at the edge (the sender's watchdog recovers them)."""
        self._link_down.add(self._check_link(node))

    def link_recover(self, node: str) -> None:
        self._link_down.discard(self._check_link(node))

    def link_degrade(
        self, node: str, bw_factor: float = 1.0, extra_latency: float = 0.0
    ) -> None:
        """Stretch the port link of ``node``: its output drains at
        ``bw_factor`` of the healthy rate, deliveries through it pay
        ``extra_latency`` more."""
        self._check_link(node)
        if bw_factor <= 0:
            raise ConfigurationError(
                f"link bw_factor must be positive, got {bw_factor}"
            )
        if extra_latency < 0:
            raise ConfigurationError(
                f"negative link extra_latency: {extra_latency}"
            )
        self._link_bw[node] = float(bw_factor)
        self._link_extra[node] = float(extra_latency)

    def link_restore(self, node: str) -> None:
        self._check_link(node)
        self._link_bw.pop(node, None)
        self._link_extra.pop(node, None)

    def link_is_up(self, node: str) -> bool:
        return node not in self._link_down

    def _drop(self, src: Nic, dst: Nic, transfer: Transfer, delay: float) -> None:
        """Discard a packet at the edge ``delay`` after it left the NIC
        (a dead link or spine on its path)."""
        if src.hooks.on_fabric_drop:
            src.hooks.on_fabric_drop(self)
        transfer.wire_event = src.sim.schedule_at(
            src.sim.now + delay, self._discard, dst, transfer
        )

    @staticmethod
    def _discard(dst: Nic, transfer: Transfer) -> None:
        transfer.wire_event = None
        transfer.dropped = True
        dst.transfers_dropped += 1

    # ------------------------------------------------------------------ #
    # forwarding
    # ------------------------------------------------------------------ #

    def transmit(self, src: Nic, transfer: Transfer) -> None:
        """Forward a fully-transmitted packet to its destination port:
        edge links, the stages up to the destination edge, output port."""
        dst = self._resolve(src, transfer.dst_node)
        sim = src.sim
        if self._link_down and (
            src.node in self._link_down
            or dst.node in self._link_down
        ):
            # A dead link rejects traffic: the head reaches the edge one
            # latency in and is discarded there.
            self.link_dropped_packets += 1
            self._drop(src, dst, transfer, self.switch_latency)
            return
        drain = transfer.size / src.profile.dma_rate
        t_start = (
            transfer.t_wire_start if transfer.t_wire_start is not None else sim.now
        )
        reached = self._to_edge(src, dst, transfer, t_start, drain)
        if reached is None:
            return
        head_in, floor = reached
        # The tail leaves the output port one drain time after the head
        # starts draining.
        out_drain = drain
        if self._link_bw:
            factor = self._link_bw.get(dst.node, 1.0)
            if factor != 1.0:
                out_drain = drain / factor
        free_at = self._port_free[dst.node]
        start = max(head_in, free_at)
        if free_at > head_in:
            self.contended_packets += 1
        delivery = max(start + out_drain, floor)
        self._port_free[dst.node] = delivery
        self.packets_forwarded += 1
        if src.hooks.on_link:
            src.hooks.on_link(
                self, src, dst, transfer, start, out_drain,
                max(0.0, free_at - head_in),
            )
        extra = src.extra_latency
        if self._link_extra:
            extra += self._link_extra.get(dst.node, 0.0)
        transfer.wire_event = sim.schedule_at(
            delivery + extra, self._deliver, dst, transfer
        )

    def _to_edge(
        self, src: Nic, dst: Nic, transfer: Transfer, t_start: float, drain: float
    ) -> Optional[Tuple[float, float]]:
        """Carry the head to the destination edge switch.

        Returns ``(head at the output port, earliest delivery)``, or
        ``None`` once the packet was dropped on the way.  A flat switch
        is one edge hop: cut-through, the head reached us one latency
        after the source started transmitting.
        """
        head_in = t_start + self.switch_latency
        if self._link_extra:
            head_in += self._link_extra.get(src.node, 0.0)
        return head_in, src.sim.now + self.switch_latency

    @staticmethod
    def _deliver(dst: Nic, transfer: Transfer) -> None:
        transfer.wire_event = None
        # Up-ness is a delivery-time property: packets racing a NIC-down
        # event lose deterministically (see Wire._deliver).
        if not dst.is_up:
            transfer.dropped = True
            dst.transfers_dropped += 1
            return
        dst._on_delivery(transfer)

    def _resolve(self, src: Nic, dst_node: str) -> Nic:
        port = self._ports.get(dst_node)
        dst = None if port is None else port()
        if dst is None or dst is src:
            raise ProtocolError(
                f"switch {self.name}: no port on node {dst_node!r} "
                f"(ports: {[p.qualified_name for p in self.ports]})"
            )
        return dst


class FatTreeSwitch(Switch):
    """A two-stage fat tree: per-pod edge switching plus spine uplinks.

    Ports are grouped into *pods* of ``pod_size`` in attach order.
    Intra-pod packets see exactly the flat-switch behaviour (one
    ``switch_latency`` hop, destination-port contention).  Inter-pod
    packets cross edge → spine → edge: they pay one extra latency per
    stage and additionally serialize on one of ``spines`` shared spine
    links, chosen by a deterministic flow hash (static ECMP-style
    routing — the spine a flow lands on does not adapt to load, which is
    precisely the skew RailS-style balancing works around at the
    collective layer).

    Cut-through carries over: an uncontended inter-pod packet pays only
    the two extra stage latencies; simultaneous inter-pod flows hashed
    onto one spine serialize there before contending for the output
    port — the oversubscription effect of real multi-stage fabrics.
    """

    def __init__(
        self,
        name: str = "fattree",
        switch_latency: float = 0.3,
        pod_size: int = 4,
        spines: int = 2,
        adaptive: bool = True,
    ) -> None:
        super().__init__(name=name, switch_latency=switch_latency)
        if pod_size < 1:
            raise ConfigurationError(f"pod_size must be >= 1, got {pod_size}")
        if spines < 1:
            raise ConfigurationError(f"spines must be >= 1, got {spines}")
        self.pod_size = pod_size
        self.spines = spines
        #: health-aware ECMP: deterministically re-hash flows away from
        #: down/degraded spines.  While every spine is healthy the static
        #: hash is returned untouched (bit-identical fallback); with
        #: ``adaptive=False`` flows stay pinned to the static hash even
        #: through a dead spine (the blind baseline).
        self.adaptive = bool(adaptive)
        #: per spine link: instant it frees up
        self._spine_free: List[float] = [0.0] * spines
        #: per spine link: up/down and degrade factor (fault surface)
        self._spine_up: List[bool] = [True] * spines
        self._spine_bw: List[float] = [1.0] * spines
        #: cached "any spine faulted" flag — the healthy fast path reads
        #: one bool instead of scanning the spine tables per packet
        self._spines_faulted = False
        #: forwarded packets that crossed a spine
        self.inter_pod_packets = 0
        #: inter-pod packets that waited for a busy spine link
        self.spine_contended_packets = 0
        #: packets forwarded per spine link (load-balance visibility)
        self.spine_packets: List[int] = [0] * spines
        #: inter-pod packets discarded because their spine was down
        self.spine_dropped_packets = 0
        #: inter-pod packets the health-aware selector moved off the
        #: static hash (down or degraded spine avoided)
        self.spine_rerouted_packets = 0

    def __repr__(self) -> str:
        pods = (len(self._ports) + self.pod_size - 1) // self.pod_size
        return (
            f"<FatTreeSwitch {self.name}: {len(self._ports)} ports, "
            f"{pods} pods x {self.pod_size}, {self.spines} spines>"
        )

    @property
    def intra_pod_packets(self) -> int:
        """Forwarded packets that stayed inside one pod."""
        return self.packets_forwarded - self.inter_pod_packets

    def pod_of(self, nic: Nic) -> int:
        """Pod index of a port (ports are podded in attach order)."""
        node = nic.node
        if self._port(node) is not nic:
            raise ConfigurationError(f"{nic!r} is not a port of {self!r}")
        return self._index[node] // self.pod_size

    def _spine_for(self, src_idx: int, dst_idx: int) -> int:
        """Static flow-hash routing: one spine per (src pod, dst pod)."""
        pods = (len(self._ports) + self.pod_size - 1) // self.pod_size
        src_pod, dst_pod = src_idx // self.pod_size, dst_idx // self.pod_size
        return (src_pod * pods + dst_pod) % self.spines

    def path_alive(self, nic: Nic, peer_node: str) -> bool:
        """:meth:`Switch.path_alive`, plus a spine for inter-pod pairs:
        any up spine when routing adaptively, the hashed one when not."""
        if not super().path_alive(nic, peer_node):
            return False
        src_idx = self._index[nic.node]
        dst_idx = self._index[peer_node]
        if src_idx // self.pod_size == dst_idx // self.pod_size:
            return True
        if self.adaptive:
            return any(self._spine_up)
        return self._spine_up[self._spine_for(src_idx, dst_idx)]

    # ------------------------------------------------------------------ #
    # fabric faults: spine state + health-aware ECMP
    # ------------------------------------------------------------------ #

    def _check_spine(self, spine: int) -> int:
        if not 0 <= spine < self.spines:
            raise ConfigurationError(
                f"switch {self.name} has spines 0..{self.spines - 1}, "
                f"got {spine}"
            )
        return spine

    def spine_targets(self, target: str) -> List[int]:
        """Spines a spine fault target addresses: ``"spine<k>"``, or
        ``"spine*"`` / ``"*"`` for every spine."""
        if target in ("spine*", "*"):
            return list(range(self.spines))
        number = target[len("spine"):] if target.startswith("spine") else ""
        try:
            spine = int(number)
        except ValueError:
            qualified = f"{self.name}.{target}"
            raise ConfigurationError(
                f"bad spine target {qualified!r}; expected "
                f"'{self.name}.spine<k>' or '{self.name}.spine*'"
            ) from None
        return [self._check_spine(spine)]

    def _refresh_spine_health(self) -> None:
        self._spines_faulted = (not all(self._spine_up)) or any(
            f != 1.0 for f in self._spine_bw
        )

    def spine_fail(self, spine: int) -> None:
        """Take one spine link down.  A dead spine serializes nothing:
        packets still hashed onto it (``adaptive=False``, or every spine
        down) are discarded at the edge without touching its queue."""
        self._spine_up[self._check_spine(spine)] = False
        self._refresh_spine_health()

    def spine_recover(self, spine: int) -> None:
        self._spine_up[self._check_spine(spine)] = True
        self._refresh_spine_health()

    def spine_degrade(self, spine: int, bw_factor: float = 1.0) -> None:
        """One spine link drains at ``bw_factor`` of the healthy rate."""
        self._check_spine(spine)
        if bw_factor <= 0:
            raise ConfigurationError(
                f"spine bw_factor must be positive, got {bw_factor}"
            )
        self._spine_bw[spine] = float(bw_factor)
        self._refresh_spine_health()

    def spine_restore(self, spine: int) -> None:
        self._spine_bw[self._check_spine(spine)] = 1.0
        self._refresh_spine_health()

    def _select_spine(self, src_idx: int, dst_idx: int) -> Optional[int]:
        """Health-aware ECMP: the static hash unless that spine is
        down/degraded and re-routing is allowed.

        Healthy fabric (or ``adaptive=False``): exactly
        :meth:`_spine_for` — the bit-identical static fallback.  Under a
        fault, probe the spines in deterministic ``(base + k) % spines``
        order and pick the least-loaded fully-healthy one (earliest
        ``_spine_free`` — the PR 8 per-spine accounting, consulted only
        while the fabric is degraded so healthy runs never diverge);
        with no healthy spine fall back to the first up-but-degraded
        one; with every spine down return ``None`` (the packet is
        discarded at the edge).
        """
        base = self._spine_for(src_idx, dst_idx)
        if not self.adaptive or not self._spines_faulted:
            return base
        if self._spine_up[base] and self._spine_bw[base] == 1.0:
            # Only flows whose hashed spine is faulted move — healthy
            # pod pairs keep their static route through the incident.
            return base
        probe = [(base + k) % self.spines for k in range(self.spines)]
        healthy = [
            s for s in probe if self._spine_up[s] and self._spine_bw[s] == 1.0
        ]
        if healthy:
            chosen = min(
                healthy, key=lambda s: (self._spine_free[s], probe.index(s))
            )
        else:
            up = [s for s in probe if self._spine_up[s]]
            if not up:
                return None
            chosen = up[0]
        if chosen != base:
            self.spine_rerouted_packets += 1
        return chosen

    def _to_edge(
        self, src: Nic, dst: Nic, transfer: Transfer, t_start: float, drain: float
    ) -> Optional[Tuple[float, float]]:
        """Same pod: the flat switch's one edge hop.  Across pods: the
        spine stage (selection, spine drop, spine serialization)."""
        src_idx = self._index[src.node]
        dst_idx = self._index[dst.node]
        if src_idx // self.pod_size == dst_idx // self.pod_size:
            return super()._to_edge(src, dst, transfer, t_start, drain)
        sim = src.sim
        hooks = src.hooks
        # Stage 1+2: the head crosses the source edge switch and reaches
        # its spine two latencies after leaving the NIC, then serializes
        # on the (health-aware) hashed spine link.
        spine = self._select_spine(src_idx, dst_idx)
        if hooks.on_route:
            # Route-liveness: the selector must never pin a flow to a
            # down spine while an alternative is up (static routing and
            # total outages are deliberate, not violations).
            pinned_dead = (
                self.adaptive
                and any(self._spine_up)
                and (spine is None or not self._spine_up[spine])
            )
            hooks.on_route(self, spine, not pinned_dead, sim.now)
        if spine is None or not self._spine_up[spine]:
            # Dead spine (static hash) or no spine up at all: discarded
            # at the edge — a dead spine serializes nothing.
            self.spine_dropped_packets += 1
            self._drop(src, dst, transfer, 2.0 * self.switch_latency)
            return None
        head_at_spine = t_start + 2.0 * self.switch_latency
        if self._link_extra:
            head_at_spine += self._link_extra.get(src.node, 0.0)
        spine_free = self._spine_free[spine]
        spine_start = max(head_at_spine, spine_free)
        if spine_free > head_at_spine:
            self.spine_contended_packets += 1
        spine_drain = drain
        bw = self._spine_bw[spine]
        if bw != 1.0:
            spine_drain = drain / bw
        self._spine_free[spine] = spine_start + spine_drain
        self.spine_packets[spine] += 1
        self.inter_pod_packets += 1
        if hooks.on_spine:
            hooks.on_spine(
                self, src, transfer, spine, spine_start, spine_drain,
                max(0.0, spine_free - head_at_spine),
            )
        # Stage 3: the head reaches the destination edge one latency
        # later and drains through the (possibly busy) output port.  The
        # tail cannot leave the port before it has arrived off the
        # spine, so an uncontended inter-pod packet pays exactly two
        # extra stage latencies over the flat switch.
        floor = sim.now + 3.0 * self.switch_latency
        if spine_drain != drain:
            # A degraded spine can hold the tail past the port drain.
            floor = max(floor, spine_start + spine_drain + self.switch_latency)
        return spine_start + self.switch_latency, floor
