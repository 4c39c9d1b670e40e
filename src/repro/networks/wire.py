"""Point-to-point rail between two NICs.

The paper's testbed connects two nodes back-to-back on each rail, so a
wire is a full-duplex point-to-point link: each direction only adds
propagation latency — throughput serialization is enforced by the sending
NIC's transmit engine, where it physically happens.

Fault surface: a point-to-point wire has no failure modes of its own —
NIC-level faults (``repro.faults``) cover both endpoints.  Fabric links
and spines, which *can* fail independently of the NICs, live in
:mod:`repro.networks.switch`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.networks.nic import Nic
    from repro.networks.transfer import Transfer


class Wire:
    """Connects exactly two NICs of the same technology."""

    def __init__(self, nic_a: "Nic", nic_b: "Nic") -> None:
        if nic_a is nic_b:
            raise ConfigurationError("a wire needs two distinct NICs")
        if nic_a.profile.name != nic_b.profile.name:
            raise ConfigurationError(
                f"wire endpoints use different technologies: "
                f"{nic_a.profile.name} vs {nic_b.profile.name}"
            )
        if nic_a.machine is nic_b.machine:
            raise ConfigurationError("wire endpoints live on the same machine")
        if nic_a.sim is not nic_b.sim:
            raise ConfigurationError("wire endpoints live in different simulators")
        for nic in (nic_a, nic_b):
            if nic.wire is not None:
                raise ConfigurationError(f"{nic!r} is already wired")
        self.nic_a = nic_a
        self.nic_b = nic_b
        nic_a.wire = self
        nic_b.wire = self

    def __repr__(self) -> str:
        return f"<Wire {self.nic_a.qualified_name} <-> {self.nic_b.qualified_name}>"

    def peer_of(self, nic: "Nic") -> "Nic":
        if nic is self.nic_a:
            return self.nic_b
        if nic is self.nic_b:
            return self.nic_a
        raise ConfigurationError(f"{nic!r} is not an endpoint of {self!r}")

    def peers_of(self, nic: "Nic"):
        """Fabric protocol (shared with :class:`~repro.networks.switch.Switch`):
        every NIC reachable from ``nic`` — for a wire, exactly one."""
        return [self.peer_of(nic)]

    def path_alive(self, nic: "Nic", peer_node: str) -> bool:
        """Fabric protocol: would a packet sent from ``nic`` now reach
        ``peer_node``?  A wire needs both of its NICs up."""
        peer = self.peer_of(nic)
        return nic.is_up and peer.is_up and peer.machine.name == peer_node

    def transmit(self, src: "Nic", transfer: "Transfer") -> None:
        """Deliver ``transfer`` to the peer after the wire latency.

        Called by the sending NIC the instant its transmit phase ends; the
        last byte lands ``wire_latency`` later (plus any degradation
        latency active on the sender).  Whether the peer is up is checked
        at the *delivery* instant — a packet in flight toward a NIC that
        dies before it lands is lost.
        """
        peer = self.peer_of(src)
        if src.hooks.on_wire:
            src.hooks.on_wire(src, peer, transfer)
        # The handle lets the engine's retry path cancel a superseded
        # original that is still in flight (see docs/chaos.md).
        transfer.wire_event = src.sim.schedule(
            src.profile.wire_latency + src.extra_latency,
            self._deliver,
            peer,
            transfer,
        )

    @staticmethod
    def _deliver(peer: "Nic", transfer: "Transfer") -> None:
        transfer.wire_event = None
        if not peer.is_up:
            transfer.dropped = True
            peer.transfers_dropped += 1
            return
        peer._on_delivery(transfer)
