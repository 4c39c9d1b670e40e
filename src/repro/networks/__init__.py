"""Network substrate: profiles, NICs, wires and switches.

This package replaces the paper's physical rails (Myri-10G/MX and
Quadrics QsNetII/Elan) with calibrated cost models driven by the
discrete-event simulator.  The strategy layer above observes exactly what
it would observe on hardware: per-NIC busy/idle state, predicted
completion instants, and sampled latency curves.  A rail technology is
its :class:`NetworkProfile`: :data:`RAIL_PROFILES` holds the four
calibrated ones (``myri10g``, ``quadrics``, ``infiniband``, ``tcp``) and
:func:`rail_profile` looks one up by name.

Timing model (one message, virtual µs)
--------------------------------------

*Eager* (small messages; CPU-consuming PIO copies, paper §II-C):

1. the sending core is occupied for ``post_overhead + pio_setup +
   size/pio_rate`` (driver post + host→NIC PIO copy);
2. the last byte reaches the peer NIC ``wire_latency`` after the copy
   completes (store-and-forward at the NIC);
3. the receiving core is occupied for ``poll_detect + recv_setup +
   size/recv_copy_rate`` (event detection + NIC→host copy); the message
   completes when that copy ends.

Because both copies occupy cores, two eager sends issued by one core
serialize their PIO phases (Fig. 4a) and two receptions serialize their
copies on the polling core — the effects Figs. 3/4 are about.

*Rendezvous* (large messages; DMA, nearly no CPU):

1. RDV_REQ control packet (core: ``post_overhead``; wire: latency;
   peer core: ``poll_detect``);
2. RDV_ACK back the same way once the receiver posted its buffer;
3. data: core occupied ``rdv_setup`` only, NIC busy ``size/dma_rate``,
   delivery ``wire_latency`` later, completion after ``poll_detect``.
"""

from repro.networks.profile import RAIL_PROFILES, NetworkProfile, rail_profile
from repro.networks.transfer import Transfer, TransferKind
from repro.networks.wire import Wire
from repro.networks.switch import Switch
from repro.networks.nic import Nic

__all__ = [
    "NetworkProfile",
    "RAIL_PROFILES",
    "rail_profile",
    "Transfer",
    "TransferKind",
    "Wire",
    "Switch",
    "Nic",
]
