"""MX/Myri-10G driver (Myricom Myrinet Express).

Calibration targets, from the paper's §IV:

* rendezvous ping-pong plateau ≈ **1170 MB/s** at 8 MiB (Fig. 8);
* a 2 MiB chunk takes ≈ **1730 µs** one-way (§IV-A text);
* small-message eager latency a few µs, reaching ≈ 60 µs at 64 KiB
  (Fig. 9's axis tops out at 90 µs).

With this profile: ``rdv_oneway(s) = 9.5 + s/1228`` µs, giving
1169.8 MB/s at 8 MiB and 1717 µs for 2 MiB; ``eager_oneway(s) =
4.0 + s/1100`` µs, giving 63.6 µs at 64 KiB.
"""

from __future__ import annotations

from repro.networks.drivers.base import Driver
from repro.networks.profile import NetworkProfile
from repro.util.units import KiB


class MxDriver(Driver):
    """Myricom MX over Myri-10G: message-passing, gather/scatter capable."""

    technology = "myri10g"

    @classmethod
    def default_profile(cls) -> NetworkProfile:
        return NetworkProfile(
            name=cls.technology,
            wire_latency=1.3,
            pio_rate=2200.0,
            recv_copy_rate=2200.0,
            pio_setup=0.5,
            recv_setup=0.5,
            post_overhead=0.7,
            poll_detect=1.0,
            dma_rate=1228.0,
            rdv_setup=0.5,
            eager_limit=64 * KiB,
            gather_scatter=True,
            max_aggregation=64 * KiB,
            dma_ramp_us=12.0,
            dma_ramp_bytes=256 * KiB,
            eager_ramp_us=3.0,
            eager_ramp_bytes=16 * KiB,
        )
