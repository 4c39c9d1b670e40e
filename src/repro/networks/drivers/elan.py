"""Elan/QsNetII driver (Quadrics).

Calibration targets, from the paper's §IV:

* rendezvous ping-pong plateau ≈ **837 MB/s** at 8 MiB (Fig. 8);
* a 2 MiB chunk takes ≈ **2400 µs** one-way (§IV-A text), leaving the
  Myri-10G rail idle ≈ 670 µs under iso-split;
* lower zero-byte latency than MX (QsNetII's strong point), but a slower
  per-byte eager path, reaching ≈ 85 µs at 64 KiB (Fig. 9).

With this profile: ``rdv_oneway(s) = 7.9 + s/878`` µs, giving 836.6 MB/s
at 8 MiB and 2396 µs for 2 MiB (so the iso-split idle gap is ≈ 680 µs);
``eager_oneway(s) = 3.3 + s/800`` µs.
"""

from __future__ import annotations

from repro.networks.drivers.base import Driver
from repro.networks.profile import NetworkProfile
from repro.util.units import KiB


class ElanDriver(Driver):
    """Quadrics Elan4 over QsNetII: RDMA put/get, gather/scatter capable."""

    technology = "quadrics"

    @classmethod
    def default_profile(cls) -> NetworkProfile:
        return NetworkProfile(
            name=cls.technology,
            wire_latency=0.8,
            pio_rate=1600.0,
            recv_copy_rate=1600.0,
            pio_setup=0.4,
            recv_setup=0.4,
            post_overhead=0.7,
            poll_detect=1.0,
            dma_rate=878.0,
            rdv_setup=0.4,
            eager_limit=64 * KiB,
            gather_scatter=True,
            max_aggregation=64 * KiB,
            dma_ramp_us=10.0,
            dma_ramp_bytes=256 * KiB,
            eager_ramp_us=4.0,
            eager_ramp_bytes=16 * KiB,
        )
