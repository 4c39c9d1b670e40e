"""Network drivers: per-technology profiles.

NewMadeleine ships drivers for MX/Myrinet, Verbs/InfiniBand, Elan/QsNet
and TCP/Ethernet (paper §III-A); this package mirrors that set.  A driver
bundles a calibrated :class:`~repro.networks.profile.NetworkProfile` (the
costs the simulator charges, eager and aggregation limits and
gather/scatter availability included) with the CPU cost of building an
aggregated packet.

The Myri-10G and Quadrics profiles are calibrated against the paper's
§IV numbers — see each module's docstring for the targets.
"""

from repro.networks.drivers.base import Driver
from repro.networks.drivers.mx import MxDriver
from repro.networks.drivers.elan import ElanDriver
from repro.networks.drivers.verbs import VerbsDriver
from repro.networks.drivers.tcp import TcpDriver

from typing import Dict, Type

#: name → driver class, for config-file style construction
driver_registry: Dict[str, Type[Driver]] = {
    "myri10g": MxDriver,
    "mx": MxDriver,
    "quadrics": ElanDriver,
    "qsnet2": ElanDriver,
    "elan": ElanDriver,
    "infiniband": VerbsDriver,
    "verbs": VerbsDriver,
    "ib-ddr": VerbsDriver,
    "tcp": TcpDriver,
    "gige": TcpDriver,
}


def make_driver(name: str, **profile_overrides) -> Driver:
    """Build a driver by registry name, optionally overriding profile
    fields (used by the ablation benches, e.g. ``make_driver("myri10g",
    wire_latency=5.0)``)."""
    try:
        cls = driver_registry[name.lower()]
    except KeyError:
        known = ", ".join(sorted(driver_registry))
        raise KeyError(f"unknown driver {name!r}; known: {known}") from None
    driver = cls()
    if profile_overrides:
        driver = cls(profile=driver.profile.with_overrides(**profile_overrides))
    return driver


__all__ = [
    "Driver",
    "MxDriver",
    "ElanDriver",
    "VerbsDriver",
    "TcpDriver",
    "driver_registry",
    "make_driver",
]
