"""Utility helpers shared across the repro packages.

This subpackage intentionally has no dependency on the simulator or the
communication engine so that every other subpackage may import it freely.
"""

from repro.util.errors import (
    ReproError,
    ConfigurationError,
    ProtocolError,
    SchedulingError,
    SamplingError,
)
from repro.util.units import (
    KiB,
    MiB,
    GiB,
    parse_size,
    parse_time,
    format_size,
    format_time_us,
    bytes_per_us_to_mbps,
    mbps_to_bytes_per_us,
    POW2_SIZES,
    pow2_sizes,
)
from repro.util.stats import percentile

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ProtocolError",
    "SchedulingError",
    "SamplingError",
    "KiB",
    "MiB",
    "GiB",
    "parse_size",
    "parse_time",
    "format_size",
    "format_time_us",
    "bytes_per_us_to_mbps",
    "mbps_to_bytes_per_us",
    "POW2_SIZES",
    "pow2_sizes",
    "percentile",
]
