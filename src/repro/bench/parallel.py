"""Deterministic soak artifacts: what a sharded soak must reproduce.

:func:`repro.faults.soak` shards its seeds over ``jobs`` processes
(:func:`repro.util.parallel.parallel_map`) and merges the per-seed
results back in seed order.  Every scenario is self-seeded, so the
artifacts below are a pure function of the seed list: serialized, they
are byte-identical for ``--jobs 1`` and ``--jobs N`` (``cli chaos
--artifact``, and the fan-out tests that pin that contract).
"""

from __future__ import annotations

from typing import Any, Dict


def soak_artifact(report) -> Dict[str, Any]:
    """The deterministic slice of a soak report.

    Drops the wall-clock fields (``wall_seconds``, ``scenarios_per_sec``)
    that legitimately differ run to run; everything left is a pure
    function of the seed list, so serializing this dict must produce
    byte-identical output for ``--jobs 1`` and ``--jobs N`` — the
    acceptance check for the whole fan-out design.
    """
    payload = report.to_dict()
    payload.pop("wall_seconds", None)
    payload.pop("scenarios_per_sec", None)
    return payload


__all__ = ["soak_artifact"]
