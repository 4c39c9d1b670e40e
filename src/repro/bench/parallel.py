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


def soak_obs_artifact(report) -> Dict[str, Any]:
    """Merged observability artifact of a metrics-armed soak.

    Each scenario carries its own per-seed metrics snapshot (workers
    cannot share a registry across process boundaries); this folds them
    with :func:`repro.obs.metrics.merge_snapshots` — counters add,
    histograms add bucket-wise, gauges keep the last shard's value —
    and collects every flight dump.  ``soak`` returns scenarios in seed
    order, so the merge order (and therefore the serialized artifact) is
    byte-identical for ``--jobs 1`` and ``--jobs N``.
    """
    from repro.obs.metrics import merge_snapshots

    snapshots = [
        s.metrics_snapshot
        for s in report.scenarios
        if s.metrics_snapshot is not None
    ]
    return {
        "seeds": len(report.scenarios),
        "metrics": merge_snapshots(snapshots),
        "flight_dumps": [
            {"seed": s.seed, "dump": s.flight_dump}
            for s in report.scenarios
            if s.flight_dump is not None
        ],
    }


__all__ = ["soak_artifact", "soak_obs_artifact"]
