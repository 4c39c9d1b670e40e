"""Order-preserving process fan-out for deterministically seeded work.

The chaos soaks and the bandwidth sweeps have the same shape: N
independent, *deterministically seeded* work items whose results only
meet at the very end.  One Python process can only use one core, so
:func:`parallel_map` shards such work across a ``multiprocessing`` pool
and re-assembles the results **in input order** — and because every
item is self-seeded (``chaos:{seed}`` / ``workload:{seed}`` RNG streams,
per-scenario id-counter resets, seeded sampling), a sharded run produces
*byte-identical* per-item results no matter how many workers ran or
which worker drew which item.

``jobs=1`` (the default everywhere) runs inline in the calling process
and never imports ``multiprocessing``.  ``jobs=0`` means "one worker
per CPU".

Workers are forked where the platform allows (cheap, inherits the
warmed ``default_profiles`` memo) and spawned otherwise; either way the
work function and its arguments must be picklable: module-level
functions, or :func:`functools.partial` over one.
"""

from __future__ import annotations

import os
from typing import Any, Callable, List, Optional, Sequence

from repro.util.errors import ConfigurationError


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` → one per CPU."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    return jobs


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: Optional[int] = 1,
) -> List[Any]:
    """``[fn(x) for x in items]``, sharded over ``jobs`` processes.

    Results come back **in input order** regardless of which worker
    finished first — the property every deterministic artifact in this
    repo leans on.  ``jobs`` ≤ 1 (after :func:`resolve_jobs`) or a
    single item runs inline with no pool at all.
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # Imported here: the inline path is every caller's default, and
    # multiprocessing.pool costs milliseconds to import.
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-forking platforms
        ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=min(jobs, len(items))) as pool:
        # chunksize=1: scenario costs vary wildly (shrink-worthy seeds
        # run the whole ddmin loop); fine-grained hand-out keeps the
        # stragglers from serializing the tail.
        return pool.map(fn, items, chunksize=1)


__all__ = ["parallel_map", "resolve_jobs"]
