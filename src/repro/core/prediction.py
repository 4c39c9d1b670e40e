"""NIC idle prediction and rail-subset selection (paper §II-B, Fig. 2).

The strategy must decide *which* NICs participate before computing the
split ratio: "NIC1 is typically discarded provided that NIC2 is expected
to become free before NIC1".  :class:`CompletionPredictor` combines each
NIC's :attr:`busy_until` (exact, because every submitter declares its
transmit cost) with the sampled estimator and picks the subset of rails
whose predicted completion is smallest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.estimator import NicEstimator, SampleTable
from repro.core.packets import TransferMode
from repro.core.split import SplitResult, dichotomy_split, waterfill_split
from repro.networks.nic import Nic
from repro.obs.hooks import Hooks
from repro.util.errors import ConfigurationError, SamplingError, SchedulingError


@dataclass(slots=True)
class RailPlan:
    """A concrete multirail transfer decision (slotted — every send in
    a storm allocates one)."""

    nics: List[Nic]                  # rails actually used (chunk size > 0)
    sizes: List[int]                 # bytes per rail, aligned with nics
    predicted_completion: float
    split: SplitResult               # full solver output (diagnostics)
    #: per-rail confidence scores, attached when the calibration drift
    #: loop planned (or reviewed) this decision; None otherwise
    confidence: Optional[Dict[str, float]] = None
    #: fallback-ladder trust level the plan was made under
    #: ("full" / "partial" / "single"); None when calibration is off
    trust: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.nics) != len(self.sizes):
            raise ConfigurationError("plan rails/sizes length mismatch")

    @property
    def total(self) -> int:
        return sum(self.sizes)


#: cap on the per-predictor plan cache before it is reset wholesale
_PLAN_CACHE_LIMIT = 8_192


class _ScaledTable:
    """A sampled curve stretched by a degradation factor.

    A NIC running at ``bw_factor`` of its nominal bandwidth takes
    ``1/bw_factor`` times as long per transfer, so times scale up and the
    inverse (bytes movable within ``t``) scales the time down first.
    """

    __slots__ = ("_table", "_factor")

    def __init__(self, table: SampleTable, bw_factor: float) -> None:
        self._table = table
        self._factor = bw_factor

    def __call__(self, size: float) -> float:
        return self._table(size) / self._factor

    def batch(self, sizes) -> "np.ndarray":
        # Elementwise division by the same scalar the scalar path uses:
        # bit-equal to calling __call__ per size.
        return self._table.batch(sizes) / self._factor

    def inverse(self, time: float) -> float:
        return self._table.inverse(time * self._factor)


class _ScaledEstimator:
    """Degradation-aware view of an immutable :class:`NicEstimator`.

    The split solvers only touch ``name``, ``transfer_time`` and the
    ``eager``/``dma`` tables, so this thin wrapper is all a degraded rail
    needs; the wrapped estimator's memo tables keep doing the heavy
    lifting underneath.
    """

    __slots__ = ("_est", "_factor", "name", "eager", "dma")

    def __init__(self, est: NicEstimator, bw_factor: float) -> None:
        self._est = est
        self._factor = bw_factor
        self.name = est.name
        self.eager = _ScaledTable(est.eager, bw_factor)
        self.dma = _ScaledTable(est.dma, bw_factor)

    def transfer_time(self, size: int, mode: TransferMode) -> float:
        return self._est.transfer_time(size, mode) / self._factor


class CompletionPredictor:
    """Predicts transfer completions and selects rail subsets.

    Repeated same-shape decisions — identical ``(rail set, size, mode,
    busy offsets)`` — are served from a per-predictor cache instead of
    re-running the subset enumeration and bisections: steady-state
    traffic and every size sweep re-plan the same shapes constantly.
    Estimators are immutable after construction, so cached plans can
    only go stale if the estimator set itself is swapped — which builds
    a fresh predictor (``Cluster.resample`` does exactly that); an
    explicit :meth:`invalidate_plan_cache` exists for anything exotic.

    ``offset_quantum`` (µs) buckets the busy offsets used in the cache
    *key*.  The default 0.0 keys on exact offsets, which guarantees a
    cache hit never changes any planned byte — simulated timestamps stay
    bit-identical to an uncached run.  A coarser quantum trades that
    exactness for more hits under jittery offsets; opt-in only.

    ``hooks``/``node``: the owning engine's hook stream and node name —
    every plan decision is emitted as ``on_plan`` under that node.
    """

    def __init__(
        self,
        estimators: Dict[str, NicEstimator],
        offset_quantum: float = 0.0,
        hooks: Optional[Hooks] = None,
        node: str = "",
    ) -> None:
        if not estimators:
            raise SamplingError("predictor needs at least one estimator")
        if offset_quantum < 0:
            raise ConfigurationError(f"negative offset quantum: {offset_quantum}")
        self.estimators = dict(estimators)
        self.offset_quantum = offset_quantum
        self._plan_cache: Dict[tuple, tuple] = {}
        self._scaled_cache: Dict[Tuple[str, float], _ScaledEstimator] = {}
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.hooks = hooks if hooks is not None else Hooks()
        self.node = node

    def invalidate_plan_cache(self) -> None:
        """Drop every cached split decision (hit/miss counters survive)."""
        self._plan_cache.clear()

    def _quantize(self, offset: float) -> float:
        q = self.offset_quantum
        if q <= 0.0:
            return offset
        return round(offset / q) * q

    def estimator_for(self, nic: Nic) -> NicEstimator:
        """The estimator sampled for this NIC's technology."""
        try:
            return self.estimators[nic.profile.name]
        except KeyError:
            raise SamplingError(
                f"no sampling profile for {nic.profile.name!r}; "
                f"sampled: {sorted(self.estimators)}"
            ) from None

    def _planning_estimator(self, nic: Nic):
        """The estimator as planning should see it *right now*: the
        sampled curves, stretched when the NIC is currently degraded.
        Healthy NICs get the raw (shared, memoized) estimator so the
        fault-free path stays bit-identical."""
        est = self.estimator_for(nic)
        factor = nic.bw_factor
        if factor == 1.0:
            return est
        key = (nic.profile.name, factor)
        scaled = self._scaled_cache.get(key)
        if scaled is None or scaled._est is not est:
            scaled = _ScaledEstimator(est, factor)
            self._scaled_cache[key] = scaled
        return scaled

    # ------------------------------------------------------------------ #
    # point predictions
    # ------------------------------------------------------------------ #

    def busy_offset(self, nic: Nic) -> float:
        """µs until the NIC's transmit engine frees up (0 when idle)."""
        return nic.busy_until - nic.sim.now

    def _rail_offset(self, nic: Nic) -> float:
        """Busy offset plus any fault-injected delivery latency.  The
        addition is skipped entirely on healthy rails so the fault-free
        arithmetic stays bit-identical."""
        off = self.busy_offset(nic)
        extra = nic.extra_latency
        return off if extra == 0.0 else off + extra

    def predict(self, nic: Nic, size: int, mode: TransferMode) -> float:
        """Predicted completion (µs from now) of a chunk on this NIC,
        including the wait for the NIC to become idle (Fig. 2) and the
        slowdown of any active degradation fault."""
        return self._rail_offset(nic) + self._planning_estimator(
            nic
        ).transfer_time(size, mode)

    def planning_transfer_time(
        self, nic: Nic, size: int, mode: TransferMode
    ) -> float:
        """Pure service-time prediction for one chunk (no busy offset,
        no fault latency) — the quantity the accuracy telemetry pairs
        with the chunk's measured pipeline time."""
        return self._planning_estimator(nic).transfer_time(size, mode)

    # ------------------------------------------------------------------ #
    # batched candidate pricing (one vectorized call across all rails
    # and all candidate split points of a plan)
    # ------------------------------------------------------------------ #

    def price_candidates(
        self,
        nics: Sequence[Nic],
        candidate_sizes: Sequence[Sequence[float]],
        mode: TransferMode,
    ) -> "np.ndarray":
        """Predicted completions of many candidate splits in one call.

        ``candidate_sizes`` is a ``(candidates, rails)`` matrix: row
        ``c`` assigns ``candidate_sizes[c][r]`` bytes to ``nics[r]``.
        Returns one predicted completion per row::

            completion[c] = max_r( busy_offset_r + T_r(size[c, r]) )

        — the quantity the §II-B solvers minimize, evaluated with one
        ``SampleTable.batch`` pass per rail instead of a Python call per
        ``(candidate, rail)`` cell.  Bit-equal to
        :meth:`price_candidates_scalar` on every element (the hypothesis
        suite asserts it), so analysis and solver code can mix the two
        paths freely.  Degraded rails price through the same scaled
        planning view the scalar path uses.

        Like the solvers' interior evaluation (``dichotomy_split``'s
        ``time_a``/``time_b``), a zero-byte cell is priced at the
        curve's zero-size intercept — the "drop this rail entirely"
        special case stays where it always lived, in the caller.
        """
        arr = np.asarray(candidate_sizes, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != len(nics):
            raise ConfigurationError(
                f"candidate matrix shape {arr.shape} does not match "
                f"{len(nics)} rail(s)"
            )
        completion: Optional[np.ndarray] = None
        for r, nic in enumerate(nics):
            est = self._planning_estimator(nic)
            table = est.eager if mode is TransferMode.EAGER else est.dma
            rail_completion = self._rail_offset(nic) + table.batch(arr[:, r])
            completion = (
                rail_completion
                if completion is None
                else np.maximum(completion, rail_completion)
            )
        assert completion is not None
        return completion

    def price_candidates_scalar(
        self,
        nics: Sequence[Nic],
        candidate_sizes: Sequence[Sequence[float]],
        mode: TransferMode,
    ) -> List[float]:
        """Reference scalar loop for :meth:`price_candidates`.

        One table call per ``(candidate, rail)`` cell — what pricing
        cost before vectorization, kept as the bit-equality oracle and
        the baseline side of the ``pricing`` benchmark pair in
        ``BENCH_PR6.json``.
        """
        tables = []
        for nic in nics:
            est = self._planning_estimator(nic)
            tables.append(
                (
                    est.eager if mode is TransferMode.EAGER else est.dma,
                    self._rail_offset(nic),
                )
            )
        out: List[float] = []
        for row in candidate_sizes:
            if len(row) != len(nics):
                raise ConfigurationError(
                    f"candidate row width {len(row)} does not match "
                    f"{len(nics)} rail(s)"
                )
            out.append(
                max(off + table(s) for (table, off), s in zip(tables, row))
            )
        return out

    def price_boundaries(
        self,
        nics: Sequence[Nic],
        size: int,
        mode: TransferMode,
        boundaries: Sequence[float],
    ) -> "np.ndarray":
        """Price every two-rail boundary candidate in one vectorized call.

        Boundary ``b`` sends ``b`` bytes on ``nics[0]`` and ``size - b``
        on ``nics[1]`` — the dichotomy solver's search axis, priced as a
        whole grid at once (grid sweeps, ablation benches, charts).
        """
        if len(nics) != 2:
            raise ConfigurationError(
                f"price_boundaries takes exactly 2 rails, got {len(nics)}"
            )
        b = np.asarray(boundaries, dtype=np.float64)
        return self.price_candidates(
            nics, np.stack((b, size - b), axis=1), mode
        )

    # ------------------------------------------------------------------ #
    # rail-subset selection + split (the full §II-B decision)
    # ------------------------------------------------------------------ #

    def plan(
        self,
        nics: Sequence[Nic],
        size: int,
        mode: TransferMode,
        max_rails: Optional[int] = None,
        fixed_cost: float = 0.0,
    ) -> RailPlan:
        """Choose the rail subset and split that minimize completion.

        Every non-empty subset of ``nics`` (capped at ``max_rails``) is
        evaluated with an equal-completion split; ties favour fewer rails
        (cheaper).  ``fixed_cost`` is added per *additional* rail beyond
        the first — the offloading cost TO of equation (1), zero for
        rendezvous DMA chunks.

        For two-rail subsets the paper's dichotomy is used; larger subsets
        fall back to waterfilling.
        """
        nics = list(nics)
        if not nics:
            raise ConfigurationError("plan over zero NICs")
        # Safety net behind the engine's rails_to filtering: never plan
        # bytes onto a rail that is currently down.
        up = [n for n in nics if n.is_up]
        if not up:
            raise SchedulingError(
                f"no up rail to plan over: {[n.qualified_name for n in nics]}"
            )
        nics = up
        limit = len(nics) if max_rails is None else max(1, min(max_rails, len(nics)))

        # Split-decision cache: same shape → same plan, skip the solvers.
        # Degradation factors are part of the shape — a rail at half
        # bandwidth must not reuse plans computed while it was healthy.
        offsets = tuple(self._rail_offset(n) for n in nics)
        cache_key = (
            tuple(n.name for n in nics),
            size,
            mode,
            tuple(self._quantize(off) for off in offsets),
            limit,
            fixed_cost,
            tuple(n.bw_factor for n in nics),
        )
        cached = self._plan_cache.get(cache_key)
        if cached is not None:
            self.plan_cache_hits += 1
            subset_idx, sizes, times, iterations, completion = cached
            split = SplitResult(
                sizes=list(sizes),
                predicted_times=list(times),
                iterations=iterations,
            )
            subset = [nics[i] for i in subset_idx]
            used = [(n, s) for n, s in zip(subset, split.sizes) if s > 0]
            plan = RailPlan(
                nics=[n for n, _ in used],
                sizes=[s for _, s in used],
                predicted_completion=completion,
                split=split,
            )
            if self.hooks.on_plan:
                self.hooks.on_plan(
                    self.node, nics, offsets, size, mode, plan, iterations, True
                )
            return plan
        self.plan_cache_misses += 1

        all_rails = [
            (self._planning_estimator(n), off) for n, off in zip(nics, offsets)
        ]
        best: Optional[Tuple[float, int, Tuple[int, ...], SplitResult]] = None
        for k in range(1, limit + 1):
            for subset_idx in itertools.combinations(range(len(nics)), k):
                rails = [all_rails[i] for i in subset_idx]
                if k == 1:
                    est, off = rails[0]
                    split = SplitResult(
                        sizes=[size],
                        predicted_times=[off + est.transfer_time(size, mode)],
                        iterations=0,
                    )
                elif k == 2:
                    split = dichotomy_split(size, rails, mode)
                else:
                    split = waterfill_split(size, rails, mode)
                active = split.active_rails
                completion = split.predicted_completion + (
                    fixed_cost if active > 1 else 0.0
                )
                key = (completion, active)
                if best is None or key < (best[0], best[1]):
                    best = (completion, active, subset_idx, split)
        assert best is not None
        completion, _, subset_idx, split = best
        if len(self._plan_cache) >= _PLAN_CACHE_LIMIT:
            self._plan_cache.clear()
        self._plan_cache[cache_key] = (
            subset_idx,
            tuple(split.sizes),
            tuple(split.predicted_times),
            split.iterations,
            completion,
        )
        subset = [nics[i] for i in subset_idx]
        used = [(n, s) for n, s in zip(subset, split.sizes) if s > 0]
        plan = RailPlan(
            nics=[n for n, _ in used],
            sizes=[s for _, s in used],
            predicted_completion=completion,
            split=split,
        )
        if self.hooks.on_plan:
            self.hooks.on_plan(
                self.node, nics, offsets, size, mode, plan, split.iterations, False
            )
        return plan
