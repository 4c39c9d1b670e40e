"""Drift detection over the prediction-error stream.

The estimator curves are sampled once at launch (§III-C) and then
trusted forever; a silently degraded rail turns every later prediction
into a systematic lie.  The :class:`DriftDetector` watches the same
per-chunk ``(predicted, actual)`` pairs the accuracy telemetry records
and maintains, per ``(rail, size band)``, an EWMA of the *relative*
error:

    ewma ← (1 − α)·ewma + α·|actual − predicted| / predicted

with α = :data:`ALPHA`.  Three mechanisms keep it from flapping:

* **threshold hysteresis** — a band enters the *drifting* state when its
  EWMA crosses :data:`DRIFT_THRESHOLD` and only leaves it again below
  the strictly lower :data:`CLEAR_THRESHOLD`;
* **minimum evidence** — no trigger before ``min_samples`` observations
  landed in the band (one noisy chunk is not drift);
* **cooldown** — after a trigger on some rail, further triggers for the
  same rail are suppressed for ``cooldown`` simulated µs, giving the
  re-sampled profile time to take effect before being judged.

Each rail also gets a **confidence score** in ``[0, 1]``: the worst
band's EWMA mapped through ``max(0, 1 − ewma / CONFIDENCE_SCALE)``.
Fresh rails (no evidence) score 1.0 — trust until proven wrong, exactly
like the paper's engine does.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.util.errors import ConfigurationError

#: EWMA weight of the newest observation
ALPHA = 0.3
#: EWMA above which a band enters the drifting state
DRIFT_THRESHOLD = 0.15
#: EWMA below which a drifting band is healthy again (the gap to
#: DRIFT_THRESHOLD is the hysteresis)
CLEAR_THRESHOLD = 0.05
#: EWMA value at which a rail's confidence reaches 0
CONFIDENCE_SCALE = 0.5


class BandState:
    """Streaming error state of one ``(rail, size band)`` cell."""

    __slots__ = ("ewma", "samples", "drifting", "last_error", "last_update")

    def __init__(self) -> None:
        self.ewma: float = 0.0
        self.samples: int = 0
        self.drifting: bool = False
        self.last_error: float = 0.0
        self.last_update: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "ewma": self.ewma,
            "samples": self.samples,
            "drifting": self.drifting,
            "last_error": self.last_error,
            "last_update": self.last_update,
        }


class DriftDetector:
    """Per-(rail, size-band) EWMA drift detection with hysteresis.

    Parameters
    ----------
    min_samples:
        Observations required in a band before it may trigger.
    cooldown:
        Simulated µs after a trigger during which the same rail cannot
        trigger again.
    """

    def __init__(self, min_samples: int = 3, cooldown: float = 300.0) -> None:
        if min_samples < 1:
            raise ConfigurationError(f"min_samples must be >= 1, got {min_samples}")
        if cooldown < 0.0:
            raise ConfigurationError(f"negative cooldown: {cooldown}")
        self.min_samples = min_samples
        self.cooldown = cooldown
        self._bands: Dict[Tuple[str, str], BandState] = {}
        self._last_trigger: Dict[str, float] = {}

    def __repr__(self) -> str:
        drifting = sum(1 for b in self._bands.values() if b.drifting)
        return f"<DriftDetector {len(self._bands)} band(s), {drifting} drifting>"

    # ------------------------------------------------------------------ #
    # observation
    # ------------------------------------------------------------------ #

    def observe(
        self, rail: str, band: str, rel_error: float, now: float
    ) -> bool:
        """Fold one relative error into ``(rail, band)``.

        Returns True exactly when this observation *newly* pushes the
        band into the drifting state (EWMA crossed ``DRIFT_THRESHOLD``
        with enough evidence) and the rail is out of cooldown — i.e. the
        caller should re-sample the rail now.
        """
        if rel_error < 0.0:
            raise ConfigurationError(f"negative relative error: {rel_error}")
        state = self._bands.get((rail, band))
        if state is None:
            state = self._bands[(rail, band)] = BandState()
        if state.samples == 0:
            state.ewma = rel_error
        else:
            state.ewma += ALPHA * (rel_error - state.ewma)
        state.samples += 1
        state.last_error = rel_error
        state.last_update = now
        if state.drifting:
            # Hysteresis: only a drop below the *lower* bound clears.
            if state.ewma < CLEAR_THRESHOLD:
                state.drifting = False
            return False
        if state.ewma <= DRIFT_THRESHOLD:
            return False
        if state.samples < self.min_samples:
            return False
        state.drifting = True
        last = self._last_trigger.get(rail)
        if last is not None and now - last < self.cooldown:
            return False
        self._last_trigger[rail] = now
        return True

    # ------------------------------------------------------------------ #
    # confidence
    # ------------------------------------------------------------------ #

    def band_error(self, rail: str, band: str) -> float:
        """Current EWMA of one band (0.0 when never observed)."""
        state = self._bands.get((rail, band))
        return state.ewma if state is not None else 0.0

    def confidence(self, rail: str) -> float:
        """Worst-band confidence of a rail in ``[0, 1]`` (1.0 = fresh)."""
        worst = 0.0
        seen = False
        for (r, _), state in self._bands.items():
            if r == rail and state.samples > 0:
                seen = True
                if state.ewma > worst:
                    worst = state.ewma
        if not seen:
            return 1.0
        conf = 1.0 - worst / CONFIDENCE_SCALE
        return conf if conf > 0.0 else 0.0

    def rails(self) -> List[str]:
        return sorted({rail for rail, _ in self._bands})

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def reset_rail(self, rail: str) -> None:
        """Forget a rail's evidence (after its profile was re-sampled).

        The cooldown stamp survives on purpose: errors from chunks
        predicted with the *old* profile may still stream in, and the
        rail must not re-trigger on them immediately.
        """
        for key in [k for k in self._bands if k[0] == rail]:
            del self._bands[key]

    def snapshot(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Nested ``{rail: {band: state}}`` view for reports/JSON."""
        out: Dict[str, Dict[str, Dict[str, float]]] = {}
        for (rail, band), state in sorted(self._bands.items()):
            out.setdefault(rail, {})[band] = state.as_dict()
        return out
