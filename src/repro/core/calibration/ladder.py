"""The safe-mode strategy fallback ladder.

When rail confidence collapses, blindly trusting the sampled curves is
worse than not using them: a hetero split computed from a stale profile
piles bytes onto the rail that can least afford them.  The ladder
degrades the planning mode in three steps as the *minimum* rail
confidence drops:

    FULL    — trust the samples: dichotomy/waterfill hetero split
    PARTIAL — distrust the ratios, keep the rails: equal-size iso split
    SINGLE  — distrust the comparison itself: whole message on the
              single most-trusted rail

Transitions are hysteretic twice over: each boundary has distinct
enter/exit thresholds (``*_EXIT`` below ``*_ENTER``), and a minimum
:data:`DWELL` time must pass between any two transitions — so
confidence noise around a boundary cannot make the planner oscillate
between split shapes (which would thrash the predictor's plan cache and
produce unstable traffic patterns).
"""

from __future__ import annotations

from enum import IntEnum
from typing import List, Tuple

#: leave FULL below this confidence; return to it at or above FULL_ENTER
FULL_EXIT = 0.6
FULL_ENTER = 0.75
#: the same pair for the PARTIAL/SINGLE boundary (PARTIAL_ENTER must not
#: exceed FULL_EXIT, or the bands would overlap)
PARTIAL_EXIT = 0.25
PARTIAL_ENTER = 0.4
#: minimum simulated µs between two transitions
DWELL = 200.0


class TrustLevel(IntEnum):
    """Planning modes, ordered by how much of the profile they trust."""

    SINGLE = 0
    PARTIAL = 1
    FULL = 2


class FallbackLadder:
    """Hysteretic three-level trust state machine for one sending node."""

    def __init__(self) -> None:
        self.level = TrustLevel.FULL
        self._last_transition: float = float("-inf")
        #: (time, from, to, confidence) per transition, in order
        self.transitions: List[Tuple[float, TrustLevel, TrustLevel, float]] = []

    def __repr__(self) -> str:
        return (
            f"<FallbackLadder {self.level.name}, "
            f"{len(self.transitions)} transition(s)>"
        )

    def update(self, confidence: float, now: float) -> TrustLevel:
        """Fold the current minimum rail confidence; return the level.

        At most one step per call, and only after :data:`DWELL` µs have
        passed since the previous transition.
        """
        if now - self._last_transition < DWELL:
            return self.level
        level = self.level
        target = level
        if level is TrustLevel.FULL:
            if confidence < FULL_EXIT:
                target = TrustLevel.PARTIAL
        elif level is TrustLevel.PARTIAL:
            if confidence < PARTIAL_EXIT:
                target = TrustLevel.SINGLE
            elif confidence >= FULL_ENTER:
                target = TrustLevel.FULL
        else:  # SINGLE
            if confidence >= PARTIAL_ENTER:
                target = TrustLevel.PARTIAL
        if target is not level:
            self.level = target
            self._last_transition = now
            self.transitions.append((now, level, target, confidence))
        return self.level
