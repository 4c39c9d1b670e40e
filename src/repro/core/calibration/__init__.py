"""Estimator drift defense: the closed-loop calibration subsystem.

The paper's optimization chain (sampling → estimation → idle prediction
→ hetero split) trusts its launch-time profiles forever.  This package
closes the loop (DESIGN A8/A9): a :class:`DriftDetector` watches the
per-chunk prediction-error stream, a :class:`CalibrationController`
re-samples drifting rails *online* (blending fresh curves into the
immutable estimators) and degrades planning along the
:class:`FallbackLadder` while confidence is low.

Off by default: nothing is subscribed to the hook stream and
``engine.calib`` is ``None`` — with calibration off, simulated
timestamps and exported artefacts are byte-identical to a build without
this package.  See ``docs/calibration.md``.
"""

from repro.core.calibration.controller import (
    CalibrationController,
    ResampleRecord,
    install_calibration,
)
from repro.core.calibration.drift import BandState, DriftDetector
from repro.core.calibration.ladder import FallbackLadder, TrustLevel

__all__ = [
    "BandState",
    "CalibrationController",
    "DriftDetector",
    "FallbackLadder",
    "ResampleRecord",
    "TrustLevel",
    "install_calibration",
]
