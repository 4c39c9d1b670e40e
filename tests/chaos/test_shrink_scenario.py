"""Shrinking replays the soak's own scenario.

A planted bug that only a ``silent_degrade`` episode trips: the
invariant monitor raises whenever such an action fires.  Only the
silent pool draws those episodes, so a soak with ``silent=True`` fails
on the seed, and :func:`repro.faults.shrink` must reduce it under the
same settings — the schedule drawn with ``silent``, run with the drift
loop armed — or the shrunk schedule holds no silent episode at all.
"""

import pytest

from repro.core.invariants import InvariantMonitor
from repro.faults import ChaosSchedule, run_scenario, soak

#: a seed whose draw differs with and without ``silent``
SEED = 7


@pytest.fixture
def silent_degrade_bug(monkeypatch):
    """Reintroduce a bug only silent degradation exposes."""
    orig = InvariantMonitor.on_fault

    def buggy(self, rule_id, action, now, *rest):
        orig(self, rule_id, action, now, *rest)
        if action.action == "silent_degrade":
            self._violate(
                "planted-silent", f"silent_degrade on {action.nic}", now
            )

    monkeypatch.setattr(InvariantMonitor, "on_fault", buggy)


def test_the_plain_pool_never_trips_the_bug(silent_degrade_bug):
    assert run_scenario(SEED).ok


def test_soak_shrinks_under_its_own_settings(silent_degrade_bug):
    report = soak([SEED], silent=True, calibration=True, shrink_failures=True)
    assert [r.seed for r in report.violations] == [SEED]
    assert report.violations[0].violation.invariant == "planted-silent"
    shrunk = report.shrunk[SEED]
    assert shrunk["silent"] is True
    assert [e["kind"] for e in shrunk["episodes"]] == ["silent_degrade"]
    replay = run_scenario(
        SEED,
        chaos=ChaosSchedule.from_json(shrunk),
        silent=True,
        calibration=True,
    )
    assert replay.violation.invariant == "planted-silent"
