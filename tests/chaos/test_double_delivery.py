"""Acceptance: a reintroduced double-delivery bug is caught and shrunk.

The engine's receiver-side gate (``Message.register_delivery`` +
``NmadEngine._account_delivery``) is what keeps delivery exactly-once.
These tests knock that gate out with a monkeypatch — every chunk is
accounted twice, the classic retry-races-original bug — and assert the
invariant monitor catches it with the chaos seed attached and that
:func:`repro.faults.shrink` reduces the failing scenario to a minimal
schedule.
"""

import pytest

from repro.core.engine import NmadEngine
from repro.core.packets import Message
from repro.faults import run_scenario, shrink, soak

SEED = 7


@pytest.fixture
def double_delivery_bug(monkeypatch):
    """Reintroduce the bug: dedup disabled, every chunk accounted twice."""
    orig = NmadEngine._account_delivery
    monkeypatch.setattr(Message, "register_delivery", lambda self, key: True)

    def buggy(self, *delivery):
        orig(self, *delivery)
        orig(self, *delivery)

    monkeypatch.setattr(NmadEngine, "_account_delivery", buggy)


def test_scenario_is_clean_without_the_bug():
    assert run_scenario(SEED).ok


def test_monitor_catches_the_bug_with_seed_attached(double_delivery_bug):
    result = run_scenario(SEED)
    assert not result.ok
    v = result.violation
    assert v is not None
    assert v.invariant == "chunk-exactly-once"
    assert v.seed == SEED
    assert v.schedule is not None and v.schedule["seed"] == SEED
    assert v.trail, "violation should carry the observation trail"
    assert "delivered twice" in v.detail


def test_shrink_reduces_to_a_minimal_schedule(double_delivery_bug):
    base = len(run_scenario(SEED).violation.schedule["episodes"])
    minimal = shrink(SEED, max_runs=48)
    # The bug fires on the very first delivery, faults or not — the
    # 1-minimal schedule is empty.
    assert len(minimal.episodes) == 0
    assert len(minimal.episodes) < base
    replay = run_scenario(SEED, chaos=minimal)
    assert not replay.ok
    assert replay.violation.invariant == "chunk-exactly-once"


def test_soak_reports_and_shrinks_failures(double_delivery_bug):
    report = soak([SEED], shrink_failures=True)
    assert len(report.violations) == 1
    assert SEED in report.shrunk
    assert report.shrunk[SEED]["episodes"] == []
    summary = report.summary()
    assert "1 violation(s)" in summary
    assert "chunk-exactly-once" in summary
    assert "shrunk to 0 episode(s)" in summary
