"""Structural guard: instrumented modules speak only the hook protocol.

Every fact an engine component records goes out as one ``hooks.on_*``
event; only the subscribers in ``repro.obs`` (and the invariant monitor
and calibration drift feed) know metric names, trace lanes and flight
record kinds.  This test parses the instrumented modules and fails when
one of them records around the protocol:

* calls ``.metrics.counter`` / ``.metrics.gauge`` / ``.metrics.histogram``;
* calls a tracer record method (``complete``, ``instant``,
  ``async_begin``, ``async_end``, ``counter``) on a ``tracer``;
* calls ``record`` or ``trigger`` on a ``flight`` recorder;
* calls a hook event (``on_*`` of :data:`repro.obs.hooks.EVENTS`) on
  anything but a ``hooks`` handle — e.g. straight on the monitor;
* stores an ``obs``, ``_obs`` or ``inv`` attribute.

Snapshot readers (``cluster.obs.metrics.snapshot()``...) stay allowed.
"""

import ast
import pathlib

import pytest

from repro.obs.hooks import EVENTS

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: the instrumented code: every hook site lives here
SCANNED = sorted(
    path
    for pkg in ("core", "hardware", "networks", "pioman", "threading", "api")
    for path in (SRC / pkg).rglob("*.py")
) + [SRC / "faults" / "injector.py"]

_METRIC_CALLS = {"counter", "gauge", "histogram"}
_TRACER_CALLS = {"complete", "instant", "async_begin", "async_end", "counter"}
_FLIGHT_CALLS = {"record", "trigger"}
_HANDLE_ATTRS = {"obs", "_obs", "inv"}


def _name(node) -> str:
    """The last name of a receiver expression (``a.b.tracer`` -> tracer)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def violations(source: str, filename: str = "<src>"):
    out = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            method, receiver = node.func.attr, _name(node.func.value)
            if method in _METRIC_CALLS and receiver == "metrics":
                out.append((node.lineno, f"metrics.{method}()"))
            elif method in _TRACER_CALLS and receiver in ("tracer", "tr"):
                out.append((node.lineno, f"tracer.{method}()"))
            elif method in _FLIGHT_CALLS and receiver == "flight":
                out.append((node.lineno, f"flight.{method}()"))
            elif method in EVENTS and receiver != "hooks":
                out.append((node.lineno, f"{receiver}.{method}() off the hooks"))
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute) and target.attr in _HANDLE_ATTRS:
                out.append((node.lineno, f"stores .{target.attr}"))
    return out


def test_scan_covers_the_instrumented_packages():
    names = {p.relative_to(SRC).as_posix() for p in SCANNED}
    for expected in (
        "core/engine.py",
        "core/scheduler.py",
        "core/prediction.py",
        "core/strategies/adaptive.py",
        "core/calibration/controller.py",
        "hardware/core.py",
        "networks/nic.py",
        "networks/switch.py",
        "networks/wire.py",
        "pioman/progress.py",
        "api/cluster.py",
        "api/collectives.py",
        "api/mpi.py",
        "faults/injector.py",
    ):
        assert expected in names


@pytest.mark.parametrize(
    "source",
    [
        "self.obs.metrics.counter('x').inc()",
        "obs.tracer.instant('n', 'l', 'x', 0.0)",
        "tr.async_end('n', 'l', 'x', 1, 0.0)",
        "cluster.obs.flight.trigger('why', 0.0)",
        "self.inv.on_send(msg)",
        "monitor.on_fault(1, action, 0.0)",
        "self.obs = obs",
        "nic.inv = monitor",
    ],
)
def test_checker_flags_a_bypass(source):
    assert violations(source)


def test_checker_allows_hooks_and_readers():
    source = (
        "if self.hooks.on_send:\n"
        "    self.hooks.on_send(msg)\n"
        "snap = cluster.obs.metrics.snapshot()\n"
        "hops = cluster.obs.collectives.hops()\n"
    )
    assert violations(source) == []


@pytest.mark.parametrize(
    "path", SCANNED, ids=lambda p: p.relative_to(SRC).as_posix()
)
def test_module_uses_only_the_hook_protocol(path):
    assert violations(path.read_text(), str(path)) == []
