"""Structural guard: the kernel's event storage is private to ``simtime``.

The ordering argument of the event loop (``docs/performance.md``, "1.
Event queue": heap entries due now fire first, then the lane, then the
clock advances) holds for code that schedules through the simulator's
methods.  It is a statement about ``repro.simtime`` alone only while no
other module pushes to or pops from that storage directly.  This test
parses every module under ``src/repro`` outside ``simtime/`` and fails
when one touches:

* ``_lane``, ``_lane_dead`` or ``_heap`` on any receiver;
* the heap's ``seq`` counter ``_seq`` or its tombstone count ``_dead``
  on a receiver named ``sim`` (``sim._seq``, ``self.sim._dead``,
  ``cluster.sim._seq``...): other classes use those names too;

as an attribute or through ``getattr``/``setattr``/``hasattr`` with a
literal name.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: every module but the kernel's own
SCANNED = sorted(
    path for path in SRC.rglob("*.py")
    if path.relative_to(SRC).parts[0] != "simtime"
)

_STORAGE = {"_lane", "_lane_dead", "_heap"}
#: flagged only on a receiver named ``sim``
_SIM_STORAGE = {"_seq", "_dead"}
_REFLECTION = {"getattr", "setattr", "hasattr"}


def _name(node) -> str:
    """The last name of a receiver expression (``self.sim`` -> sim)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _touch(receiver, attr: str):
    if attr in _STORAGE:
        return f".{attr}"
    if attr in _SIM_STORAGE and _name(receiver) == "sim":
        return f"sim.{attr}"
    return None


def violations(source: str, filename: str = "<src>"):
    out = []
    for node in ast.walk(ast.parse(source, filename)):
        found = None
        if isinstance(node, ast.Attribute):
            found = _touch(node.value, node.attr)
        elif (
            isinstance(node, ast.Call)
            and _name(node.func) in _REFLECTION
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            found = _touch(node.args[0], node.args[1].value)
        if found:
            out.append((node.lineno, found))
    return out


def test_scan_covers_every_package_but_simtime():
    packages = {p.relative_to(SRC).parts[0] for p in SCANNED}
    for expected in (
        "api", "bench", "core", "faults", "hardware", "networks", "obs",
        "pioman", "threading", "util",
    ):
        assert expected in packages
    assert "simtime" not in packages


@pytest.mark.parametrize(
    "source",
    [
        "self.sim._lane.append((cb, (), None))",
        "sim._lane_dead += 1",
        "heap = cluster.sim._queue._heap",
        "self._seq = sim._seq",
        "dead = self.sim._dead",
        "cluster.sim._dead -= 1",
        "getattr(sim, '_lane')",
        "setattr(self.sim, '_seq', 0)",
        "hasattr(cluster.sim, '_dead')",
    ],
)
def test_checker_flags_a_bypass(source):
    assert violations(source)


def test_checker_allows_the_public_kernel_api():
    source = (
        "ev = self.sim.schedule(1.0, fn, x)\n"
        "sim.schedule_at(t, fn)\n"
        "sim.call_soon(fn)\n"
        "sim.call_later(2.0, fn, x)\n"
        "sim.cancel(ev)\n"
        "n = sim.pending_events + sim.events_processed\n"
        "self._queue.append(x)\n"
        "self._seq += 1\n"
        "rule._dead = 0\n"
        "port._queue.popleft()\n"
        "self._lanes.setdefault(lane, [])\n"
        "self._message_lane(node)\n"
        "getattr(sim, 'now')\n"
    )
    assert violations(source) == []


def test_no_module_outside_simtime_touches_the_event_storage():
    offenders = [
        f"{path.relative_to(SRC)}:{line}: {what}"
        for path in SCANNED
        for line, what in violations(path.read_text(), str(path))
    ]
    assert offenders == []
