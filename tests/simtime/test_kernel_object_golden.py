"""Golden kernel-object budget: what the four canonical episodes build.

A send, a receive and a core or NIC grant build no kernel object: a
message and a receive are their own completions, and a grant is a
ticket.  A timer nobody cancels (a core's occupancy end, a DMA's end,
a compute thread's deadline, a tasklet's signalling cost, a
``Timeout``) is a heap or lane entry with no handle, and tasklets and
compute threads are callback chains, not processes.  This test pins
how many :class:`~repro.simtime.SimEvent`,
:class:`~repro.simtime.Process` and
:class:`~repro.simtime.ScheduledEvent` objects each episode of
``test_event_count_golden`` builds, next to its message count.  What
remains comes from rank programs (a process each), compute threads
(a ``finished`` event each, a ``released`` event per preemption), the
``tx_done`` events of offloaded sends, and the handles of what can be
cancelled: wire deliveries, retry watchdogs and ``schedule_at`` calls.
So the counts only move when one of those does, or when a per-message
object creeps back in.  Each class is counted at its ``__init__``, the
one place the kernel builds it.

Regenerate the golden with
``PYTHONPATH=src:. python tests/simtime/test_kernel_object_golden.py``,
and only with a stated reason.
"""

import json
import pathlib

import pytest

from repro.simtime import Process, ScheduledEvent, SimEvent
from tests.simtime import test_event_count_golden as event_golden

GOLDEN = pathlib.Path(__file__).with_name("kernel_object_golden.json")

#: the kernel classes counted, by golden key
KINDS = {
    "SimEvent": SimEvent,
    "Process": Process,
    "ScheduledEvent": ScheduledEvent,
}


def record(name):
    """Run one episode with every counted constructor wrapped."""
    built = dict.fromkeys(KINDS, 0)
    saved = {kind: cls.__init__ for kind, cls in KINDS.items()}

    def counting(kind, init):
        def __init__(self, *args, **kwargs):
            built[kind] += 1
            init(self, *args, **kwargs)

        return __init__

    for kind, cls in KINDS.items():
        cls.__init__ = counting(kind, saved[kind])
    try:
        cluster, _ = event_golden.EPISODES[name]()
    finally:
        for kind, cls in KINDS.items():
            cls.__init__ = saved[kind]
    messages = sum(len(e.sent_log) for e in cluster.engines.values())
    return {"messages": messages, **built}


def test_golden_covers_every_episode():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(event_golden.EPISODES)


@pytest.mark.parametrize("name", sorted(event_golden.EPISODES))
def test_episode_builds_its_kernel_object_budget(name):
    got = record(name)
    want = json.loads(GOLDEN.read_text())[name]
    assert got == want, f"{name}: kernel objects built {got}, golden {want}"


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {name: record(name) for name in sorted(event_golden.EPISODES)},
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN}")
