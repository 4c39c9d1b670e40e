"""Discrete-event simulation kernel (virtual time in microseconds).

This is the substrate that replaces the paper's physical testbed: NICs,
wires, cores, tasklets and the progress engine are all driven by one
:class:`Simulator` clock.  The kernel is deliberately generic — nothing in
it knows about networking — so it is unit-testable in isolation and
reusable by every other subpackage.

Two programming styles are supported and freely mixable:

* **callback style** — ``sim.schedule(delay, fn, *args)`` (returns a
  cancellable handle), ``sim.call_later(delay, fn, *args)`` for a timer
  nobody cancels, ``sim.call_soon(fn, *args)`` for the current instant,
  and ``resource.acquire(fn, *args)`` to claim a :class:`Resource`;
* **process style** — generator coroutines spawned with ``sim.spawn`` that
  ``yield`` waitables (:class:`Timeout`, or a :class:`Completion` such as
  a :class:`SimEvent`) just like SimPy processes.

The runtime (cores, NICs, tasklets, compute threads) is written in the
callback style; rank programs and collectives are processes.  A
:class:`Completion` is the one-shot protocol behind :class:`SimEvent`;
an engine's messages and receives implement it themselves, so a send or
a receive builds no kernel object.  A :class:`Resource` is a ticket
lock whose grant is an int ticket, so a claim builds none either.

Events for a later instant wait in one binary heap of
``(time, seq, callback, args, handle)`` entries that the event loop
pops itself; events for the current instant wait in a FIFO lane beside
it, which pops them in the heap's own order without a sift each.  Only
``schedule`` and ``schedule_at`` build a :class:`ScheduledEvent`
handle: a process start, a wake-up, a resource grant, a timeout or a
core's occupancy end costs one heap or lane entry and nothing else.
:meth:`Simulator.run` (``run(until=)`` for a bounded window) is the one
event loop.  While it runs, the cyclic collector's full passes wait
(young passes do not): a run's records stay alive until it ends, so a
full pass inside it would only re-scan them.  The caller's ``gc``
thresholds are restored exactly when it returns.
"""

from repro.simtime.events import ScheduledEvent
from repro.simtime.simulator import Simulator
from repro.simtime.process import Completion, Process, SimEvent, Timeout
from repro.simtime.resources import Resource

__all__ = [
    "ScheduledEvent",
    "Simulator",
    "Process",
    "Completion",
    "SimEvent",
    "Timeout",
    "Resource",
]
