"""Generator-coroutine processes and waitables for the simulator.

A *process* is a generator that yields **waitables**:

* :class:`Timeout` — resume after a virtual delay;
* a :class:`Completion` — resume when someone triggers it (the yielded
  value of the ``yield`` expression is its payload): a :class:`SimEvent`,
  or an engine's message or receive.

A process runs until its generator returns; nothing waits on it.  Rank
programs and collectives are processes; the runtime below them (cores,
NICs, tasklets, compute threads) is callback chains.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, TYPE_CHECKING

from repro.util.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simtime.simulator import Simulator


class Waitable:
    """Base class: something a process may ``yield`` on."""

    __slots__ = ()

    def subscribe(self, sim: "Simulator", callback) -> None:
        """Arrange for ``callback(value)`` to run when this completes."""
        raise NotImplementedError


class Completion(Waitable):
    """The one-shot completion protocol: triggers once, with a value.

    Mirrors the "communication event" objects PIOMan detects: many
    waiters may subscribe, and all resume, in subscription order, one
    same-instant lane hop after the trigger (a waiter that subscribes
    after it resumes one hop after its subscribe).  Triggering twice is
    an error: protocol state machines in the engine rely on one-shot
    semantics to catch double completions.

    :class:`SimEvent` is the free-standing form; an engine's
    :class:`~repro.core.packets.Message` and
    :class:`~repro.core.packets.RecvHandle` are their own completions,
    so a send or a receive builds no event.  ``sim`` is the simulator
    whose lane resumes the waiters; a completion without one (a record
    built outside an engine) cannot be waited on.
    """

    __slots__ = ("sim", "triggered", "value", "_waiters")

    def __init__(self, sim: Optional["Simulator"] = None) -> None:
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        #: waiters in subscription order; built by the first subscribe
        self._waiters: Optional[List[Any]] = None

    def trigger(self, value: Any = None) -> None:
        """Complete with ``value``; waiters resume at the current instant."""
        if self.triggered:
            raise SimulationError(f"{self!r} triggered twice")
        self.triggered = True
        self.value = value
        waiters = self._waiters
        if waiters:
            self._waiters = None
            # Deferred same-instant delivery keeps trigger() safe to call
            # from anywhere, including from inside another waiter.
            lane = self.sim._lane
            args = (value,)
            for cb in waiters:
                lane.append((cb, args, None))

    def subscribe(self, sim: "Simulator", callback) -> None:
        if sim is not self.sim:
            if self.sim is None:
                raise SimulationError(f"{self!r} belongs to no simulator")
            raise SimulationError("waiting on an event from another simulator")
        if self.triggered:
            sim._lane.append((callback, (self.value,), None))
        elif self._waiters is None:
            self._waiters = [callback]
        else:
            self._waiters.append(callback)


class SimEvent(Completion):
    """A free-standing one-shot event carrying an optional payload."""

    __slots__ = ("name",)

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        super().__init__(sim)
        self.name = name

    def __repr__(self) -> str:
        state = "set" if self.triggered else "pending"
        return f"<SimEvent {self.name or hex(id(self))} {state}>"


class Timeout(Waitable):
    """Resume after ``delay`` µs; payload is ``value`` (default None)."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = delay
        self.value = value

    def subscribe(self, sim: "Simulator", callback) -> None:
        sim.call_later(self.delay, callback, self.value)


class Process:
    """A running generator coroutine.

    Every wait resumes through :meth:`_resume`.  An uncaught exception
    inside the generator propagates out of the event loop — tests rely
    on failures being loud, not swallowed.
    """

    __slots__ = ("sim", "gen", "name")

    def __init__(self, sim: "Simulator", gen: Iterator[Any], name: str = "") -> None:
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        sim._lane.append((self._resume, (None,), None))

    def __repr__(self) -> str:
        return f"<Process {self.name}>"

    def _resume(self, value: Any) -> None:
        try:
            yielded = self.gen.send(value)
        except StopIteration:
            return
        if not isinstance(yielded, Waitable):
            raise SimulationError(
                f"process {self.name!r} yielded {yielded!r}, not a Waitable"
            )
        yielded.subscribe(self.sim, self._resume)
