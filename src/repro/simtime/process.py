"""Generator-coroutine processes and waitables for the simulator.

A *process* is a generator that yields **waitables**:

* :class:`Timeout` — resume after a virtual delay;
* :class:`SimEvent` — resume when someone triggers the event (the yielded
  value of the ``yield`` expression is the event's payload);
* :class:`Process` — resume when another process terminates (payload is
  its return value);
* :class:`AllOf` / :class:`AnyOf` — barrier / race over waitables.

Processes can be cancelled asynchronously with :meth:`Process.interrupt`,
which raises :class:`Interrupt` inside the generator at its current yield
point — this is how the engine models preempting a computing thread with a
signal (paper §III-D).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional

from repro.simtime.simulator import Simulator
from repro.util.errors import SimulationError


class Interrupt(Exception):
    """Raised inside a process generator when it is interrupted."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Waitable:
    """Base class: something a process may ``yield`` on."""

    __slots__ = ()

    def subscribe(self, sim: Simulator, callback) -> None:
        """Arrange for ``callback(value)`` to run when this completes."""
        raise NotImplementedError


class SimEvent(Waitable):
    """A one-shot triggerable event carrying an optional payload.

    Mirrors the "communication event" objects PIOMan detects: many waiters
    may subscribe; all are resumed (in subscription order) when the event
    triggers.  Triggering twice is an error — protocol state machines in
    the engine rely on one-shot semantics to catch double completions.
    """

    __slots__ = ("sim", "name", "triggered", "value", "_callbacks")

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.triggered = False
        self.value: Any = None
        #: waiters in subscription order; built by the first subscribe
        self._callbacks: Optional[List[Any]] = None

    def __repr__(self) -> str:
        state = "set" if self.triggered else "pending"
        return f"<SimEvent {self.name or hex(id(self))} {state}>"

    def trigger(self, value: Any = None) -> None:
        """Fire the event; waiters resume at the current instant."""
        if self.triggered:
            raise SimulationError(f"{self!r} triggered twice")
        self.triggered = True
        self.value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = None
            # Deferred same-instant delivery keeps trigger() safe to call
            # from anywhere, including from inside another waiter.
            lane = self.sim._lane
            args = (value,)
            for cb in callbacks:
                lane.append((cb, args, None))

    def subscribe(self, sim: Simulator, callback) -> None:
        if sim is not self.sim:
            raise SimulationError("waiting on an event from another simulator")
        if self.triggered:
            sim._lane.append((callback, (self.value,), None))
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)


class Timeout(Waitable):
    """Resume after ``delay`` µs; payload is ``value`` (default None)."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = delay
        self.value = value

    def subscribe(self, sim: Simulator, callback) -> None:
        sim.schedule(self.delay, callback, self.value)


class AllOf(Waitable):
    """Barrier: completes when *all* children complete.

    Payload is the list of child payloads in constructor order — the
    natural shape for "wait for every chunk of a split message".
    """

    def __init__(self, waitables: Iterable[Waitable]) -> None:
        self.children = list(waitables)
        if not self.children:
            raise SimulationError("AllOf of zero waitables")

    def subscribe(self, sim: Simulator, callback) -> None:
        results: List[Any] = [None] * len(self.children)
        remaining = [len(self.children)]

        def make_child_cb(i: int):
            def child_cb(value: Any) -> None:
                results[i] = value
                remaining[0] -= 1
                if remaining[0] == 0:
                    callback(results)

            return child_cb

        for i, child in enumerate(self.children):
            child.subscribe(sim, make_child_cb(i))


class AnyOf(Waitable):
    """Race: completes when the *first* child completes.

    Payload is ``(index, value)`` of the winner.  Later completions are
    ignored (the race result is latched).
    """

    def __init__(self, waitables: Iterable[Waitable]) -> None:
        self.children = list(waitables)
        if not self.children:
            raise SimulationError("AnyOf of zero waitables")

    def subscribe(self, sim: Simulator, callback) -> None:
        done = [False]

        def make_child_cb(i: int):
            def child_cb(value: Any) -> None:
                if not done[0]:
                    done[0] = True
                    callback((i, value))

            return child_cb

        for i, child in enumerate(self.children):
            child.subscribe(sim, make_child_cb(i))


class Process(Waitable):
    """A running generator coroutine; itself waitable (join semantics).

    The generator's ``return`` value becomes the join payload.  An
    uncaught exception inside the generator propagates out of the event
    loop — tests rely on failures being loud, not swallowed.
    """

    __slots__ = ("sim", "gen", "name", "alive", "result", "_done", "_wake")

    def __init__(self, sim: Simulator, gen: Iterator[Any], name: str = "") -> None:
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.alive = True
        self.result: Any = None
        #: the join event, built when something first joins
        self._done: Optional[SimEvent] = None
        #: the callback every wait of this process resumes through
        self._wake = self._waker()
        sim._processes += 1
        sim._lane.append((self._wake, (None,), None))

    def __repr__(self) -> str:
        state = "alive" if self.alive else "done"
        return f"<Process {self.name} {state}>"

    # -- waitable protocol ------------------------------------------------

    def subscribe(self, sim: Simulator, callback) -> None:
        done = self._done
        if done is None:
            done = self._done = SimEvent(self.sim, name=f"{self.name}.done")
            if not self.alive:
                done.trigger(self.result)
        done.subscribe(sim, callback)

    # -- driving the generator --------------------------------------------

    def _waker(self):
        def wake(value: Any) -> None:
            # Only the current waker resumes: one left pending by a wait
            # the process was interrupted out of is stale.
            if self._wake is wake:
                try:
                    yielded = self.gen.send(value)
                except StopIteration as stop:
                    self._finish(stop.value)
                    return
                self._await(yielded)

        return wake

    def _resume_throw(self, exc: BaseException) -> None:
        if not self.alive:
            return
        self._wake = self._waker()
        try:
            yielded = self.gen.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        self._await(yielded)

    def _await(self, yielded: Any) -> None:
        if not isinstance(yielded, Waitable):
            raise SimulationError(
                f"process {self.name!r} yielded {yielded!r}, not a Waitable"
            )
        yielded.subscribe(self.sim, self._wake)

    def _finish(self, result: Any) -> None:
        self.alive = False
        self.result = result
        self._wake = None  # breaks the process <-> waker cycle
        self.sim._processes -= 1
        if self._done is not None:
            self._done.trigger(result)

    # -- external control ---------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at its yield point.

        Models signal-based preemption (paper: 6 µs to preempt a computing
        thread so a packet submission can occur).  Interrupting a finished
        process is an error — callers should check :attr:`alive`.
        """
        if not self.alive:
            raise SimulationError(f"interrupting finished process {self.name!r}")
        self.sim.call_soon(self._resume_throw, Interrupt(cause))
