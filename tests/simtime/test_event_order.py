"""Firing order of the heap-plus-lane kernel against a one-heap reference.

:class:`~repro.simtime.simulator.Simulator` keeps events for a later
instant in a heap and events for the current instant in a FIFO lane.
The contract is that this is *observationally identical* to one heap
ordered by ``(time, seq)`` for every event: same callbacks, same order,
same clock readings, same pending counts.  The hypothesis
property below drives both with the same random nested programs and
compares everything they observe.  ``RefSim`` is that one-heap kernel,
kept here as the oracle; it builds a handle for every event, and takes
a handle-free ``call_later`` timer as a handle it never cancels.
"""

from heapq import heappop, heappush
from itertools import count

from hypothesis import example, given, settings, strategies as st

from repro.simtime import SimEvent, Simulator


class _RefHandle:
    __slots__ = ("time", "callback", "args", "cancelled", "fired")

    def __init__(self, time, callback, args):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False


class RefSim:
    """Every event in one heap keyed on ``(time, seq)``."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap = []
        self._seq = count()
        self.pending_events = 0
        self.events_processed = 0

    def schedule(self, delay, callback, *args):
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        assert time >= self.now
        h = _RefHandle(time, callback, args)
        heappush(self._heap, (time, next(self._seq), h))
        self.pending_events += 1
        return h

    def call_later(self, delay, callback, *args) -> None:
        self.schedule(delay, callback, *args)

    def cancel(self, h) -> None:
        if not h.cancelled and not h.fired:
            h.cancelled = True
            self.pending_events -= 1

    def _pop(self, bound):
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        if not heap or (bound is not None and heap[0][0] > bound):
            return None
        h = heappop(heap)[2]
        h.fired = True
        self.pending_events -= 1
        return h

    def _fire(self, h) -> None:
        self.now = h.time
        self.events_processed += 1
        h.callback(*h.args)

    def run(self, until=None):
        while (h := self._pop(until)) is not None:
            self._fire(h)
        if until is not None and self.now < until:
            self.now = until
        return self.now


class RefEvent:
    """``SimEvent`` on the reference: every wake-up a zero-delay event."""

    def __init__(self, sim: RefSim) -> None:
        self.sim = sim
        self.triggered = False
        self.value = None
        self._callbacks = []

    def trigger(self, value=None) -> None:
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            self.sim.schedule(0.0, cb, value)

    def subscribe(self, sim, callback) -> None:
        if self.triggered:
            sim.schedule(0.0, callback, self.value)
        else:
            self._callbacks.append(callback)


#: 0.5 and 1.0 vanish into a clock at 2**53 (its spacing is 2.0);
#: 1e-9 vanishes at 2**53 but not at 0
_delays = st.sampled_from([0.0, 0.0, 1e-9, 0.5, 1.0, 2.0, 3.0])
_events = st.integers(min_value=0, max_value=2)

#: ``after``/``at`` return a cancellable handle; ``later`` is a timer
#: with none
_timers = st.sampled_from(["after", "at", "later"])
_schedules = st.tuples(_timers, _delays, st.just([]))
_leaves = st.one_of(
    _schedules,
    _schedules,
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=64)),
    st.tuples(st.just("trigger"), _events),
    st.tuples(st.just("subscribe"), _events, st.just([])),
)
_actions = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.tuples(_timers, _delays, st.lists(children, max_size=3)),
        st.tuples(st.just("subscribe"), _events, st.lists(children, max_size=3)),
    ),
    max_leaves=30,
)
_script = st.lists(
    st.one_of(
        _actions,
        _actions,
        st.tuples(st.just("run"), st.one_of(st.none(), _delays)),
    ),
    min_size=1,
    max_size=25,
)


def play(sim, make_event, script, start):
    """Run ``script`` on ``sim`` from clock ``start``; return everything
    it observed."""
    log = [("start", sim.run(until=start))]
    handles = []
    events = [make_event(sim) for _ in range(3)]
    labels = count()

    def fire(label, children, value=None):
        log.append(("fire", label, sim.now, value))
        for child in children:
            perform(child)

    def perform(action):
        kind = action[0]
        if kind == "later":
            _, delay, children = action
            sim.call_later(delay, fire, next(labels), children)
        elif kind in ("after", "at"):
            _, delay, children = action
            label = next(labels)
            if kind == "after":
                h = sim.schedule(delay, fire, label, children)
            else:
                h = sim.schedule_at(sim.now + delay, fire, label, children)
            handles.append(h)
        elif kind == "cancel":
            if handles:
                sim.cancel(handles[action[1] % len(handles)])
        elif kind == "trigger":
            ev = events[action[1]]
            if not ev.triggered:
                ev.trigger(next(labels))
        else:
            _, i, children = action
            label = next(labels)
            events[i].subscribe(
                sim, lambda value, label=label, children=children: fire(label, children, value)
            )

    for op in script:
        if op[0] == "run":
            until = None if op[1] is None else sim.now + op[1]
            log.append(("run", sim.run(until)))
        else:
            perform(op)
        log.append(("pending", sim.pending_events, sim.now))
    sim.run()
    log.append(("end", sim.pending_events, sim.now, sim.events_processed))
    return log


@given(script=_script, start=st.sampled_from([0.0, 2.0**53]))
@settings(max_examples=200, deadline=None)
# a lane entry, then a delay the clock absorbs: both are due now, in
# push order
@example(
    script=[("after", 0.0, []), ("after", 1.0, []), ("run", None)],
    start=2.0**53,
)
# an entry pushed for t=1 before the clock got there precedes the lane
# entries its predecessor at t=1 pushes
@example(
    script=[("after", 1.0, [("after", 0.0, [])]), ("after", 1.0, [])],
    start=0.0,
)
# handle-free timers: a zero delay and an absorbed one take the lane
# between cancellable lane entries, a real one takes the next heap seq
@example(
    script=[
        ("after", 0.0, []),
        ("later", 1.0, [("later", 0.0, []), ("after", 0.0, [])]),
        ("later", 0.0, []),
        ("at", 2.0, [("cancel", 0)]),
        ("later", 2.0, []),
        ("run", None),
    ],
    start=2.0**53,
)
@example(
    script=[
        ("later", 1.0, [("later", 1.0, []), ("after", 1.0, [])]),
        ("after", 1.0, [("later", 0.0, [])]),
        ("cancel", 0),
        ("run", 1.0),
        ("later", 1e-9, []),
    ],
    start=0.0,
)
def test_lane_kernel_fires_like_one_heap(script, start):
    """Any mix of nested schedules, cancels, event triggers and bounded
    or unbounded runs fires the same callbacks at the same instants on
    both kernels."""
    got = play(Simulator(), SimEvent, script, start)
    want = play(RefSim(), RefEvent, script, start)
    assert got == want


class TestPendingEvents:
    """The drain audit in ``core/invariants.py`` reads this count."""

    def test_pending_events_counts_live_lane_entries(self):
        sim = Simulator()
        dead = sim.schedule(0.0, lambda: None)
        sim.schedule(0.0, lambda: None)
        sim.call_soon(lambda: None)
        sim.schedule(5.0, lambda: None)
        assert sim.pending_events == 4
        sim.cancel(dead)
        sim.cancel(dead)  # second cancel is a no-op
        assert sim.pending_events == 3
        # drains the cancelled entry, fires the two live lane entries
        assert sim.run(until=0.0) == 0.0
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0
        assert sim.events_processed == 3
