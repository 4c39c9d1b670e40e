"""A message and a receive are their own completions.

``isend`` and ``post_recv`` build no event: the :class:`Message` and the
:class:`RecvHandle` implement the one-shot completion protocol
themselves (:class:`~repro.simtime.Completion`).  ``.done`` is the
record itself; a message completes with itself as the value, a receive
with the message it matched.  Waiters resume one same-instant lane hop
after the trigger, as they did on a separate event.
"""

import pytest

from repro.api import ClusterBuilder
from repro.bench.runners import default_profiles
from repro.core.packets import Message, RecvHandle
from repro.simtime import Completion, SimEvent, Simulator
from repro.util.errors import SimulationError


def _pair():
    cluster = (
        ClusterBuilder.paper_testbed(strategy="hetero_split")
        .sampling(profiles=default_profiles())
        .build()
    )
    sender, receiver = cluster.sessions("node0", "node1")
    return cluster, sender, receiver


def test_records_are_their_own_done(monkeypatch):
    built = []
    init = SimEvent.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SimEvent, "__init__", counting_init)
    cluster, sender, receiver = _pair()
    handle = receiver.irecv(source="node0")
    msg = sender.isend("node1", 64)
    assert isinstance(msg, Completion) and isinstance(handle, Completion)
    assert msg.done is msg and handle.done is handle
    assert not msg.triggered and not handle.triggered
    cluster.run()
    assert built == []
    assert msg.triggered and msg.value is msg
    assert handle.triggered and handle.value is msg and handle.matched is msg


def test_processes_yield_the_records():
    cluster, sender, receiver = _pair()
    got = []

    def send():
        msg = sender.isend("node1", 4096, tag=3)
        got.append(("send", (yield msg), cluster.sim.now))

    def recv():
        handle = receiver.irecv(source="node0", tag=3)
        got.append(("recv", (yield handle), cluster.sim.now))

    cluster.sim.spawn(recv())
    cluster.sim.spawn(send())
    cluster.run()
    (msg,) = cluster.engine("node0").sent_log
    assert got == [("send", msg, msg.t_complete), ("recv", msg, msg.t_complete)]


def test_second_trigger_and_foreign_simulator_rejected():
    cluster, sender, receiver = _pair()
    handle = receiver.irecv()
    msg = sender.isend("node1", 64)
    with pytest.raises(SimulationError, match="another simulator"):
        msg.subscribe(Simulator(), lambda value: None)
    with pytest.raises(SimulationError, match="another simulator"):
        handle.subscribe(Simulator(), lambda value: None)
    cluster.run()
    with pytest.raises(SimulationError, match="triggered twice"):
        msg.trigger(msg)
    with pytest.raises(SimulationError, match="triggered twice"):
        handle.trigger(msg)


def test_record_built_outside_an_engine_cannot_be_waited_on():
    sim = Simulator()
    for record in (Message(src="a", dest="b", size=8), RecvHandle(node="b")):
        assert record.sim is None and not record.triggered
        with pytest.raises(SimulationError, match="belongs to no simulator"):
            record.subscribe(sim, lambda value: None)


def test_receive_of_an_unexpected_message_completes_one_hop_later():
    """Posting takes the waiting message and triggers at once; a waiter
    resumes from the lane, after what was already due at that instant."""
    cluster, sender, receiver = _pair()
    sim = cluster.sim
    msg = sender.isend("node1", 64)
    cluster.run()
    assert msg.triggered  # completed with no receive posted: unexpected
    order = []

    def post():
        sim.call_soon(order.append, "due before")
        handle = receiver.irecv(source="node0")
        assert handle.triggered and handle.matched is msg
        handle.subscribe(sim, lambda value: order.append(("recv", value, sim.now)))
        sim.call_soon(order.append, "due after")
        assert order == []

    at = sim.now + 5.0
    sim.schedule_at(at, post)
    cluster.run()
    assert order == ["due before", ("recv", msg, at), "due after"]
