"""The engine's (source, tag) receive index against the linear scans it
replaced: same matches in the same order, at a cost that does not grow
with the number of pending receives."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.api import ClusterBuilder
from repro.bench.runners import default_profiles
from repro.core.engine import RecvMatcher
from repro.core.packets import Message, RecvHandle

SOURCES = ("s0", "s1", "s2")
TAGS = (0, 1, 2)


class LinearMatcher:
    """The reference: pending receives, unexpected messages and parked
    rendezvous REQs in plain lists, scanned front to back with
    :meth:`RecvHandle.matches` — the first posted or first arrived match
    wins."""

    def __init__(self):
        self.posted = []
        self.unexpected = []
        self.parked = []

    def complete(self, msg):
        for handle in self.posted:
            if handle.matches(msg):
                self.posted.remove(handle)
                return handle
        self.unexpected.append(msg)
        return None

    def request(self, msg, nic):
        if any(handle.matches(msg) for handle in self.posted):
            return True
        if not any(m is msg for m, _ in self.parked):
            self.parked.append((msg, nic))
        return False

    def post(self, handle):
        for msg in self.unexpected:
            if handle.matches(msg):
                self.unexpected.remove(msg)
                return msg
        self.posted.append(handle)
        return None

    def release(self, source, tag):
        probe = RecvHandle(node="b", source=source, tag=tag)
        for entry in self.parked:
            if probe.matches(entry[0]):
                self.parked.remove(entry)
                return entry
        return None

    def cancel(self, handle):
        if handle not in self.posted:
            return False
        self.posted.remove(handle)
        return True

    def pending(self):
        return list(self.posted), list(self.unexpected), [m for m, _ in self.parked]


def post_recv(matcher, handle):
    """``NmadEngine.post_recv``: take an unexpected message, or stay
    pending and release a parked REQ."""
    msg = matcher.post(handle)
    if msg is not None:
        return "matched", msg
    return "released", matcher.release(handle.source, handle.tag)


def same(a, b):
    """Equal structure, and identical objects at the leaves."""
    if isinstance(a, (tuple, list)):
        return (
            isinstance(b, type(a))
            and len(a) == len(b)
            and all(same(x, y) for x, y in zip(a, b))
        )
    return a is b


PATTERN = st.tuples(st.sampled_from((None,) + SOURCES), st.sampled_from((None,) + TAGS))
KEY = st.tuples(st.sampled_from(SOURCES), st.sampled_from(TAGS))
#: an index into what exists so far (taken modulo its length), or None
#: for a fresh message
REUSE = st.one_of(st.none(), st.integers(min_value=0, max_value=50))
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("post"), PATTERN),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=50)),
        st.tuples(st.just("complete"), KEY, REUSE),
        st.tuples(st.just("req"), KEY, REUSE),
    ),
    max_size=80,
)


class TestIndexMatchesLinearScan:
    @settings(max_examples=200, deadline=None)
    @given(ops=OPS)
    def test_every_answer_and_final_state_agree(self, ops):
        index, reference = RecvMatcher(), LinearMatcher()
        handles, requested = [], []
        completed = set()
        nics = itertools.count()
        for op in ops:
            if op[0] == "post":
                handle = RecvHandle(node="b", source=op[1][0], tag=op[1][1])
                handles.append(handle)
                assert same(post_recv(index, handle), post_recv(reference, handle))
            elif op[0] == "cancel":
                if not handles:
                    continue
                handle = handles[op[1] % len(handles)]
                assert index.cancel(handle) is reference.cancel(handle)
            else:
                kind, (src, tag), reuse = op
                if reuse is not None and requested:
                    # a REQ again (handshake retry) or the data of a
                    # rendezvous that was requested earlier
                    msg = requested[reuse % len(requested)]
                else:
                    msg = Message(src=src, dest="b", size=1, tag=tag)
                if kind == "req":
                    requested.append(msg)
                    nic = next(nics)
                    assert index.request(msg, nic) is reference.request(msg, nic)
                elif msg not in completed:
                    completed.add(msg)
                    assert index.complete(msg) is reference.complete(msg)
        assert same(index.pending(), reference.pending())


class TestMatchingCost:
    def test_match_calls_do_not_grow_with_pending_receives(self, monkeypatch):
        """2,000 exact receives, their messages completing in reverse post
        order: a post-order scan makes N(N+1)/2 ``matches`` calls."""
        n = 2000
        calls = 0
        predicate = RecvHandle.matches

        def counting(self, msg):
            nonlocal calls
            calls += 1
            return predicate(self, msg)

        monkeypatch.setattr(RecvHandle, "matches", counting)
        cluster = (
            ClusterBuilder.paper_testbed(strategy="single_rail")
            .sampling(profiles=default_profiles())
            .build()
        )
        a, b = cluster.session("node0"), cluster.session("node1")
        handles = [b.irecv(source="node0", tag=t) for t in range(n)]
        for t in reversed(range(n)):
            a.isend("node1", 64, tag=t)
            cluster.run()
        assert [h.matched.tag for h in handles] == list(range(n))
        assert calls <= 4 * n
