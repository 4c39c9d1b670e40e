"""Application-level messages and their lifecycle.

A :class:`Message` is what the application hands to ``isend``: a byte
count, a destination and a tag.  The engine decides the transfer mode
(eager vs rendezvous), possibly splits the message into chunks over
several rails, and possibly aggregates several messages into one packet;
the :class:`Message` tracks how much of it has completed at the receiver.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.simtime import Completion
from repro.util.errors import ProtocolError

_msg_seq = itertools.count()


class TransferMode(enum.Enum):
    """Protocol a message travels under."""

    EAGER = "eager"
    RENDEZVOUS = "rendezvous"


class MessageStatus(enum.Enum):
    """Lifecycle of a message, from isend to receiver-side completion."""

    CREATED = "created"          # isend called, not yet planned
    QUEUED = "queued"            # waiting in the out-list (all rails busy)
    RDV_REQUESTED = "rdv-req"    # rendezvous request in flight
    IN_TRANSFER = "in-transfer"  # chunks submitted to NICs
    COMPLETE = "complete"        # fully processed at the receiver
    DEGRADED = "degraded"        # gave up after the retry budget ran out


@dataclass(frozen=True)
class DegradedSend:
    """Terminal outcome of a send that exhausted its retry budget.

    The contract (see docs/faults.md): instead of hanging, the engine
    triggers ``msg.done`` with the message in status ``DEGRADED`` and
    this record attached as ``msg.outcome``.  ``bytes_received`` says how
    much of the payload made it before the engine gave up.
    """

    msg_id: int
    reason: str
    retries: int
    bytes_received: int
    size: int

    @property
    def delivered_fraction(self) -> float:
        return self.bytes_received / self.size if self.size else 0.0


@dataclass(slots=True, eq=False)
class Message(Completion):
    """One application send.

    The message is its own completion: it triggers, with itself as the
    value, when the *receiver* finished processing every chunk — the
    completion the ping-pong benchmarks time.  A process waits with
    ``yield msg``; ``msg.done`` is the message too.  The engine that
    builds it sets its ``sim``: a message built outside an engine
    cannot be waited on.

    Slotted like :class:`~repro.networks.transfer.Transfer`: the chunk
    accounting on the receive path reads/writes these fields per chunk,
    and open-loop workloads keep millions of messages alive at once.
    Equality is identity (``msg_id`` is unique anyway), so the engine's
    queues and the receive matcher's index compare and hash a message
    without reading its fields.
    """

    src: str
    dest: str
    size: int
    tag: int = 0
    msg_id: int = field(default_factory=lambda: next(_msg_seq))
    mode: Optional[TransferMode] = None
    status: MessageStatus = MessageStatus.CREATED

    # chunk bookkeeping (receiver side)
    chunks_expected: Optional[int] = None
    chunks_received: int = 0
    bytes_received: int = 0

    # timing (virtual µs)
    t_post: Optional[float] = None       # isend instant
    t_complete: Optional[float] = None   # receiver done instant

    # delivery integrity (see docs/chaos.md)
    #: next per-message wire sequence number (stamped at NIC submit; a
    #: retry gets a fresh seq over the same chunk interval)
    wire_seq: int = 0
    #: the first chunk interval accounted (None before any)
    first_interval: Optional[Tuple[int, int]] = None
    #: every chunk interval accounted, built when a second distinct one
    #: arrives (most messages travel as one chunk and never need it) —
    #: the receiver-side duplicate suppression set: a retry racing its
    #: late original lands here once
    delivered_intervals: Optional[Set[Tuple[int, int]]] = None
    #: deliveries ignored because their interval was already accounted
    duplicates_suppressed: int = 0

    # fault handling (see repro.faults and docs/faults.md)
    #: replacement transfers issued so far for lost/aborted chunks
    retries: int = 0
    #: set (with status DEGRADED) when the engine gave up on this send
    outcome: Optional[DegradedSend] = None
    #: human-readable notes on rails the planner avoided and why; grows
    #: only on faults
    rail_notes: Tuple[str, ...] = ()

    # how the engine transferred it (written once per plan by the engine;
    # read by tests, obs and the examples).  Tuples of strings and ints,
    # which the cyclic collector stops tracking after one pass.
    rails_used: Tuple[str, ...] = ()
    chunk_sizes: Tuple[int, ...] = ()
    aggregated_with: Tuple[int, ...] = ()
    #: every NIC-level transfer that carried (part of) this message,
    #: control packets included — the raw material for obs.explain()
    transfers: List = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ProtocolError(f"negative message size: {self.size}")
        Completion.__init__(self)

    def __repr__(self) -> str:
        return (
            f"<Message #{self.msg_id} {self.size}B {self.src}->{self.dest} "
            f"tag={self.tag} {self.status.value}>"
        )

    @property
    def done(self) -> "Message":
        """The completion: the message itself."""
        return self

    @property
    def latency(self) -> Optional[float]:
        """Post-to-receiver-completion time, once complete."""
        if self.t_post is None or self.t_complete is None:
            return None
        return self.t_complete - self.t_post

    def note_rail_avoided(
        self, rail: str, reason: str, now: Optional[float] = None
    ) -> None:
        """Record why the planner skipped a rail (read by obs.explain).

        Deduplicated on (rail, reason): re-planning every activation while
        a fault holds produces one note, stamped with its first occurrence.
        A reason that merely starts like another (``down`` and
        ``down (failover)``) is a note of its own.
        """
        key = f"{rail}: {reason}"
        stamped = key + " (first at t="
        for existing in self.rail_notes:
            if existing == key or existing.startswith(stamped):
                return
        stamp = "" if now is None else f" (first at t={now:.2f}us)"
        self.rail_notes += (key + stamp,)

    # ------------------------------------------------------------------ #
    # receiver-side accounting
    # ------------------------------------------------------------------ #

    def expect_chunks(self, count: int) -> None:
        if count < 1:
            raise ProtocolError(f"message needs >=1 chunk, got {count}")
        if self.chunks_expected is not None and self.chunks_expected != count:
            raise ProtocolError(
                f"msg {self.msg_id}: chunk count changed "
                f"{self.chunks_expected} -> {count}"
            )
        self.chunks_expected = count

    def next_wire_seq(self) -> int:
        """Allocate the next wire sequence number for an outgoing chunk."""
        seq = self.wire_seq
        self.wire_seq = seq + 1
        return seq

    def register_delivery(self, chunk_key) -> bool:
        """First delivery of ``chunk_key``?  Record it and return True.

        Returns False for a duplicate — a retry racing its late original
        (either order); the caller must then *not* account the chunk, so
        a byte interval is only ever summed once (exactly-once delivery).
        """
        seen = self.delivered_intervals
        if seen is None:
            first = self.first_interval
            if first is None:
                self.first_interval = chunk_key
                return True
            if chunk_key != first:
                self.delivered_intervals = {first, chunk_key}
                return True
        elif chunk_key not in seen:
            seen.add(chunk_key)
            return True
        self.duplicates_suppressed += 1
        return False

    def account_chunk(self, nbytes: int) -> bool:
        """Record one received chunk; True when the message is complete."""
        if self.chunks_expected is None:
            raise ProtocolError(f"msg {self.msg_id}: chunk before expect_chunks")
        if self.chunks_received >= self.chunks_expected:
            raise ProtocolError(f"msg {self.msg_id}: more chunks than expected")
        self.chunks_received += 1
        self.bytes_received += nbytes
        if self.chunks_received == self.chunks_expected:
            if self.bytes_received != self.size:
                raise ProtocolError(
                    f"msg {self.msg_id}: received {self.bytes_received}B "
                    f"of a {self.size}B message"
                )
            return True
        return False


@dataclass(slots=True, eq=False)
class RecvHandle(Completion):
    """A posted receive: matches incoming messages by (source, tag).

    ``source``/``tag`` of ``None`` match anything (wildcards).  The
    handle is its own completion, like :class:`Message`: it triggers
    with the matched :class:`Message`, and ``done`` is the handle.
    Equality is identity, like :class:`Message`'s.
    """

    node: str
    source: Optional[str] = None
    tag: Optional[int] = None
    matched: Optional[Message] = None
    #: post order on its engine, stamped by the engine's receive matcher
    seq: int = field(default=-1, init=False, repr=False)

    def __post_init__(self) -> None:
        Completion.__init__(self)

    @property
    def done(self) -> "RecvHandle":
        """The completion: the handle itself."""
        return self

    def matches(self, msg: Message) -> bool:
        """The matching predicate: ``source`` and ``tag`` each equal the
        message's or are ``None``.  The engine's receive matcher gives
        the answer a post-order scan with this predicate would give."""
        if self.source is not None and msg.src != self.source:
            return False
        if self.tag is not None and msg.tag != self.tag:
            return False
        return True
