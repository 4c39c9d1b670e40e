"""Transfer descriptors flowing between NICs.

A :class:`Transfer` is one unit handed to a NIC: an eager packet (possibly
aggregating several application messages), a rendezvous control packet, or
one rendezvous data chunk.  It carries the identifiers the receive side
needs to reassemble application messages, plus timing fields filled in as
the transfer progresses (consumed by the trace module and the tests).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple, TYPE_CHECKING

from repro.simtime import SimEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.packets import Message

_transfer_ids = itertools.count()


class TransferKind(enum.Enum):
    """What a transfer is, protocol-wise."""

    EAGER = "eager"          # payload travels inline, PIO copies
    RDV_REQ = "rdv-req"      # rendezvous request (control)
    RDV_ACK = "rdv-ack"      # rendezvous acknowledgement (control)
    RDV_DATA = "rdv-data"    # one DMA data chunk of a rendezvous message

    @property
    def is_control(self) -> bool:
        return self in (TransferKind.RDV_REQ, TransferKind.RDV_ACK)


@dataclass(slots=True, eq=False)
class Transfer:
    """One NIC-level transfer.

    ``msg_id``/``chunk_index``/``chunk_count`` tie a chunk back to its
    application message; ``message`` and ``messages`` carry the message
    objects themselves (the schema is documented, and filled, in
    :mod:`repro.core.rendezvous`).  ``size`` is the wire size in bytes
    (0 for pure control packets).

    Slotted: tens of thousands of these flow through the wire path per
    run, and the flat layout (no per-instance ``__dict__``) cuts both
    the allocation cost and the attribute loads the NIC/engine hot path
    performs on every hop.  Equality is identity, like
    :class:`~repro.core.packets.Message`'s (``transfer_id`` is unique),
    so the NIC's and engine's list membership checks never build the
    field tuples of a generated ``__eq__``.
    """

    kind: TransferKind
    size: int
    msg_id: int
    src_node: str = ""
    dst_node: str = ""
    tag: int = 0
    chunk_index: int = 0
    chunk_count: int = 1
    offset: int = 0
    #: the message this transfer carries (an aggregate's first message)
    message: Optional["Message"] = None
    #: an aggregated packet's messages, in packing order; empty otherwise
    messages: Tuple["Message", ...] = ()
    #: aggregated message ids when several eager messages share one packet
    aggregated_ids: tuple = ()

    # -- timing fields, filled in by the NIC/engine as the transfer runs --
    transfer_id: int = field(default_factory=lambda: next(_transfer_ids))
    t_submit: Optional[float] = None     # handed to the NIC queue
    t_service_start: Optional[float] = None  # send core acquired (pipeline start)
    t_cpu_start: Optional[float] = None  # send core began post/copy
    t_wire_start: Optional[float] = None
    t_tx_done: Optional[float] = None    # transmit phase drained (sender)
    t_delivered: Optional[float] = None  # last byte at peer NIC
    t_complete: Optional[float] = None   # receive-side processing done
    nic_name: Optional[str] = None

    # -- prediction fields (repro.obs accuracy telemetry; None when the
    #    sending engine has observability and calibration off) --
    #: planning estimator's pure service-time prediction (µs, no offsets)
    predicted_time: Optional[float] = None
    #: absolute predicted completion instant (busy offset included)
    predicted_completion: Optional[float] = None

    # -- delivery-integrity fields (stamped on the wire path) --
    #: per-message wire sequence number, stamped at NIC submit time;
    #: strictly increasing per message across chunks and retries
    seq_no: Optional[int] = None
    #: lightweight wire checksum over the chunk's identity (msg, kind,
    #: interval, seq); verified receiver-side by the invariant monitor
    checksum: Optional[int] = None

    # -- fault fields (see repro.faults) --
    #: send-side NIC went down before the transmit phase drained
    aborted: bool = False
    #: lost in flight (drop rule on the sender, or receiver down on arrival)
    dropped: bool = False
    #: a replacement transfer has been issued for this one (guards against
    #: double retries)
    retried: bool = False
    #: a replacement was issued *and* this transfer must no longer deliver
    #: — a late original racing its retry is suppressed receiver-side
    superseded: bool = False
    #: transfer_id of the lost transfer this one replaces, if any
    retry_of: Optional[int] = None
    #: pending wire-delivery event while in flight (cancellable by the
    #: retry path so a superseded original never lands); cleared on landing
    wire_event: Optional[object] = None

    #: triggered (with this Transfer) when the send side finished its
    #: transmit phase (PIO copy or DMA drained) — what an offloading
    #: tasklet must wait for before letting a preempted thread back on.
    #: Created by that tasklet's picker before it submits; None on every
    #: transfer nothing waits for
    tx_done: Optional[SimEvent] = None

    def __repr__(self) -> str:
        return (
            f"<Transfer #{self.transfer_id} {self.kind.value} "
            f"msg={self.msg_id} chunk={self.chunk_index + 1}/{self.chunk_count} "
            f"{self.size}B {self.src_node}->{self.dst_node}>"
        )

    @property
    def latency(self) -> Optional[float]:
        """Submit-to-complete time, once the transfer finished."""
        if self.t_submit is None or self.t_complete is None:
            return None
        return self.t_complete - self.t_submit

    @property
    def chunk_key(self) -> "tuple[int, int]":
        """The byte interval this transfer covers in its message.

        Stable across retries (a replacement covers the same interval),
        which is what receiver-side duplicate suppression keys on.
        """
        return (self.offset, self.size)


#: stable per-kind codes (``hash(str)`` is salted per process; these
#: keep checksums reproducible across runs and machines)
_KIND_CODE = {kind: i + 1 for i, kind in enumerate(TransferKind)}

#: FNV-1a offset basis / prime (64-bit), the checksum's mixing constants
_FNV_BASIS = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = 0xFFFFFFFFFFFFFFFF


def wire_checksum(transfer: Transfer) -> int:
    """Lightweight integrity checksum over a transfer's wire identity.

    Folds the fields the receive path depends on — message id, protocol
    kind, chunk interval, chunk indices and the wire sequence number —
    through FNV-1a.  Pure integer arithmetic, no allocation: cheap
    enough to stamp on every submit.  Payload *contents* are not
    simulated, so identity is what "integrity" means here: a checksum
    mismatch at delivery says some layer rewired a chunk's coordinates
    in flight.
    """
    h = _FNV_BASIS
    for word in (
        transfer.msg_id,
        _KIND_CODE[transfer.kind],
        transfer.offset,
        transfer.size,
        transfer.chunk_index,
        transfer.chunk_count,
        transfer.seq_no if transfer.seq_no is not None else -1,
    ):
        h = ((h ^ (word & _FNV_MASK)) * _FNV_PRIME) & _FNV_MASK
    return h
