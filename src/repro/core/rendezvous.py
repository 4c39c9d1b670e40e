"""Rendezvous protocol wire format: control-packet constructors.

The rendezvous handshake (REQ → ACK → DATA chunks) is orchestrated by the
engine; this module centralizes how the protocol's transfers are built so
the payload schema lives in exactly one place.

Payload schema
--------------
Every transfer carries ``Transfer.message`` — the :class:`Message`
object itself.  The simulator is a global observer, so sharing the object
between sender and receiver engines stands in for the (src, msg_id)
matching tables of the real implementation; the receiver-side accounting
fields on the message play the role of the receive-side request state.

Aggregated eager packets also carry ``Transfer.messages`` — the tuple of
messages packed into the single wire packet, in packing order — and
their ``message`` is the first of them (the packet's wire identity:
``msg_id``, tag and sequence numbers).  Every other transfer leaves
``messages`` empty.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.packets import Message
from repro.networks.transfer import Transfer, TransferKind
from repro.util.errors import ProtocolError


def make_rdv_req(msg: Message) -> Transfer:
    """Rendezvous request: announces ``msg`` (size travels as metadata)."""
    return Transfer(
        kind=TransferKind.RDV_REQ,
        size=0,
        msg_id=msg.msg_id,
        tag=msg.tag,
        dst_node=msg.dest,
        message=msg,
    )


def make_rdv_ack(msg: Message) -> Transfer:
    """Rendezvous acknowledgement: the receive buffer is posted."""
    return Transfer(
        kind=TransferKind.RDV_ACK,
        size=0,
        msg_id=msg.msg_id,
        tag=msg.tag,
        dst_node=msg.src,  # the acknowledgement travels back to the sender
        message=msg,
    )


def make_rdv_chunks(msg: Message, sizes: Sequence[int]) -> List[Transfer]:
    """Rendezvous data chunks, one per rail, offsets precomputed."""
    if sum(sizes) != msg.size:
        raise ProtocolError(
            f"msg {msg.msg_id}: chunks {list(sizes)} sum to {sum(sizes)}, "
            f"message is {msg.size}B"
        )
    if any(s <= 0 for s in sizes):
        raise ProtocolError(f"msg {msg.msg_id}: non-positive chunk in {list(sizes)}")
    chunks: List[Transfer] = []
    offset = 0
    for i, s in enumerate(sizes):
        chunks.append(
            Transfer(
                kind=TransferKind.RDV_DATA,
                size=s,
                msg_id=msg.msg_id,
                tag=msg.tag,
                dst_node=msg.dest,
                chunk_index=i,
                chunk_count=len(sizes),
                offset=offset,
                message=msg,
            )
        )
        offset += s
    return chunks


def make_eager_chunks(msg: Message, sizes: Sequence[int]) -> List[Transfer]:
    """Eager chunks (multicore split), one per rail."""
    if sum(sizes) != msg.size:
        raise ProtocolError(
            f"msg {msg.msg_id}: chunks {list(sizes)} sum to {sum(sizes)}, "
            f"message is {msg.size}B"
        )
    if any(s < 0 for s in sizes) or (any(s == 0 for s in sizes) and msg.size > 0):
        raise ProtocolError(f"msg {msg.msg_id}: bad chunk in {list(sizes)}")
    chunks: List[Transfer] = []
    offset = 0
    for i, s in enumerate(sizes):
        chunks.append(
            Transfer(
                kind=TransferKind.EAGER,
                size=s,
                msg_id=msg.msg_id,
                tag=msg.tag,
                dst_node=msg.dest,
                chunk_index=i,
                chunk_count=len(sizes),
                offset=offset,
                message=msg,
            )
        )
        offset += s
    return chunks


def make_aggregated_eager(msgs: Sequence[Message]) -> Transfer:
    """One wire packet carrying several whole messages (same destination)."""
    if not msgs:
        raise ProtocolError("aggregating zero messages")
    dests = {m.dest for m in msgs}
    if len(dests) != 1:
        raise ProtocolError(f"aggregating messages to different nodes: {dests}")
    total = sum(m.size for m in msgs)
    return Transfer(
        kind=TransferKind.EAGER,
        size=total,
        msg_id=msgs[0].msg_id,
        tag=msgs[0].tag,
        dst_node=msgs[0].dest,
        aggregated_ids=tuple(m.msg_id for m in msgs),
        message=msgs[0],
        messages=tuple(msgs),
    )
