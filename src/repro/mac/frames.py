"""MAC frame types for the 802.11 DCF exchange (RTS/CTS/DATA/ACK).

``MacFrame`` is a ``__slots__`` class rather than a dataclass: every
unicast data packet costs four frames (RTS/CTS/DATA/ACK), so frame
construction is the single most frequent object allocation in a saturated
run (see the allocation-churn notes in ``net/packet.py``).
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

#: Link-layer broadcast address.
BROADCAST = -1


class FrameKind(Enum):
    RTS = "rts"
    CTS = "cts"
    DATA = "data"
    ACK = "ack"


class MacFrame:
    """One frame on the air.

    ``duration`` is the 802.11 Duration/ID field in seconds: how long the
    medium will remain reserved *after* this frame ends.  Third-party
    stations use it to set their NAV.
    """

    __slots__ = ("kind", "src", "dst", "size_bytes", "duration", "frame_id", "payload")

    def __init__(
        self,
        kind: FrameKind,
        src: int,
        dst: int,
        size_bytes: int,
        duration: float = 0.0,
        frame_id: int = 0,
        payload: Optional[object] = None,
    ) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.duration = duration
        #: Sequence number for receiver-side duplicate detection; stable across
        #: retransmissions of the same MSDU.
        self.frame_id = frame_id
        #: The network-layer packet carried by DATA frames.
        self.payload = payload

    def __repr__(self) -> str:  # payload elided, as before the slots change
        return (
            f"MacFrame(kind={self.kind}, src={self.src}, dst={self.dst}, "
            f"size_bytes={self.size_bytes}, duration={self.duration}, "
            f"frame_id={self.frame_id})"
        )
