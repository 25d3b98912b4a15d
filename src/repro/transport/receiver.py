"""The TCP receiver ("sink").

Acknowledges every data segment with the cumulative next-expected sequence
number, reports up to three SACK blocks for out-of-order data, and — the
router-assist hook — echoes the AVBW-S value (path-minimum DRAI) of the
packet that triggered each ACK, so duplicate ACKs carry the congestion
evidence TCP Muzha uses to classify the loss (§4.7 of the paper).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..net.node import Node
from ..net.packet import Packet
from ..sim.simulator import Simulator
from ..sim.timer import Timer
from .segments import TcpSegment


class TcpSink:
    """Receiver endpoint bound to one port of a node.

    ``delayed_ack`` enables RFC 1122 receiver behaviour: in-order segments
    may wait up to ``delack_timeout`` (or a second segment, whichever comes
    first) before being acknowledged.  Out-of-order segments and hole fills
    are always acknowledged immediately, so duplicate-ACK loss detection —
    which TCP Muzha's marking rides on — is unaffected.  Off by default,
    matching the paper's NS2 sinks.
    """

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        port: int,
        sack: bool = False,
        delayed_ack: bool = False,
        delack_timeout: float = 0.2,
    ) -> None:
        self.sim = sim
        self.node = node
        self.port = port
        self.sack_enabled = sack
        self.delayed_ack = delayed_ack
        self.delack_timeout = delack_timeout
        node.bind_port(port, self)

        self.rcv_nxt = 0
        self._out_of_order: Set[int] = set()
        self.delivered_packets = 0
        self.delivered_bytes = 0
        self.acks_sent = 0
        self.delayed_acks = 0
        self.duplicate_data = 0
        self.first_delivery: Optional[float] = None
        self.last_delivery: Optional[float] = None
        self._pending_ack: Optional[tuple] = None  # (packet, segment)
        self._delack_timer = Timer(sim, self._flush_delayed_ack, name="tcp.delack")

    # -- receive path -----------------------------------------------------------

    def receive_packet(self, packet: Packet) -> None:
        segment = packet.payload
        if not isinstance(segment, TcpSegment) or not segment.is_data:
            return
        seq = segment.seq
        in_order = seq == self.rcv_nxt
        filled_hole = False
        if in_order:
            self._deliver(segment)
            # Pull any buffered segments that are now in order.
            while self.rcv_nxt in self._out_of_order:
                self._out_of_order.discard(self.rcv_nxt)
                self._deliver_buffered(segment.payload_bytes)
                filled_hole = True
        elif seq > self.rcv_nxt:
            if seq in self._out_of_order:
                self.duplicate_data += 1
            else:
                self._out_of_order.add(seq)
        else:
            self.duplicate_data += 1

        if not self.delayed_ack:
            self._send_ack(packet, segment)
            return
        # RFC 1122: delay only plain in-order data; anything that signals
        # reordering or completes a hole must be acknowledged immediately,
        # and a second pending segment forces the ACK out.
        if not in_order or filled_hole:
            self._flush_delayed_ack()
            self._send_ack(packet, segment)
        elif self._pending_ack is not None:
            self._pending_ack = None
            self._delack_timer.stop()
            self._send_ack(packet, segment)
        else:
            self._pending_ack = (packet, segment)
            self._delack_timer.start(self.delack_timeout)

    def _flush_delayed_ack(self) -> None:
        if self._pending_ack is None:
            return
        packet, segment = self._pending_ack
        self._pending_ack = None
        self._delack_timer.stop()
        self.delayed_acks += 1
        self._send_ack(packet, segment)

    def _deliver(self, segment: TcpSegment) -> None:
        self.rcv_nxt += 1
        self.delivered_packets += 1
        self.delivered_bytes += segment.payload_bytes
        if self.first_delivery is None:
            self.first_delivery = self.sim.now
        self.last_delivery = self.sim.now

    def _deliver_buffered(self, payload_bytes: int) -> None:
        self.rcv_nxt += 1
        self.delivered_packets += 1
        self.delivered_bytes += payload_bytes
        self.last_delivery = self.sim.now

    # -- acknowledgement ------------------------------------------------------------

    def _sack_blocks(self) -> Tuple[Tuple[int, int], ...]:
        if not self.sack_enabled or not self._out_of_order:
            return ()
        blocks: List[Tuple[int, int]] = []
        run_start: Optional[int] = None
        previous: Optional[int] = None
        for seq in sorted(self._out_of_order):
            if run_start is None:
                run_start = previous = seq
                continue
            if seq == previous + 1:
                previous = seq
                continue
            blocks.append((run_start, previous + 1))
            run_start = previous = seq
        blocks.append((run_start, previous + 1))  # type: ignore[arg-type]
        return tuple(blocks[:3])

    def _send_ack(self, data_packet: Packet, data_segment: TcpSegment) -> None:
        ack = TcpSegment(
            "ack",
            sport=self.port,
            dport=data_segment.sport,
            ack=self.rcv_nxt,
            sack_blocks=self._sack_blocks(),
            echo_mrai=data_packet.avbw_s,
        )
        packet = Packet(
            src=self.node.node_id,
            dst=data_packet.src,
            protocol="tcp",
            size_bytes=ack.wire_bytes(),
            payload=ack,
        )
        self.acks_sent += 1
        self.node.send(packet)
