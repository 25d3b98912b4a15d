"""The TCP receiver ("sink").

Acknowledges every data segment at once — no delayed ACKs, matching the
paper's NS2 sinks — with the cumulative next-expected sequence number,
reports up to three SACK blocks for out-of-order data, and — the
router-assist hook — echoes the AVBW-S value (path-minimum DRAI) of the
packet that triggered each ACK, so duplicate ACKs carry the congestion
evidence TCP Muzha uses to classify the loss (§4.7 of the paper).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..net.node import Node
from ..net.packet import Packet
from ..sim.simulator import Simulator
from .segments import TcpSegment


class TcpSink:
    """Receiver endpoint bound to one port of a node."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        port: int,
        sack: bool = False,
    ) -> None:
        self.sim = sim
        self.node = node
        self.port = port
        self.sack_enabled = sack
        node.bind_port(port, self)

        self.rcv_nxt = 0
        self._out_of_order: Set[int] = set()
        self.delivered_packets = 0
        self.delivered_bytes = 0
        self.acks_sent = 0
        self.duplicate_data = 0
        self.first_delivery: Optional[float] = None
        self.last_delivery: Optional[float] = None

    # -- receive path -----------------------------------------------------------

    def receive_packet(self, packet: Packet) -> None:
        segment = packet.payload
        if not isinstance(segment, TcpSegment) or not segment.is_data:
            return
        seq = segment.seq
        if seq == self.rcv_nxt:
            self._deliver(segment)
            # Pull any buffered segments that are now in order.
            while self.rcv_nxt in self._out_of_order:
                self._out_of_order.discard(self.rcv_nxt)
                self._deliver_buffered(segment.payload_bytes)
        elif seq > self.rcv_nxt:
            if seq in self._out_of_order:
                self.duplicate_data += 1
            else:
                self._out_of_order.add(seq)
        else:
            self.duplicate_data += 1
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
