"""A wireless ad hoc node: radio + MAC + IFQ + routing + transport agents.

This is the paper's "hybrid role" host (§2.3): every node is simultaneously
an end host and a router.  The router role is where TCP Muzha's assist lives:
every packet that passes through the node's IFQ — originated *or* forwarded —
runs the node's registered *stampers*, and the Muzha DRAI estimator is a
stamper that lowers the packet's AVBW-S option to the node's own DRAI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol

from ..mac.dcf import DcfMac, QueuedPacket
from ..mac.frames import BROADCAST
from ..phy.channel import WirelessChannel
from ..phy.position import Position
from ..phy.radio import Radio
from ..sim.simulator import Simulator
from .packet import Packet
from .queues import DropTailQueue


class PortHandler(Protocol):
    """A transport endpoint bound to a local port."""

    def receive_packet(self, packet: Packet) -> None:
        ...


class RoutingHooks(Protocol):
    """What a node needs from its routing protocol (see routing.base)."""

    control_protocol: str

    def next_hop(self, dst: int) -> Optional[int]:
        ...

    def on_no_route(self, packet: Packet) -> None:
        ...

    def on_link_failure(self, next_hop: int, packet: Packet) -> None:
        ...

    def on_link_ok(self, next_hop: int) -> None:
        ...

    def receive_control(self, packet: Packet, from_addr: int) -> None:
        ...

    def on_data_packet(self, packet: Packet, from_addr: int) -> None:
        ...

    def on_node_down(self) -> None:
        ...

    def on_node_up(self) -> None:
        ...


@dataclass
class NodeCounters:
    """Per-node network-layer counters."""

    originated: int = 0
    forwarded: int = 0
    delivered: int = 0
    no_route_drops: int = 0
    ttl_drops: int = 0
    no_handler_drops: int = 0
    #: Packets discarded because this node was powered off (fault injection):
    #: flushed from the IFQ at crash time plus sends attempted while down.
    down_drops: int = 0
    crashes: int = 0
    restarts: int = 0


class Node:
    """One node of the ad hoc network."""

    def __init__(
        self,
        sim: Simulator,
        channel: WirelessChannel,
        node_id: int,
        position: Position,
        ifq_capacity: int = 50,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.channel = channel
        #: True while the node is powered off (fault injection).
        self.down = False
        self.radio = Radio(sim, node_id)
        channel.register(self.radio, position)
        self.mac = DcfMac(sim, channel, self.radio, node_id)
        self.ifq = DropTailQueue(ifq_capacity)
        self.ifq.attach_trace(sim, node_id)
        self.mac.queue = self.ifq
        self.ifq.on_wakeup = self.mac.wakeup
        self.mac.listener = self

        self.routing: Optional[RoutingHooks] = None
        #: Set by ``DraiEstimator.install`` so observability harvests can
        #: find the router-assist state without a side table.
        self.drai = None
        self.port_handlers: Dict[int, PortHandler] = {}
        #: Callables applied to every packet entering the IFQ here
        #: (origination and forwarding alike) — the router-assist hook.
        self.stampers: List[Callable[[Packet], None]] = []
        self.counters = NodeCounters()

    # -- wiring ---------------------------------------------------------------

    def set_routing(self, routing: RoutingHooks) -> None:
        self.routing = routing

    def bind_port(self, port: int, handler: PortHandler) -> None:
        if port in self.port_handlers:
            raise ValueError(f"port {port} already bound on node {self.node_id}")
        self.port_handlers[port] = handler

    # -- power state (fault injection) ------------------------------------------

    def crash(self) -> None:
        """Power the node off mid-run: radio down, MAC timers cancelled, IFQ
        flushed, routing state wiped, channel fan-out vetoed.

        Idempotent: crashing a dead node is a no-op.  Transport agents
        hosted here keep their timers (the *process* survives in our model;
        the network interface does not) — their sends are dropped at
        :meth:`send` until :meth:`restart`.
        """
        if self.down:
            return
        self.down = True
        self.counters.crashes += 1
        self.mac.shutdown()
        self.radio.shutdown()
        self.counters.down_drops += len(self.ifq.flush())
        if self.routing is not None:
            self.routing.on_node_down()
        self.channel.set_node_down(self.node_id, True)

    def restart(self) -> None:
        """Power the node back on with a cold protocol stack (empty IFQ,
        fresh MAC link state, empty routing table)."""
        if not self.down:
            return
        self.down = False
        self.counters.restarts += 1
        self.channel.set_node_down(self.node_id, False)
        self.radio.restore()
        self.mac.restart()
        if self.routing is not None:
            self.routing.on_node_up()

    # -- sending ---------------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Originate ``packet`` from this node (transport entry point)."""
        if self.down:
            self.counters.down_drops += 1
            return
        self.counters.originated += 1
        if packet.dst == self.node_id:
            self._deliver_local(packet)
            return
        self._route_and_enqueue(packet)

    def dispatch(self, packet: Packet) -> None:
        """Route and enqueue ``packet`` without counting an origination.

        Used by routing protocols to release packets that were buffered
        while a route discovery was in flight.
        """
        if self.down:
            self.counters.down_drops += 1
            return
        self._route_and_enqueue(packet)

    def send_control(self, packet: Packet, next_hop: int) -> None:
        """Send a routing-control packet directly to a MAC next hop
        (``BROADCAST`` floods); bypasses the route lookup."""
        if self.down:
            self.counters.down_drops += 1
            return
        self._enqueue_to_mac(packet, next_hop)

    def _route_and_enqueue(self, packet: Packet) -> None:
        assert self.routing is not None, f"node {self.node_id} has no routing"
        next_hop = self.routing.next_hop(packet.dst)
        if next_hop is None:
            self.routing.on_no_route(packet)
            return
        self._enqueue_to_mac(packet, next_hop)

    def _enqueue_to_mac(self, packet: Packet, next_hop: int) -> None:
        for stamper in self.stampers:
            stamper(packet)
        self.ifq.enqueue(QueuedPacket(packet, next_hop, packet.size_bytes))

    # -- MAC listener interface ---------------------------------------------------

    def mac_deliver(self, packet: Packet, from_addr: int) -> None:
        routing = self.routing
        if routing is not None and packet.protocol == routing.control_protocol:
            routing.receive_control(packet, from_addr)
            return
        if routing is not None:
            routing.on_data_packet(packet, from_addr)
        if packet.dst == self.node_id:
            self._deliver_local(packet)
            return
        self._forward(packet)

    def mac_tx_ok(self, next_hop: int, packet: Packet) -> None:
        if self.routing is not None:
            self.routing.on_link_ok(next_hop)

    def mac_link_failure(self, next_hop: int, packet: Packet) -> None:
        if self.routing is not None:
            self.routing.on_link_failure(next_hop, packet)

    # -- forwarding / delivery --------------------------------------------------------

    def _forward(self, packet: Packet) -> None:
        if packet.ttl <= 1:
            self.counters.ttl_drops += 1
            return
        packet.ttl -= 1
        self.counters.forwarded += 1
        self._route_and_enqueue(packet)

    def _deliver_local(self, packet: Packet) -> None:
        dport = getattr(packet.payload, "dport", None)
        handler = self.port_handlers.get(dport)
        if handler is None:
            self.counters.no_handler_drops += 1
            return
        self.counters.delivered += 1
        handler.receive_packet(packet)
