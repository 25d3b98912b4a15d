"""Network layer (substrate S4): packets with the AVBW-S option, interface
queue (drop-tail), and the node that glues PHY/MAC/routing/transport
together."""

from .node import Node, NodeCounters, PortHandler
from .packet import DEFAULT_TTL, IP_BROADCAST, IP_HEADER_BYTES, Packet
from .queues import DropTailQueue

__all__ = [
    "DEFAULT_TTL",
    "DropTailQueue",
    "IP_BROADCAST",
    "IP_HEADER_BYTES",
    "Node",
    "NodeCounters",
    "Packet",
    "PortHandler",
]
