"""Static (precomputed shortest-path) routing.

The paper's topologies are static, so the steady-state routes AODV finds are
exactly the BFS shortest paths.  Static routing lets experiments isolate
transport behaviour from discovery transients; the scenario builders support
both (``routing="static"`` / ``routing="aodv"``).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Optional

from ..net.node import Node
from ..net.packet import Packet
from .base import RoutingProtocol


class StaticRouting(RoutingProtocol):
    """Routes from a fixed table ``dst -> next_hop``."""

    control_protocol = "static-routing"  # never actually sent

    def __init__(self, routes: Optional[Dict[int, int]] = None) -> None:
        super().__init__()
        self.routes: Dict[int, int] = dict(routes or {})

    def next_hop(self, dst: int) -> Optional[int]:
        return self.routes.get(dst)


def neighbor_graph(nodes: Iterable[Node], channel) -> Dict[int, list]:
    """Adjacency (by node id) implied by the channel's decode ranges."""
    by_radio = {node.radio: node.node_id for node in nodes}
    graph: Dict[int, list] = {}
    for node in by_radio.values():
        graph[node] = []
    for radio, node_id in by_radio.items():
        graph[node_id] = [
            by_radio[peer] for peer in channel.neighbors_of(radio) if peer in by_radio
        ]
    return graph


def compute_static_routes(nodes: Iterable[Node], channel) -> Dict[int, Dict[int, int]]:
    """All-pairs next-hop tables via BFS on the connectivity graph.

    Returns ``{src_id: {dst_id: next_hop_id}}``.  Unreachable destinations
    are simply absent.
    """
    node_list = list(nodes)
    graph = neighbor_graph(node_list, channel)
    tables: Dict[int, Dict[int, int]] = {}
    for src in graph:
        # BFS from src recording each node's parent.
        parent: Dict[int, int] = {src: src}
        order = deque([src])
        while order:
            current = order.popleft()
            for neighbor in graph[current]:
                if neighbor not in parent:
                    parent[neighbor] = current
                    order.append(neighbor)
        table: Dict[int, int] = {}
        for dst in parent:
            if dst == src:
                continue
            # Walk back from dst to the hop adjacent to src.
            hop = dst
            while parent[hop] != src:
                hop = parent[hop]
            table[dst] = hop
        tables[src] = table
    return tables


def install_static_routing(nodes: Iterable[Node], channel) -> None:
    """Create and attach a :class:`StaticRouting` on every node."""
    node_list = list(nodes)
    tables = compute_static_routes(node_list, channel)
    for node in node_list:
        routing = StaticRouting(tables.get(node.node_id, {}))
        routing.attach(node)
