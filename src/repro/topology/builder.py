"""Network assembly: a :class:`Network` bundles the simulator, channel and
nodes of one scenario and offers the routing/DRAI installation helpers the
experiment runners use."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..net.node import Node
from ..phy.channel import WirelessChannel
from ..phy.error_models import ErrorModel
from ..phy.position import Position
from ..phy.propagation import DiskPropagation
from ..sim.simulator import Simulator


@dataclass
class Network:
    """One assembled scenario network."""

    sim: Simulator
    channel: WirelessChannel
    nodes: List[Node] = field(default_factory=list)

    def node(self, node_id: int) -> Node:
        """Look up a node by id."""
        for candidate in self.nodes:
            if candidate.node_id == node_id:
                return candidate
        raise KeyError(f"no node with id {node_id}")

    def add_node(self, position: Position, **node_kwargs) -> Node:
        """Create a node at ``position`` with the next free id."""
        node_id = max((n.node_id for n in self.nodes), default=-1) + 1
        node = Node(self.sim, self.channel, node_id, position, **node_kwargs)
        self.nodes.append(node)
        return node

    @property
    def ids(self) -> List[int]:
        return [node.node_id for node in self.nodes]


def make_network(
    seed: int = 1,
    propagation: Optional[DiskPropagation] = None,
    error_model: Optional[ErrorModel] = None,
    sim: Optional[Simulator] = None,
) -> Network:
    """Create an empty network (simulator + channel) ready for nodes."""
    sim = sim or Simulator(seed=seed)
    channel = WirelessChannel(sim, propagation=propagation, error_model=error_model)
    return Network(sim=sim, channel=channel)


def place_nodes(
    network: Network,
    positions: List[Position],
    ifq_capacity: int = 50,
) -> List[Node]:
    """Add one node per position (ids assigned in order)."""
    return [network.add_node(pos, ifq_capacity=ifq_capacity) for pos in positions]
