"""Chain topologies (paper Fig. 5.1): h+1 equally spaced nodes, h hops.

Node 0 is the conventional source end and node ``h`` the destination end;
the 250 m spacing means each node decodes only its immediate neighbours
while sensing (and interfering with) nodes two hops away — the geometry the
paper's contention results depend on.
"""

from __future__ import annotations

from typing import List, Optional

from ..net.node import Node
from ..phy.error_models import ErrorModel
from ..phy.position import Position
from .builder import Network, make_network, place_nodes

#: The paper's node spacing (metres) = the transmission radius.
DEFAULT_SPACING = 250.0


def chain_positions(hops: int, spacing: float = DEFAULT_SPACING) -> List[Position]:
    """Positions of the h+1 nodes of an h-hop chain along the x axis."""
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    return [Position(spacing * i, 0.0) for i in range(hops + 1)]


def build_chain(
    hops: int,
    seed: int = 1,
    spacing: float = DEFAULT_SPACING,
    error_model: Optional[ErrorModel] = None,
    ifq_capacity: int = 50,
) -> Network:
    """Build an h-hop chain network (nodes 0..h)."""
    network = make_network(seed=seed, error_model=error_model)
    place_nodes(
        network,
        chain_positions(hops, spacing),
        ifq_capacity=ifq_capacity,
    )
    return network


def chain_endpoints(network: Network) -> tuple:
    """(source node, destination node) of a chain built here."""
    return network.nodes[0], network.nodes[-1]
