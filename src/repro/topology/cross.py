"""Cross topologies (paper Fig. 5.15): two h-hop chains sharing the centre.

A 4-hop cross has 9 nodes: a horizontal chain of 5 and a vertical chain of
5 that share the centre node.  One flow runs left-to-right, the other
top-to-bottom; both must traverse the shared centre, which is where the
fairness contest of Simulation 3A happens.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..net.node import Node
from ..phy.error_models import ErrorModel
from ..phy.position import Position
from .builder import Network, make_network, place_nodes
from .chain import DEFAULT_SPACING


def check_cross_hops(hops: int) -> None:
    """Refuse a cross whose centre would not lie on both chains: ``hops``
    must be even and at least 2."""
    if hops < 2 or hops % 2 != 0:
        raise ValueError(f"cross topology needs an even hops >= 2, got {hops}")


def cross_positions(
    hops: int, spacing: float = DEFAULT_SPACING
) -> Tuple[List[Position], int, int, int, int, int]:
    """Positions for an h-hop cross plus the indices of its five landmarks.

    Returns ``(positions, left, right, top, bottom, center)`` where the
    named values are node indices (see :func:`check_cross_hops`).
    """
    check_cross_hops(hops)
    half = hops // 2
    positions: List[Position] = []
    # Horizontal chain: node 0 .. node hops, centre at index `half`.
    for i in range(hops + 1):
        positions.append(Position((i - half) * spacing, 0.0))
    left, right, center = 0, hops, half
    # Vertical chain shares the centre: add the remaining `hops` nodes.
    top = len(positions)
    for j in range(hops + 1):
        if j == half:
            continue  # the centre node already exists
        positions.append(Position(0.0, (half - j) * spacing))
    # Vertical nodes are appended top-to-bottom skipping the centre, so the
    # last appended one is the bottom end.
    bottom = len(positions) - 1
    return positions, left, right, top, bottom, center


class CrossNetwork(Network):
    """A cross network annotated with its landmark nodes."""

    left: Node
    right: Node
    top: Node
    bottom: Node
    center: Node


def build_cross(
    hops: int,
    seed: int = 1,
    spacing: float = DEFAULT_SPACING,
    error_model: Optional[ErrorModel] = None,
    ifq_capacity: int = 50,
) -> CrossNetwork:
    """Build an h-hop cross network (2h+1 nodes for even ``hops``)."""
    base = make_network(seed=seed, error_model=error_model)
    network = CrossNetwork(sim=base.sim, channel=base.channel)
    positions, left, right, top, bottom, center = cross_positions(hops, spacing)
    nodes = place_nodes(network, positions, ifq_capacity=ifq_capacity)
    network.left = nodes[left]
    network.right = nodes[right]
    network.top = nodes[top]
    network.bottom = nodes[bottom]
    network.center = nodes[center]
    return network
