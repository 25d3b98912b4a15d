"""Grid topologies — an extension beyond the paper's chain/cross scenarios,
useful for exercising AODV route diversity and the DRAI under richer
contention patterns."""

from __future__ import annotations

from typing import List, Optional

from ..net.node import Node
from ..phy.error_models import ErrorModel
from ..phy.position import Position
from .builder import Network, make_network, place_nodes
from .chain import DEFAULT_SPACING


def grid_positions(
    rows: int, cols: int, spacing: float = DEFAULT_SPACING
) -> List[Position]:
    """Row-major positions of a ``rows x cols`` grid."""
    if rows < 1 or cols < 1:
        raise ValueError(f"grid needs positive dimensions, got {rows}x{cols}")
    return [
        Position(c * spacing, r * spacing) for r in range(rows) for c in range(cols)
    ]


def build_grid(
    rows: int,
    cols: int,
    seed: int = 1,
    spacing: float = DEFAULT_SPACING,
    error_model: Optional[ErrorModel] = None,
    ifq_capacity: int = 50,
) -> Network:
    """Build a ``rows x cols`` grid network (node ids row-major)."""
    network = make_network(seed=seed, error_model=error_model)
    place_nodes(
        network,
        grid_positions(rows, cols, spacing),
        ifq_capacity=ifq_capacity,
    )
    return network


def grid_node(network: Network, rows: int, cols: int, r: int, c: int) -> Node:
    """The node at grid coordinate (r, c) of a grid built here."""
    if not (0 <= r < rows and 0 <= c < cols):
        raise IndexError(f"({r}, {c}) outside {rows}x{cols} grid")
    return network.nodes[r * cols + c]
