"""Unit tests for static shortest-path routing."""

from repro.net import Node
from repro.phy import Position, WirelessChannel
from repro.routing import (
    StaticRouting,
    compute_static_routes,
    install_static_routing,
    neighbor_graph,
)
from repro.sim import Simulator


def build(positions, seed=1):
    sim = Simulator(seed=seed)
    channel = WirelessChannel(sim)
    nodes = [Node(sim, channel, i, pos) for i, pos in enumerate(positions)]
    return sim, channel, nodes


def test_static_routing_lookup():
    routing = StaticRouting({5: 2, 6: 3})
    assert routing.next_hop(5) == 2
    assert routing.next_hop(6) == 3
    assert routing.next_hop(7) is None


def test_neighbor_graph_chain():
    sim, channel, nodes = build([Position(250.0 * i) for i in range(4)])
    graph = neighbor_graph(nodes, channel)
    assert graph[0] == [1]
    assert set(graph[1]) == {0, 2}
    assert set(graph[2]) == {1, 3}


def test_compute_static_routes_chain_next_hops():
    sim, channel, nodes = build([Position(250.0 * i) for i in range(5)])
    tables = compute_static_routes(nodes, channel)
    # node 0 reaches everyone via node 1
    assert tables[0] == {1: 1, 2: 1, 3: 1, 4: 1}
    # middle node routes each direction correctly
    assert tables[2][0] == 1
    assert tables[2][4] == 3


def test_unreachable_destinations_absent():
    sim, channel, nodes = build([Position(0), Position(10_000)])
    tables = compute_static_routes(nodes, channel)
    assert 1 not in tables[0]
    assert 0 not in tables[1]


def test_routes_prefer_shortest_path():
    # a 2x2 grid at 250 m spacing: diagonal neighbours are ~354 m apart
    # (out of range), so corner-to-corner is exactly two hops.
    sim, channel, nodes = build(
        [Position(0, 0), Position(250, 0), Position(0, 250), Position(250, 250)]
    )
    tables = compute_static_routes(nodes, channel)
    assert tables[0][3] in (1, 2)


def test_install_attaches_routing_to_every_node():
    sim, channel, nodes = build([Position(250.0 * i) for i in range(3)])
    install_static_routing(nodes, channel)
    for node in nodes:
        assert isinstance(node.routing, StaticRouting)
    assert nodes[0].routing.next_hop(2) == 1
