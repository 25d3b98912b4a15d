"""Unit tests for topology builders (Fig 5.1 chain, Fig 5.15 cross, grid)."""

import pytest

from repro.topology import (
    build_chain,
    build_cross,
    build_grid,
    chain_positions,
    cross_positions,
    grid_node,
    grid_positions,
    make_network,
)


class TestChain:
    def test_positions_spacing(self):
        pts = chain_positions(4)
        assert len(pts) == 5
        assert pts[1].distance_to(pts[0]) == 250.0
        assert pts[4].x == 1000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            chain_positions(0)

    def test_build_chain_connectivity_is_line(self):
        net = build_chain(4)
        graph = {
            node.node_id: sorted(
                peer.node_id
                for peer in (
                    net.channel.neighbors_of(node.radio)
                )
            )
            for node in net.nodes
        }
        assert graph[0] == [1]
        assert graph[2] == [1, 3]
        assert graph[4] == [3]

    def test_node_lookup(self):
        net = build_chain(2)
        assert net.node(1).node_id == 1
        with pytest.raises(KeyError):
            net.node(99)


class TestCross:
    def test_fig_5_15_has_nine_nodes_for_four_hops(self):
        positions, *_ = cross_positions(4)
        assert len(positions) == 9

    def test_landmarks_are_at_extremes(self):
        net = build_cross(4)
        assert (net.left.node_id, net.right.node_id) != (None, None)
        pos = {n.node_id: net.channel.position_of(n.radio) for n in net.nodes}
        assert pos[net.left.node_id].x == -500.0
        assert pos[net.right.node_id].x == 500.0
        assert pos[net.top.node_id].y == 500.0
        assert pos[net.bottom.node_id].y == -500.0
        assert (pos[net.center.node_id].x, pos[net.center.node_id].y) == (0, 0)

    def test_both_arms_are_h_hop_paths(self):
        from repro.routing import compute_static_routes

        net = build_cross(4)
        tables = compute_static_routes(net.nodes, net.channel)
        # left -> right must go through the centre
        hop = net.left.node_id
        path = [hop]
        while hop != net.right.node_id:
            hop = tables[hop][net.right.node_id]
            path.append(hop)
        assert len(path) == 5  # 4 hops
        assert net.center.node_id in path

    def test_odd_hops_rejected(self):
        from repro.experiments import RunSpec

        with pytest.raises(ValueError):
            cross_positions(3)
        with pytest.raises(ValueError):
            cross_positions(0)
        # A spec checks the same rule where it is built, not mid-run in a
        # forked worker.
        for hops in (1, 3, 5):
            with pytest.raises(ValueError, match=f"even hops >= 2, got {hops}"):
                RunSpec("cross", hops, ("newreno", "muzha"))
        assert RunSpec("chain", 3, ("newreno",)).hops == 3

    def test_larger_cross_sizes(self):
        for hops in (6, 8):
            positions, *_ = cross_positions(hops)
            assert len(positions) == 2 * hops + 1


class TestGrid:
    def test_positions_count_and_layout(self):
        pts = grid_positions(2, 3)
        assert len(pts) == 6
        assert pts[0].distance_to(pts[1]) == 250.0
        assert pts[0].distance_to(pts[3]) == 250.0

    def test_grid_node_lookup(self):
        net = build_grid(2, 3)
        node = grid_node(net, 2, 3, 1, 2)
        assert node.node_id == 5
        with pytest.raises(IndexError):
            grid_node(net, 2, 3, 2, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_positions(0, 5)


class TestNetwork:
    def test_add_node_assigns_sequential_ids(self):
        net = make_network(seed=1)
        from repro.phy import Position

        a = net.add_node(Position(0))
        b = net.add_node(Position(250))
        assert (a.node_id, b.node_id) == (0, 1)
        assert net.ids == [0, 1]
