"""Unit tests for the metrics snapshot (repro.obs.metrics).

The format tests feed :func:`collect_network_metrics` hand-built stub nodes
and flows, so they pin the snapshot's layout without running a simulator.
"""

import json
from types import SimpleNamespace

import pytest

from repro.experiments import ScenarioConfig, run_chain
from repro.obs import collect_network_metrics


# -- stubs --------------------------------------------------------------------


class _Queue(SimpleNamespace):
    """An interface queue: its counters plus a length."""

    def __len__(self):
        return self.length


def _node(nid, rx_ok=1, nav_time_s=0.25, drai=None):
    node = SimpleNamespace(
        node_id=nid,
        radio=SimpleNamespace(rx_ok=rx_ok, collisions=0, medium_errors=0),
        mac=SimpleNamespace(counters=SimpleNamespace(
            data_tx=10 * nid, retries=nid, nav_time_s=nav_time_s,
            busy=True,  # a bool field is neither a counter nor a gauge
        )),
        ifq=_Queue(enqueued=3, dequeued=3, drops=0, high_water=2,
                   occupancy=0.5, length=0),
        counters=SimpleNamespace(forwarded=nid),
        routing=None,
    )
    if drai is not None:
        node.drai = drai
    return node


def _flow(src, dst, data_sent, trace=(), srtt_s=0.0):
    sender = SimpleNamespace(
        node=src,
        stats=SimpleNamespace(data_sent=data_sent, retransmits=1, srtt_s=srtt_s),
        cwnd=2.0, ssthresh=8.0, rtt=SimpleNamespace(rto=1.0),
        cwnd_trace=list(trace),
    )
    sink = SimpleNamespace(node=dst, delivered_packets=data_sent - 1,
                           delivered_bytes=1000 * (data_sent - 1))
    return SimpleNamespace(sender=sender, sink=sink)


def _snapshot(nodes, flows=()):
    return collect_network_metrics(SimpleNamespace(nodes=nodes), flows).snapshot()


def _drai():
    return SimpleNamespace(
        level_counts={3: 4, 1: 2}, drai=3, utilization=0.5, occupancy=0.1,
        policy=SimpleNamespace(name="fuzzy"), state_counts={"hold": 6},
    )


# -- snapshot format ----------------------------------------------------------


def test_counter_increments_monotonically():
    """Counter writes to one series add up: the tcp.* sender stats are
    labelled by node only, so two flows from node 0 share a series; a float
    stats field is a gauge whose last write wins."""
    src, dst = _node(0), _node(2)
    snap = _snapshot([src, dst], [
        _flow(src, dst, data_sent=5, srtt_s=0.5),
        _flow(src, dst, data_sent=7, srtt_s=0.75),
    ])
    assert snap["counters"]["tcp.data_sent"] == {"node=0": 12}
    assert snap["counters"]["tcp.retransmits"] == {"node=0": 2}
    assert snap["gauges"]["tcp.srtt_s"] == {"node=0": 0.75}
    # sink counters carry the flow label: one series per flow
    assert snap["counters"]["tcp.delivered_packets"] == {
        "flow=0,node=2": 4, "flow=1,node=2": 6,
    }
    rollups = snap["rollups"]
    assert rollups["global"]["tcp.data_sent"] == 12
    assert rollups["global"]["tcp.delivered_packets"] == 10
    assert rollups["per_node"]["0"]["tcp.data_sent"] == 12
    assert rollups["per_node"]["2"]["tcp.delivered_bytes"] == 10000
    assert "tcp.srtt_s" not in rollups["global"]


def test_histogram_buckets_and_summary():
    src, dst = _node(0), _node(1)
    snap = _snapshot([src, dst], [
        _flow(src, dst, 5, trace=[(t, v) for t, v in
                                  enumerate((0.5, 1.0, 3.0, 16.0, 100.0))]),
        _flow(src, dst, 5),  # an empty cwnd trace
    ])
    hists = snap["histograms"]["tcp.cwnd_samples"]
    seen = hists["flow=0,node=0"]
    # bounds are inclusive upper edges: 0.5 and 1.0 land in le_1, and 100
    # overflows into inf; the bucket keys keep bound order.
    assert list(seen["buckets"].items()) == [
        ("le_1", 2), ("le_2", 0), ("le_4", 1), ("le_8", 0), ("le_16", 1),
        ("le_32", 0), ("le_64", 0), ("inf", 1),
    ]
    assert list(seen) == ["buckets", "count", "sum", "mean"]
    assert seen["count"] == 5
    assert seen["sum"] == pytest.approx(120.5)
    assert seen["mean"] == pytest.approx(120.5 / 5)
    empty = hists["flow=1,node=0"]
    assert set(empty["buckets"].values()) == {0}
    assert (empty["count"], empty["sum"], empty["mean"]) == (0, 0.0, 0.0)


def test_registry_label_order_does_not_matter():
    """A label string joins its pairs in key order, whatever the layer."""
    src, dst = _node(0, drai=_drai()), _node(1)
    snap = _snapshot([src, dst], [_flow(src, dst, 3)])
    assert list(snap["gauges"]["tcp.cwnd"]) == ["flow=0,node=0"]
    assert snap["counters"]["drai.advice"] == {
        "level=1,node=0": 2, "level=3,node=0": 4,
    }
    assert snap["counters"]["drai.state_samples"] == {
        "node=0,policy=fuzzy,state=hold": 6,
    }
    assert snap["gauges"]["drai.level"] == {"node=0": 3.0}
    assert snap["rollups"]["per_node"]["0"]["drai.advice"] == 6


def test_snapshot_shape_and_rollups():
    snap = _snapshot([_node(0), _node(2), _node(10, nav_time_s=1.5)])
    assert list(snap) == ["counters", "gauges", "histograms", "rollups"]
    assert list(snap["rollups"]) == ["global", "per_node"]
    # label strings sort as strings; per_node orders nodes by (len, str)
    assert list(snap["counters"]["mac.data_tx"].items()) == [
        ("node=0", 0), ("node=10", 100), ("node=2", 20),
    ]
    assert list(snap["rollups"]["per_node"]) == ["0", "2", "10"]
    assert snap["rollups"]["per_node"]["10"]["mac.retries"] == 10
    # names sort at every level
    names = list(snap["rollups"]["global"])
    assert names == sorted(names) == list(snap["counters"])
    assert snap["rollups"]["global"]["mac.data_tx"] == 120
    assert snap["rollups"]["global"]["phy.rx_ok"] == 3
    # float fields are gauges and stay out of the rollups
    assert snap["gauges"]["mac.nav_time_s"]["node=10"] == 1.5
    assert snap["gauges"]["ifq.len"] == {"node=0": 0.0, "node=10": 0.0,
                                         "node=2": 0.0}
    assert "mac.nav_time_s" not in snap["rollups"]["global"]
    assert all("mac.nav_time_s" not in by and "ifq.len" not in by
               for by in snap["rollups"]["per_node"].values())
    assert "mac.busy" not in snap["counters"] and "mac.busy" not in snap["gauges"]
    assert snap["histograms"] == {}


def test_snapshot_is_insertion_order_independent():
    def harvest(order):
        nodes = {nid: _node(nid, rx_ok=nid + 1, drai=_drai()) for nid in (0, 2, 10)}
        flows = [_flow(nodes[0], nodes[10], 5, trace=[(0.0, 1.0), (1.0, 3.0)]),
                 _flow(nodes[2], nodes[10], 4)]
        return json.dumps(_snapshot([nodes[nid] for nid in order], flows))

    assert harvest((0, 2, 10)) == harvest((10, 2, 0))


# -- network harvest ----------------------------------------------------------


def _chain_result_and_network(seed):
    from repro.routing import install_aodv_routing
    from repro.topology import build_chain
    from repro.traffic import start_ftp

    net = build_chain(2, seed=seed)
    install_aodv_routing(net.nodes, net.sim)
    flow = start_ftp(net.sim, net.nodes[0], net.nodes[-1], variant="newreno")
    net.sim.run(until=3.0)
    return net, [flow]


def test_collect_network_metrics_covers_every_layer():
    net, flows = _chain_result_and_network(seed=7)
    snap = collect_network_metrics(net, flows).snapshot()
    rollup = snap["rollups"]["global"]
    assert rollup["mac.data_tx"] > 0
    assert rollup["ifq.enqueued"] > 0
    assert rollup["tcp.data_sent"] > 0
    assert rollup["tcp.delivered_packets"] > 0
    assert rollup["aodv.rreq_tx"] > 0 and rollup["aodv.discoveries"] > 0
    assert "phy.rx_ok" in rollup
    # per-node rollups cover every node in the chain
    assert set(snap["rollups"]["per_node"]) >= {"0", "1", "2"}
    # the cwnd histogram saw at least the initial sample
    hists = snap["histograms"]["tcp.cwnd_samples"]
    assert sum(entry["count"] for entry in hists.values()) > 0


def test_snapshot_determinism_across_identical_seeds():
    snaps = []
    for _ in range(2):
        net, flows = _chain_result_and_network(seed=11)
        snaps.append(json.dumps(collect_network_metrics(net, flows).snapshot(),
                                sort_keys=True))
    assert snaps[0] == snaps[1]


def test_run_chain_result_carries_metrics_snapshot():
    result = run_chain(2, ["newreno"], config=ScenarioConfig(sim_time=2.0, seed=5))
    rollup = result.metrics["rollups"]["global"]
    assert rollup["mac.data_tx"] > 0
    assert result.to_dict()["metrics"] == result.metrics
