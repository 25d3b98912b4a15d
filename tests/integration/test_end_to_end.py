"""Integration tests: full stack (PHY + MAC + routing + TCP) end to end."""

import pytest

from repro.experiments import ScenarioConfig, run_chain
from repro.routing import install_aodv_routing, install_static_routing
from repro.topology import build_chain
from repro.traffic import start_ftp
from repro.transport import known_variants


@pytest.mark.parametrize("variant", known_variants())
def test_every_variant_moves_data_over_a_chain(variant):
    result = run_chain(3, [variant], config=ScenarioConfig(sim_time=8.0, seed=1))
    flow = result.flows[0]
    assert flow.delivered_packets > 20, f"{variant} barely moved data"
    assert flow.goodput_kbps > 50.0


@pytest.mark.parametrize("routing", ["static", "aodv"])
def test_routing_choices_both_work(routing):
    result = run_chain(
        4, ["newreno"], config=ScenarioConfig(sim_time=8.0, seed=2, routing=routing)
    )
    assert result.flows[0].goodput_kbps > 50.0


def test_longer_chains_deliver_less(seed=1):
    """The headline monotonicity of Figs 5.8-5.10."""
    goodputs = []
    for hops in (2, 8, 16):
        result = run_chain(hops, ["newreno"], config=ScenarioConfig(sim_time=10.0, seed=seed))
        goodputs.append(result.flows[0].goodput_kbps)
    assert goodputs[0] > goodputs[1] > goodputs[2]


def test_deliveries_are_in_order_and_complete():
    net = build_chain(3, seed=3)
    install_static_routing(net.nodes, net.channel)
    flow = start_ftp(net.sim, net.nodes[0], net.nodes[-1], variant="newreno", max_packets=50)
    net.sim.run(until=20.0)
    assert flow.sink.delivered_packets == 50
    assert flow.sink.rcv_nxt == 50
    assert flow.sender.finished


def test_two_flows_share_a_chain():
    result = run_chain(
        3, ["newreno", "newreno"], config=ScenarioConfig(sim_time=10.0, seed=1)
    )
    for flow in result.flows:
        assert flow.goodput_kbps > 20.0
    assert result.fairness > 0.5


def test_determinism_same_seed_same_results():
    a = run_chain(4, ["muzha"], config=ScenarioConfig(sim_time=6.0, seed=7))
    b = run_chain(4, ["muzha"], config=ScenarioConfig(sim_time=6.0, seed=7))
    assert a.flows[0].goodput_kbps == b.flows[0].goodput_kbps
    assert a.flows[0].cwnd_trace == b.flows[0].cwnd_trace


def test_different_seeds_differ():
    a = run_chain(4, ["newreno"], config=ScenarioConfig(sim_time=6.0, seed=1))
    b = run_chain(4, ["newreno"], config=ScenarioConfig(sim_time=6.0, seed=2))
    assert a.flows[0].cwnd_trace != b.flows[0].cwnd_trace


def test_aodv_discovery_then_data_flows_quickly():
    net = build_chain(6, seed=4)
    protocols = install_aodv_routing(net.nodes, net.sim)
    flow = start_ftp(net.sim, net.nodes[0], net.nodes[-1], variant="newreno")
    net.sim.run(until=2.0)
    assert flow.sink.delivered_packets > 5
    assert protocols[0].next_hop(6) == 1


def test_mac_level_accounting_consistent():
    net = build_chain(2, seed=5)
    install_static_routing(net.nodes, net.channel)
    flow = start_ftp(net.sim, net.nodes[0], net.nodes[-1], variant="newreno", max_packets=30)
    net.sim.run(until=20.0)
    src_mac = net.nodes[0].mac.counters
    relay = net.nodes[1]
    # every TCP data packet the source put on the air was either delivered
    # (and forwarded) or dropped at the MAC
    assert src_mac.data_tx >= 30
    assert relay.counters.forwarded >= 30
