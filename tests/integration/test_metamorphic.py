"""Metamorphic relations: the simulator checked against itself.

A golden trace pins what the simulator does; a metamorphic relation states
what must *not* change when the input changes in a way that cannot matter
(Chen, Cheung & Yiu, HKUST-CS98-01, 1998).  An exact relation that fails is
a bug or a DESIGN.md §6 entry; it is never loosened to pass.
"""

import pytest

from repro.experiments import ScenarioConfig, run_flows
from repro.phy.position import Position
from repro.sim.trace import TraceRecorder
from repro.topology import build_chain

HOPS = 8

#: Far outside every transmission, carrier-sense and interference range of
#: a chain laid along the x axis.
BYSTANDER = Position(0.0, 5000.0)


def mac_tx_by_node(routing, variant, bystander):
    """Each node's ``mac.tx`` (time, kind, dst) sequence on an 8-hop chain
    (seed 1, 10 s), with or without a node at :data:`BYSTANDER`."""
    config = ScenarioConfig(sim_time=10.0, seed=1, routing=routing)
    network = build_chain(HOPS, seed=config.seed,
                          ifq_capacity=config.ifq_capacity)
    if bystander:
        network.add_node(BYSTANDER, ifq_capacity=config.ifq_capacity)
    recorders = []

    def instrument(net, flows):
        recorders.append(TraceRecorder(net.sim.trace, "mac.tx"))

    run_flows(network, [(network.nodes[0], network.nodes[HOPS])], [variant],
              config, instrument=instrument)
    frames = {}
    for record in recorders[0]:
        fields = record.fields
        frames.setdefault(fields["src"], []).append(
            (record.time, fields["kind"], fields["dst"]))
    return frames


@pytest.mark.parametrize("variant", ["muzha", "newreno"])
@pytest.mark.parametrize("routing", ["static", "aodv"])
def test_a_bystander_out_of_range_changes_no_frame(routing, variant):
    """A node no other node can hear, and which hears nobody, adds nothing
    to the medium and draws nothing from the streams the chain uses: every
    chain node sends the same frames at the same instants."""
    alone = mac_tx_by_node(routing, variant, bystander=False)
    watched = mac_tx_by_node(routing, variant, bystander=True)
    assert sorted(alone) == list(range(HOPS + 1))
    assert all(len(frames) > 100 for frames in alone.values())
    assert watched.pop(HOPS + 1, []) == []  # the bystander never transmits
    assert watched == alone
