"""Chaos acceptance suite: injected faults against full protocol stacks.

The contracts under test:

* graceful degradation — a node dying mid-transmission must not raise from
  stale MAC/PHY/AODV events, and the surviving nodes must detect the break
  (RERR) and re-establish the route once the node restarts;
* determinism — a fault run is as replayable as a clean one: same seed +
  same plan ⇒ byte-identical results, and ``verify_manifest`` holds;
* the paper's protocols survive chaos — Muzha and the baselines all keep
  delivering across crash/blackout scenarios.
"""

import pytest

from repro.experiments import (
    RunSpec,
    ScenarioConfig,
    execute_run,
    run_chain,
    verify_manifest,
)
from repro.experiments.config import stable_digest
from repro.faults import FaultEvent, FaultPlan, RandomFaults, install_faults
from repro.routing import install_aodv_routing
from repro.topology import build_chain
from repro.traffic import start_ftp


def crash_plan(node=1, at=2.0, downtime=2.0):
    return FaultPlan(events=(
        FaultEvent(time=at, kind="node_crash", node=node, duration=downtime),
    ))


def blackout_plan(a=0, b=1, at=2.0, duration=1.0):
    return FaultPlan(events=(
        FaultEvent(time=at, kind="link_blackout", node=a, peer=b,
                   duration=duration),
    ))


# ---------------------------------------------------------------------------
# Node crash: graceful degradation and recovery


def test_relay_crash_rerr_heal_and_tcp_resume():
    """The only relay of a 2-hop chain dies mid-transfer and comes back.

    While it is down the chain is partitioned: the sender's MAC exhausts its
    retries, AODV confirms the link loss and emits a RERR, and the TCP flow
    stalls.  After the restart, discovery must find the (rebooted) relay
    again and the flow must deliver new data — all without a single stale
    event blowing up the run.
    """
    network = build_chain(2, seed=3)
    protocols = install_aodv_routing(network.nodes, network.sim)
    injector = install_faults(network, crash_plan(node=1, at=2.0, downtime=2.0))
    flow = start_ftp(network.sim, network.nodes[0], network.nodes[2],
                     variant="newreno", window=4)

    network.sim.run(until=2.0)
    delivered_before_crash = flow.sink.delivered_packets
    assert delivered_before_crash > 5, "flow never established"

    network.sim.run(until=4.0)  # the outage window
    relay = network.node(1)
    assert relay.counters.crashes == 1
    assert protocols[0].counters.link_failures >= 1
    assert sum(p.aodv.rerr_tx for p in protocols.values()) >= 1, \
        "no RERR for the dead next hop"

    network.sim.run(until=15.0)
    assert injector.counters.restarts == 1
    assert not relay.down
    assert protocols[0].next_hop(2) == 1, "route never healed"
    assert flow.sink.delivered_packets > delivered_before_crash + 20, \
        "TCP flow did not resume after the route healed"


def test_crash_mid_discovery_leaves_no_stale_timers():
    """Crashing the discovery originator while its RREQ timer is pending
    must stop the timer: a dead node rebroadcasting RREQs (or firing any
    event at all) is the classic stale-timer crash this guards against."""
    network = build_chain(2, seed=4)
    protocols = install_aodv_routing(network.nodes, network.sim)
    # Crash the source 50 ms in: route discovery for the first data packet
    # is still in flight, so a PATH_DISCOVERY timer is pending.  No restart.
    plan = FaultPlan(events=(
        FaultEvent(time=0.05, kind="node_crash", node=0),
    ))
    install_faults(network, plan)
    start_ftp(network.sim, network.nodes[0], network.nodes[2],
              variant="newreno", window=4)
    network.sim.run(until=10.0)  # raises if any stale event fires
    assert network.node(0).down
    assert protocols[0]._pending == {}, "pending discovery survived the crash"
    # the dead node transmitted nothing after the crash
    assert network.node(0).counters.down_drops > 0


def test_crash_is_idempotent_and_overlap_safe():
    network = build_chain(2, seed=5)
    install_aodv_routing(network.nodes, network.sim)
    plan = FaultPlan(events=(
        FaultEvent(time=1.0, kind="node_crash", node=1, duration=3.0),
        FaultEvent(time=2.0, kind="node_crash", node=1, duration=0.5),
    ))
    injector = install_faults(network, plan)
    start_ftp(network.sim, network.nodes[0], network.nodes[2],
              variant="newreno", window=4)
    network.sim.run(until=10.0)
    # the overlapping crash collapsed into the first outage
    assert injector.counters.crashes == 1
    assert network.node(1).counters.crashes == 1
    assert not network.node(1).down


# ---------------------------------------------------------------------------
# Determinism under faults


@pytest.mark.parametrize("plan_builder", [crash_plan, blackout_plan])
def test_same_seed_fault_run_replays_byte_identically(plan_builder):
    config = ScenarioConfig(sim_time=8.0, seed=11, window=4,
                            faults=plan_builder())
    first = run_chain(2, ["newreno"], config=config)
    second = run_chain(2, ["newreno"], config=config)
    assert stable_digest(first.to_dict()) == stable_digest(second.to_dict())


def test_fault_manifest_verifies():
    config = ScenarioConfig(sim_time=6.0, seed=7, window=4,
                            faults=crash_plan(at=1.5, downtime=1.5))
    spec = RunSpec(kind="chain", hops=2, variants=("muzha",), config=config)
    result = execute_run(spec)
    assert result.manifest is not None
    assert spec.to_dict()["config"]["faults"] == (
        crash_plan(at=1.5, downtime=1.5).to_dict()
    )
    # replay from the manifest alone: the spec (fault plan included) rebuilds
    # the run and its result digest matches bit for bit
    assert verify_manifest(result.manifest)


def test_random_faults_differ_across_seeds_but_not_reruns():
    def digest(seed):
        plan = FaultPlan(random=RandomFaults(crashes=1, crash_downtime=1.0))
        config = ScenarioConfig(sim_time=6.0, seed=seed, window=4, faults=plan)
        return stable_digest(run_chain(3, ["newreno"], config=config).to_dict())

    assert digest(1) == digest(1)
    assert digest(1) != digest(2)


# ---------------------------------------------------------------------------
# Blackout and chaos acceptance across TCP variants


def test_blackout_stalls_then_recovers():
    network = build_chain(2, seed=6)
    install_aodv_routing(network.nodes, network.sim)
    injector = install_faults(network, blackout_plan(at=2.0, duration=1.0))
    flow = start_ftp(network.sim, network.nodes[0], network.nodes[2],
                     variant="newreno", window=4)
    network.sim.run(until=2.0)
    before = flow.sink.delivered_packets
    network.sim.run(until=12.0)
    assert injector.counters.blackouts == 1
    assert injector.counters.heals == 1
    assert flow.sink.delivered_packets > before + 20, \
        "flow did not recover from the blackout"


@pytest.mark.parametrize("variant", ["muzha", "newreno", "sack", "vegas"])
def test_variants_survive_crash_and_blackout_chaos(variant):
    """The acceptance gate: every paper variant keeps delivering through a
    relay crash plus a link blackout, and the goodput stays positive."""
    plan = FaultPlan(events=(
        FaultEvent(time=2.0, kind="node_crash", node=1, duration=1.5),
        FaultEvent(time=6.0, kind="link_blackout", node=1, peer=2,
                   duration=1.0),
    ))
    config = ScenarioConfig(sim_time=12.0, seed=9, window=4, faults=plan)
    result = run_chain(2, [variant], config=config)
    flow = result.flows[0]
    assert flow.goodput_kbps > 0.0
    assert flow.delivered_packets > 30, (
        f"{variant} delivered only {flow.delivered_packets} packets "
        "across the chaos scenario"
    )
    assert result.link_failures >= 1  # the chaos actually bit


def test_muzha_goodput_comparable_to_newreno_under_chaos():
    """Muzha's router assist must not collapse under faults: its goodput
    stays within a sane band of NewReno's on the identical chaos run."""
    plan = crash_plan(node=1, at=3.0, downtime=1.5)

    def goodput(variant):
        config = ScenarioConfig(sim_time=12.0, seed=13, window=4, faults=plan)
        return run_chain(2, [variant], config=config).flows[0].goodput_kbps

    muzha, newreno = goodput("muzha"), goodput("newreno")
    assert muzha > 0 and newreno > 0
    assert muzha > 0.3 * newreno
