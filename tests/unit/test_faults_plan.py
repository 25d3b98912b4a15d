"""Unit tests for fault plans (repro.faults): validation, serialization,
seeded-random expansion, and the injector's scheduling behaviour."""

import json
import random

import pytest

from repro.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    RandomFaults,
    build_error_model,
    install_faults,
)
from repro.faults.plan import MAX_RANDOM_FAULTS
from repro.phy.error_models import (
    GilbertElliott,
    NoError,
    PacketErrorRate,
    UniformBitError,
)
from repro.topology import build_chain


# ---------------------------------------------------------------------------
# Event validation


def test_unknown_kind_rejected():
    with pytest.raises(FaultPlanError, match="unknown fault kind"):
        FaultEvent(time=1.0, kind="meteor_strike")


def test_negative_time_rejected():
    with pytest.raises(FaultPlanError, match="time"):
        FaultEvent(time=-0.5, kind="node_crash", node=1)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(kind="node_crash"), "node_crash needs a node"),
        (dict(kind="link_blackout", node=1, peer=2), "duration"),
        (dict(kind="link_blackout", node=1, peer=1, duration=1.0), "differ"),
        (dict(kind="error_burst", duration=1.0), "model"),
        (dict(kind="queue_spike", node=1, duration=1.0), "capacity"),
        (dict(kind="queue_spike", node=1, capacity=0, duration=1.0), ">= 1"),
        (dict(kind="partition", duration=1.0), "groups"),
        (dict(kind="partition", groups=((0, 1),), duration=1.0), "two groups"),
        (
            dict(kind="partition", groups=((0, 1), (1, 2)), duration=1.0),
            "two partition groups",
        ),
    ],
)
def test_per_kind_required_fields(kwargs, message):
    with pytest.raises(FaultPlanError, match=message):
        FaultEvent(time=1.0, **kwargs)


def test_error_burst_model_validated_eagerly():
    with pytest.raises(FaultPlanError, match="error-model"):
        FaultEvent(time=1.0, kind="error_burst",
                   model={"kind": "warp"}, duration=1.0)
    with pytest.raises(FaultPlanError, match="bad error-model spec"):
        FaultEvent(time=1.0, kind="error_burst",
                   model={"kind": "per", "per": 3.0}, duration=1.0)


def test_build_error_model_every_kind():
    assert isinstance(build_error_model({"kind": "per", "per": 0.1}),
                      PacketErrorRate)
    assert isinstance(build_error_model({"kind": "ber", "ber": 1e-5}),
                      UniformBitError)
    assert isinstance(
        build_error_model({"kind": "gilbert_elliott", "ber_bad": 0.05}),
        GilbertElliott,
    )
    assert isinstance(build_error_model({"kind": "none"}), NoError)


# ---------------------------------------------------------------------------
# Serialization


def scripted_plan():
    return FaultPlan(events=(
        FaultEvent(time=2.0, kind="node_crash", node=1, duration=2.0),
        FaultEvent(time=4.0, kind="link_blackout", node=0, peer=1, duration=1.0),
        FaultEvent(time=5.0, kind="error_burst",
                   model={"kind": "per", "per": 0.2}, duration=0.5),
        FaultEvent(time=6.0, kind="queue_spike", node=1, capacity=2, duration=1.0),
        FaultEvent(time=7.0, kind="partition", groups=((0,), (1, 2)), duration=1.0),
    ))


def test_to_dict_elides_none_fields():
    payload = FaultEvent(time=2.0, kind="node_crash", node=1).to_dict()
    assert payload == {"time": 2.0, "kind": "node_crash", "node": 1}


def test_plan_round_trips_through_dict_and_json(tmp_path):
    plan = scripted_plan()
    assert FaultPlan.from_dict(plan.to_dict()) == plan
    assert FaultPlan.loads(json.dumps(plan.to_dict())) == plan
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.to_dict(), indent=2), encoding="utf-8")
    assert FaultPlan.load(path) == plan


def test_random_spec_round_trips():
    plan = FaultPlan(random=RandomFaults(crashes=2, blackouts=1, nodes=(1, 2)))
    assert FaultPlan.from_dict(plan.to_dict()) == plan


def test_unknown_plan_keys_rejected():
    with pytest.raises(FaultPlanError, match="unknown fault-plan keys"):
        FaultPlan.from_dict({"events": [], "surprise": 1})
    with pytest.raises(FaultPlanError, match="not valid JSON"):
        FaultPlan.loads("{truncated")


def test_empty_plan_is_falsy():
    assert not FaultPlan()
    assert scripted_plan()
    assert FaultPlan(random=RandomFaults(crashes=1))


# ---------------------------------------------------------------------------
# Seeded-random expansion


def test_expansion_is_a_pure_function_of_the_rng_seed():
    spec = RandomFaults(crashes=3, blackouts=2, start=1.0)
    ids = list(range(6))
    a = spec.expand(random.Random(42), horizon=10.0, node_ids=ids)
    b = spec.expand(random.Random(42), horizon=10.0, node_ids=ids)
    c = spec.expand(random.Random(43), horizon=10.0, node_ids=ids)
    assert a == b
    assert a != c


def test_expansion_respects_window_and_eligible_nodes():
    spec = RandomFaults(crashes=8, blackouts=4, start=2.0)
    ids = list(range(5))
    events = spec.expand(random.Random(7), horizon=9.0, node_ids=ids)
    assert len(events) == 12
    assert events == sorted(events, key=lambda e: e.time)
    for event in events:
        assert 2.0 <= event.time <= 9.0
        if event.kind == "node_crash":
            # default eligibility: interior nodes only (the chain's relays)
            assert event.node in (1, 2, 3)
        else:
            assert event.node != event.peer


def test_expansion_without_eligible_nodes_raises():
    with pytest.raises(FaultPlanError, match="not enough nodes"):
        RandomFaults(crashes=1).expand(random.Random(1), 10.0, [0, 1])


# ---------------------------------------------------------------------------
# Injector scheduling


def test_install_twice_raises():
    network = build_chain(2)
    injector = FaultInjector(network, scripted_plan())
    injector.install()
    with pytest.raises(RuntimeError, match="already installed"):
        injector.install()


def test_random_plan_needs_a_horizon():
    network = build_chain(2)
    plan = FaultPlan(random=RandomFaults(crashes=1))
    with pytest.raises(FaultPlanError, match="horizon"):
        FaultInjector(network, plan).install()


def test_install_faults_skips_empty_plans():
    network = build_chain(2)
    assert install_faults(network, None) is None
    assert install_faults(network, FaultPlan()) is None


@pytest.mark.parametrize("plan", [
    FaultPlan(events=(FaultEvent(time=0.5, kind="node_crash", node=99),)),
    FaultPlan(events=(FaultEvent(time=0.5, kind="link_blackout", node=1,
                                 peer=99, duration=1.0),)),
    FaultPlan(events=(FaultEvent(time=0.5, kind="partition",
                                 groups=((0, 1), (2, 99)), duration=1.0),)),
    FaultPlan(random=RandomFaults(crashes=1, nodes=(1, 99))),
], ids=["node", "peer", "partition-member", "random-nodes"])
def test_unknown_node_in_plan_fails_at_install(plan):
    """A missing node used to pass install and raise when its event fired,
    mid-run; now nothing is scheduled."""
    network = build_chain(2)
    pending = network.sim.scheduler.pending_events
    with pytest.raises(FaultPlanError, match="node 99, which does not exist"):
        install_faults(network, plan, horizon=5.0)
    assert network.sim.scheduler.pending_events == pending


@pytest.mark.parametrize("field", ["crashes", "blackouts"])
def test_random_fault_counts_are_capped_at_parse_time(field):
    """Every random fault is expanded and scheduled before the run, so a
    count of millions stalled a run for minutes.  Only parsing is tested
    here: a huge plan is never expanded."""
    RandomFaults(**{field: MAX_RANDOM_FAULTS})
    with pytest.raises(FaultPlanError, match=f"random {field} must be in"):
        FaultPlan.loads(json.dumps({"random": {field: MAX_RANDOM_FAULTS + 1}}))


def test_all_fault_kinds_fire_and_restore(monkeypatch):
    network = build_chain(2, ifq_capacity=50)
    injector = install_faults(network, scripted_plan(), horizon=10.0)
    original_model = network.channel.error_model
    network.sim.run(until=10.0)
    counters = injector.counters
    assert counters.crashes == 1
    assert counters.restarts == 1
    assert counters.blackouts == 1
    assert counters.heals == 1
    assert counters.error_bursts == 1
    assert counters.queue_spikes == 1
    assert counters.partitions == 1
    # every transient effect was rolled back
    assert network.channel.error_model is original_model
    assert network.node(1).ifq.capacity == 50
    assert not network.node(1).down
    for src in network.nodes:
        assert network.channel.neighbors_of(src.radio), "vetoes left behind"


def test_same_seed_yields_identical_schedules():
    def scheduled(seed):
        network = build_chain(3, seed=seed)
        plan = FaultPlan(random=RandomFaults(crashes=2, blackouts=1))
        return install_faults(network, plan, horizon=8.0).scheduled

    assert scheduled(5) == scheduled(5)
    assert scheduled(5) != scheduled(6)


# ---------------------------------------------------------------------------
# The CLI trust boundary


@pytest.mark.parametrize("text, reason", [
    ('{"events": 5}', "events must be a list, got 5"),
    ('{"events": ["ab"]}', "fault event must be an object, got 'ab'"),
    ('{"random": "x"}', "random-faults spec must be an object, got 'x'"),
    ('{"events": [{"time": 1, "kind": "error_burst", "model": "x", '
     '"duration": 1}]}', "error-model spec must be an object, got 'x'"),
    ("[" * 100_000 + "]" * 100_000, "not valid JSON"),
    ('{"events": [{"time": 1, "kind": "node_crash", "node": "a"}]}',
     "fault node must be an integer, got 'a'"),
    ('{"events": [{"time": NaN, "kind": "node_crash", "node": 1}]}',
     "fault time must be finite, got nan"),
], ids=["events-int", "event-str", "random-str", "model-str", "deep-nesting",
        "node-str", "time-nan"])
def test_a_bad_plan_is_a_one_line_usage_error(tmp_path, capsys, text, reason):
    """Each was a traceback out of ``chain --faults`` (``TypeError``,
    ``ValueError``, ``AttributeError``, ``RecursionError``) or, for a node
    named ``"a"`` and a NaN time, a plan accepted and a run that failed
    midway (or ran with a fault at no time)."""
    from repro.cli import main

    plan = tmp_path / "plan.json"
    plan.write_text(text)
    with pytest.raises(SystemExit) as exit_info:
        main(["chain", "--hops", "2", "--time", "1",
              "--faults", str(plan)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.splitlines()[-1]
    assert last.startswith(
        f"repro-muzha chain: error: argument --faults: bad fault plan {plan}: ")
    assert reason in last


@pytest.mark.parametrize("command", [
    ["chain", "--hops", "2"],
    ["trace", "chain", "--hops", "2", "--out", "{tmp}/t.ndjson"],
    ["stats", "chain", "--hops", "2"],
], ids=["chain", "trace", "stats"])
def test_a_plan_naming_a_missing_node_is_a_one_line_error(tmp_path, capsys,
                                                          command):
    """The plan parses, but the scenario has no node 99: this was a
    ``FaultPlanError`` traceback from inside the run."""
    from repro.cli import main

    plan = tmp_path / "plan.json"
    plan.write_text('{"events": [{"time": 1, "kind": "node_crash", "node": 99}]}')
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in command]
    assert main(argv + ["--time", "2", "--faults", str(plan)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"repro-muzha {command[0]}: error: argument --faults: fault plan "
        f"names node 99, which does not exist (nodes are 0..2)"]
