"""Ablation benchmarks for the design choices DESIGN.md calls out.

These go beyond the paper's own figures:

* **Binary vs multi-level feedback** (paper §4.6's argument against
  ECN-style one-bit feedback): a Muzha sender fed by the binary DRAI never
  receives the "stabilizing" level, so its window see-saws; the five-level
  DRAI holds the window steadier and delivers at least as much.
* **Random-loss marking on/off** (paper §4.7): with per-frame random loss,
  disabling the marked/unmarked dupACK classification forces window halving
  on every loss indication; full Muzha should deliver more.
* **DRAI threshold sensitivity**: sweeping the fuzzy queue thresholds
  shows the published-level distribution shifting, while goodput stays in a
  healthy band (the mechanism is robust, not knife-edge tuned).
* **RED vs drop-tail IFQ** (related-work baseline).
* **Router-advice policy bake-off** (``--policies`` CLI below): every
  registered advice policy across static, mobile, and fault-plan scenario
  classes, emitting ``results/BENCH_policies.json``.
"""

from __future__ import annotations

import statistics

import pytest

from repro.core import DraiParams, known_policies
from repro.experiments import ScenarioConfig, run_chain
from repro.net.queues import RedQueue
from repro.stats.fairness import jain_index
from repro.stats.timeseries import time_average

from conftest import banner, run_once, run_waypoint_field

SEEDS = (1, 2, 3)
SIM_TIME = 15.0


def _muzha_run(seed, policy=None, drai_params=None):
    """The flow of one 4-hop Muzha chain run under a configurable advice
    policy."""
    config = ScenarioConfig(sim_time=SIM_TIME, seed=seed, window=8,
                            policy=policy, drai_params=drai_params)
    return run_chain(4, ["muzha"], config=config).flows[0]


def test_ablation_binary_vs_multilevel_feedback(benchmark):
    def campaign():
        rows = []
        for name, policy in [("multi-level", None), ("binary", "binary-feedback")]:
            goodputs, wobble = [], []
            for seed in SEEDS:
                flow = _muzha_run(seed, policy=policy)
                goodputs.append(flow.goodput_kbps)
                # window restlessness: cwnd changes per second after ramp
                changes = sum(1 for t, _ in flow.cwnd_trace if t > 2.0)
                wobble.append(changes / (SIM_TIME - 2.0))
            rows.append((name, statistics.mean(goodputs), statistics.mean(wobble)))
        return rows

    rows = run_once(benchmark, campaign)
    banner("Ablation — multi-level DRAI vs binary (ECN-style) feedback")
    for name, goodput, wobble in rows:
        print(f"{name:>12s}: goodput={goodput:7.1f} kbps  cwnd changes/s={wobble:5.2f}")
    multi, binary = rows[0], rows[1]
    assert multi[2] <= binary[2], "five levels must yield a steadier window"
    assert multi[1] >= 0.9 * binary[1]


def test_ablation_random_loss_marking(benchmark):
    def campaign():
        results = {}
        for variant in ("muzha", "muzha-nomark", "newreno"):
            goodputs = []
            for seed in SEEDS:
                config = ScenarioConfig(
                    sim_time=SIM_TIME, seed=seed, window=8, packet_error_rate=0.03
                )
                run = run_chain(4, [variant], config=config)
                goodputs.append(run.flows[0].goodput_kbps)
            results[variant] = statistics.mean(goodputs)
        return results

    results = run_once(benchmark, campaign)
    banner("Ablation — §4.7 random-loss marking under 3% frame loss")
    for variant, goodput in results.items():
        print(f"{variant:>14s}: {goodput:7.1f} kbps")
    assert results["muzha"] >= results["muzha-nomark"] * 0.95, (
        "loss classification must not hurt Muzha under random loss"
    )
    assert results["muzha"] > results["newreno"], (
        "under random loss, Muzha must beat the loss-halving baseline"
    )


def test_ablation_drai_threshold_sensitivity(benchmark):
    """Sweep the *binding* DRAI constraint on a single-flow chain: the
    medium-saturation ("hold") thresholds.  Disabling them hands control to
    the queue rules and the standing window drifts up; tightening them pins
    the window at the chain's tiny optimum.  Throughput must stay healthy
    across the sweep (the mechanism is robust, not knife-edge tuned)."""

    def campaign():
        settings = {
            "conservative": DraiParams(util_high_lo=0.55, util_high_hi=0.70),
            "default": DraiParams(),
            "disabled": DraiParams(util_high_lo=1.1, util_high_hi=1.2),
        }
        rows = []
        for name, params in settings.items():
            goodputs, mean_cwnds = [], []
            for seed in SEEDS:
                flow = _muzha_run(seed, drai_params=params)
                goodputs.append(flow.goodput_kbps)
                mean_cwnds.append(time_average(flow.cwnd_trace, 1.0, SIM_TIME))
            rows.append(
                (name, statistics.mean(goodputs), statistics.mean(mean_cwnds))
            )
        return rows

    rows = run_once(benchmark, campaign)
    banner("Ablation — DRAI medium-saturation threshold sensitivity")
    for name, goodput, cwnd in rows:
        print(f"{name:>12s}: goodput={goodput:7.1f} kbps  mean cwnd={cwnd:5.2f}")
    cwnds = {name: cwnd for name, _, cwnd in rows}
    assert cwnds["default"] <= cwnds["disabled"], (
        "removing the saturation hold must admit a larger standing window"
    )
    for name, goodput, _ in rows:
        assert goodput > 100.0, f"{name} thresholds collapsed throughput"


def _swap_in_red(network, flows):
    """An ``instrument`` that mutates: every node's IFQ becomes a RED queue
    (so the run's manifest does not replay — see ``execute_run``)."""
    for node in network.nodes:
        red = RedQueue(50, rng=network.sim.stream(f"red.{node.node_id}"))
        red.on_wakeup = node.mac.wakeup
        node.ifq = red
        node.mac.queue = red


def test_ablation_red_vs_droptail_ifq(benchmark):
    def campaign():
        results = {}
        for queue_kind, instrument in (("droptail", None), ("red", _swap_in_red)):
            goodputs = []
            for seed in SEEDS:
                config = ScenarioConfig(sim_time=SIM_TIME, seed=seed, window=8)
                run = run_chain(4, ["newreno"], config=config, instrument=instrument)
                goodputs.append(run.flows[0].goodput_kbps)
            results[queue_kind] = statistics.mean(goodputs)
        return results

    results = run_once(benchmark, campaign)
    banner("Ablation — RED vs drop-tail IFQ under NewReno")
    for kind, goodput in results.items():
        print(f"{kind:>9s}: {goodput:7.1f} kbps")
    for kind, goodput in results.items():
        assert goodput > 50.0, f"{kind} IFQ broke the flow"


# ---------------------------------------------------------------------------
# Router-advice policy bake-off
#
# Runs every requested advice policy through three scenario classes (a
# static 2-flow chain, a mobile random-waypoint field, and a chain under a
# relay-crash fault plan) and reports goodput, Jain fairness, TCP
# retransmissions, and the controller's time-in-state split.  Invoked as
#
#     PYTHONPATH=src python benchmarks/bench_ablations.py --policies
#
# which (re)generates results/BENCH_policies.json; ``--quick`` shrinks the
# grid for CI smoke runs and ``--policy-names``/``--scenarios`` subset it.

BAKEOFF_POLICIES = tuple(known_policies())
BAKEOFF_SCENARIOS = ("static", "mobile", "fault")
DRAI_SAMPLE_INTERVAL = DraiParams().sample_interval


def _time_in_state(counters):
    """Fold ``drai.state_samples`` label series into seconds per state."""
    seconds = {}
    for label, samples in counters.get("drai.state_samples", {}).items():
        fields = dict(part.split("=", 1) for part in label.split(","))
        state = fields["state"]
        seconds[state] = seconds.get(state, 0.0) + samples * DRAI_SAMPLE_INTERVAL
    return {state: round(seconds[state], 3) for state in sorted(seconds)}


def _bakeoff_static(policy, seed, sim_time):
    """Two Muzha flows sharing a 3-hop chain: the fairness scenario."""
    config = ScenarioConfig(sim_time=sim_time, seed=seed, window=8, policy=policy)
    result = run_chain(3, ["muzha", "muzha"], config=config)
    return result.to_dict()


def _bakeoff_fault(policy, seed, sim_time):
    """A 3-hop chain whose middle relay crashes mid-transfer."""
    from repro.faults import FaultEvent, FaultPlan

    plan = FaultPlan(events=(
        FaultEvent(time=sim_time / 3.0, kind="node_crash", node=1,
                   duration=sim_time / 6.0),
    ))
    config = ScenarioConfig(
        sim_time=sim_time, seed=seed, window=8, policy=policy, faults=plan
    )
    result = run_chain(3, ["muzha"], config=config)
    return result.to_dict()


def _bakeoff_mobile(policy, seed, sim_time):
    """A roaming random-waypoint field with one corner-to-corner flow."""
    config = ScenarioConfig(sim_time=sim_time, seed=seed, window=8, policy=policy)
    return run_waypoint_field("muzha", config).to_dict()


_BAKEOFF_RUNNERS = {
    "static": _bakeoff_static,
    "mobile": _bakeoff_mobile,
    "fault": _bakeoff_fault,
}


def _bakeoff_cell(policy, scenario, seeds, sim_time):
    """Average one (policy, scenario) cell over ``seeds``."""
    goodputs, fairness, retransmits, states = [], [], [], {}
    for seed in seeds:
        run = _BAKEOFF_RUNNERS[scenario](policy, seed, sim_time)
        flows = run["flows"]
        goodputs.append(sum(f["goodput_kbps"] for f in flows))
        fairness.append(jain_index([f["goodput_kbps"] for f in flows]))
        retransmits.append(sum(f["retransmits"] for f in flows))
        for state, secs in _time_in_state(run["metrics"]["counters"]).items():
            states[state] = states.get(state, 0.0) + secs
    n = float(len(seeds))
    return {
        "policy": policy,
        "scenario": scenario,
        "goodput_kbps": round(statistics.mean(goodputs), 2),
        "fairness": round(statistics.mean(fairness), 4),
        "retransmits": round(statistics.mean(retransmits), 2),
        "time_in_state_s": {s: round(v / n, 3) for s, v in sorted(states.items())},
    }


def run_policy_bakeoff(policies=BAKEOFF_POLICIES, scenarios=BAKEOFF_SCENARIOS,
                       seeds=SEEDS, sim_time=None):
    sim_time = SIM_TIME if sim_time is None else sim_time
    cells = [
        _bakeoff_cell(policy, scenario, seeds, sim_time)
        for policy in policies
        for scenario in scenarios
    ]
    return {
        "suite": "bench_ablations --policies",
        "sim_time": sim_time,
        "seeds": list(seeds),
        "sample_interval_s": DRAI_SAMPLE_INTERVAL,
        "policies": list(policies),
        "scenarios": list(scenarios),
        "cells": cells,
    }


def _policies_main(argv=None):
    import argparse
    import json
    from pathlib import Path

    parser = argparse.ArgumentParser(
        description="Router-advice policy bake-off (see module docstring)."
    )
    parser.add_argument("--policies", action="store_true", required=True,
                        help="run the policy bake-off")
    parser.add_argument("--quick", action="store_true",
                        help="one seed, short runs (CI smoke)")
    parser.add_argument("--policy-names", default=",".join(BAKEOFF_POLICIES),
                        help="comma-separated subset of policies")
    parser.add_argument("--scenarios", default=",".join(BAKEOFF_SCENARIOS),
                        help="comma-separated subset of scenario classes")
    parser.add_argument("--out", default=None,
                        help="output path (default results/BENCH_policies.json)")
    args = parser.parse_args(argv)

    policies = tuple(p for p in args.policy_names.split(",") if p)
    scenarios = tuple(s for s in args.scenarios.split(",") if s)
    seeds = (1,) if args.quick else SEEDS
    sim_time = 4.0 if args.quick else SIM_TIME
    report = run_policy_bakeoff(policies, scenarios, seeds, sim_time)

    out = Path(args.out) if args.out else (
        Path(__file__).resolve().parent.parent / "results" / "BENCH_policies.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")

    banner("Policy bake-off — goodput / fairness / retx / time-in-state")
    for cell in report["cells"]:
        states = " ".join(
            f"{s}={v:.1f}s" for s, v in cell["time_in_state_s"].items()
        )
        print(
            f"{cell['policy']:>15s} x {cell['scenario']:<7s}"
            f" goodput={cell['goodput_kbps']:8.1f} kbps"
            f" fairness={cell['fairness']:.3f}"
            f" retx={cell['retransmits']:6.1f}  {states}"
        )
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(_policies_main())
