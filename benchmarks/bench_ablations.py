"""Router-advice policy bake-off.

Runs every registered advice policy through three scenario classes (a
static 2-flow chain, a mobile random-waypoint field, and a chain under a
relay-crash fault plan) and reports goodput, Jain fairness, TCP
retransmissions, and the controller's time-in-state split.  Invoked as

    PYTHONPATH=src python benchmarks/bench_ablations.py --policies

which (re)generates results/BENCH_policies.json; ``--quick`` shrinks the
grid for CI smoke runs and ``--policy-names``/``--scenarios`` subset it.

DESIGN.md §4's ablations are claims rows, not benchmarks
(``tests/claims/test_extension_claims.py``).
"""

from __future__ import annotations

import statistics

from repro.core import DraiParams, known_policies
from repro.experiments import ScenarioConfig, run_chain
from repro.stats.fairness import jain_index

from conftest import banner, run_waypoint_field

SEEDS = (1, 2, 3)
SIM_TIME = 15.0

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
