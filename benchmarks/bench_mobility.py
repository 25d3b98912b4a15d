"""Extension benchmark: TCP Muzha vs NewReno under node mobility.

Not a paper figure — the paper's §6 lists mobility support as future work.
A random network roams under random-waypoint motion while a bulk flow runs
corner-to-corner; we compare goodput and TCP-level retransmissions.  The
assertion is survival-shaped: both protocols must keep delivering, and
Muzha must not do worse than NewReno on retransmissions (its feedback keeps
the window small, which helps when paths churn).
"""

from __future__ import annotations

import statistics

from repro.experiments import ScenarioConfig

from conftest import banner, run_once, run_waypoint_field

SEEDS = (1, 2, 3)
SIM_TIME = 20.0


def test_mobility_extension(benchmark):
    def campaign():
        rows = {}
        for variant in ("muzha", "newreno"):
            goodputs, retx = [], []
            for seed in SEEDS:
                config = ScenarioConfig(sim_time=SIM_TIME, seed=seed, window=4)
                flow = run_waypoint_field(variant, config).flows[0]
                goodputs.append(flow.goodput_kbps)
                retx.append(flow.retransmits)
            rows[variant] = (statistics.mean(goodputs), statistics.mean(retx))
        return rows

    rows = run_once(benchmark, campaign)
    banner("Extension — random-waypoint mobility (12 nodes, 700 m field)")
    for variant, (goodput, retx) in rows.items():
        print(f"  {variant:8s}: goodput={goodput:7.1f} kbps  retx={retx:5.1f}")
    for variant, (goodput, _) in rows.items():
        assert goodput > 10.0, f"{variant} died under mobility"
    assert rows["muzha"][1] <= rows["newreno"][1] + 3.0
