"""Collect the paper-scale Simulation 3 results recorded in EXPERIMENTS.md:
the cross-topology coexistence runs (Figs 5.16–5.18) and the
staggered-flow dynamics (Figs 5.19–5.22).  The Simulation 2 chain sweeps
(Figs 5.8–5.13) are the claims suite's, ``tests/claims/``; these blocks
stay here until the Simulation 3 claims join it.

Run:  PYTHONPATH=src python results/collect.py
"""
from repro.experiments import (
    PAPER_VARIANTS, fig_coexistence, fig_dynamics, format_coexistence,
)
from repro.stats import jain_index

for a, b in [("newreno", "vegas"), ("newreno", "muzha"), ("muzha", "muzha"), ("newreno", "newreno")]:
    points = fig_coexistence(a, b, hops_list=(4, 6, 8), sim_time=50.0, seeds=(1, 2, 3, 4, 5))
    print(format_coexistence(points, a, b), flush=True)
    print(flush=True)

for variant in PAPER_VARIANTS:
    result = fig_dynamics(variant, hops=4, starts=(0, 10, 20), sim_time=40.0, seed=1, window=4)
    shares = []
    for flow in result.flows:
        tail = [r for t, r in flow.rate_series_kbps if t >= 30.0]
        shares.append(sum(tail) / len(tail) if tail else 0.0)
    print(f"dynamics {variant}: shares={[round(s,1) for s in shares]} jain={jain_index(shares):.3f}", flush=True)

