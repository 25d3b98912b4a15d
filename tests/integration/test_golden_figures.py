"""Golden-trace regression tests against the committed figure CSVs.

``results/figures/*.csv`` are the artefacts the paper-comparison tables in
EXPERIMENTS.md were written from.  These tests re-run small slices of the
configurations behind two of them and compare against the committed
numbers, so a refactor that silently drifts the reproduction's results
fails here rather than in a future figure regeneration.

The committed artefacts were produced by the quick-scale benchmark
configuration: sweeps at ``sim_time=15 s`` over seeds 1–3, cwnd traces at
``window_=32, sim_time=10 s, seed=1`` (see ``benchmarks/``).  Tolerances
are the CSVs' own rounding (3–6 decimal places) plus a hair of float
slack — the simulator is deterministic, so anything beyond that is drift.
"""

import os
from pathlib import Path

import pytest

from repro.experiments import (
    ScenarioConfig,
    SweepConfig,
    fig_cwnd_traces,
    read_multi_series_csv,
    read_sweep_csv,
    run_chain,
)

FIGURES = Path(__file__).resolve().parents[2] / "results" / "figures"

GOLDEN_SWEEP = FIGURES / "fig5.8_sweep_w4.csv"
GOLDEN_TRACES = FIGURES / "fig5_cwnd_traces_4hop.csv"

#: Configuration the committed quick-scale sweep artefacts were run with.
SWEEP_CONFIG = SweepConfig(hops=(4, 8, 16), seeds=(1, 2, 3), sim_time=15.0)


def golden(path):
    if not path.exists():  # pragma: no cover - partial checkouts only
        pytest.skip(f"golden artefact {path.name} not present")
    return path


@pytest.mark.parametrize("variant", ["muzha", "newreno"])
def test_sweep_goodput_matches_committed_fig5_8(variant):
    """Re-run the window_=4, 4-hop grid point behind Fig 5.8 and compare
    every aggregated metric against the committed CSV."""
    sweep = read_sweep_csv(golden(GOLDEN_SWEEP))
    assert sweep.window == 4
    point = sweep.points[(variant, 4)]
    assert point.samples == len(SWEEP_CONFIG.seeds)

    goodputs, retransmits, timeouts = [], [], []
    for seed in SWEEP_CONFIG.seeds:
        config = ScenarioConfig(
            sim_time=SWEEP_CONFIG.sim_time, seed=seed, window=sweep.window
        )
        flow = run_chain(4, [variant], config=config).flows[0]
        goodputs.append(flow.goodput_kbps)
        retransmits.append(float(flow.retransmits))
        timeouts.append(float(flow.timeouts))

    mean = sum(goodputs) / len(goodputs)
    assert mean == pytest.approx(point.goodput_kbps, abs=0.01), (
        f"{variant}: goodput drifted from committed Fig 5.8 "
        f"({mean:.3f} vs {point.goodput_kbps:.3f} kbps)"
    )
    assert sum(retransmits) / len(retransmits) == pytest.approx(
        point.retransmits, abs=0.01
    )
    assert sum(timeouts) / len(timeouts) == pytest.approx(point.timeouts, abs=0.01)


def test_sweep_artefact_is_internally_consistent():
    """The committed grid has every (variant, hops) point, positive
    goodput, and goodput falling monotonically with hop count."""
    sweep = read_sweep_csv(golden(GOLDEN_SWEEP))
    for variant in sweep.variants:
        series = sweep.goodput_series(variant)
        assert len(series) == len(sweep.hops)
        assert all(goodput > 0 for _, goodput in series)
        assert series == sorted(series, key=lambda p: -p[1]), (
            f"{variant}: committed goodput is not monotone in hops"
        )


@pytest.mark.parametrize("variant", ["muzha", "vegas"])
def test_cwnd_trace_matches_committed_4hop_figure(variant):
    """Re-run the Figs 5.2–5.7 single-flow trace on the 4-hop chain and
    compare the whole committed time series point-by-point."""
    committed = read_multi_series_csv(golden(GOLDEN_TRACES))
    assert variant in committed

    traces = fig_cwnd_traces(4, variants=(variant,), window=32,
                             sim_time=10.0, seed=1)
    fresh = traces[variant]
    want = committed[variant]
    assert len(fresh) == len(want), (
        f"{variant}: trace has {len(fresh)} window changes, committed figure "
        f"has {len(want)}"
    )
    for (t_new, v_new), (t_old, v_old) in zip(fresh, want):
        assert t_new == pytest.approx(t_old, abs=2e-6)
        assert v_new == pytest.approx(v_old, abs=2e-6)


def test_cwnd_traces_of_all_variants_in_one_pooled_call_match_the_figure(
    monkeypatch,
):
    """The four runs of one ``fig_cwnd_traces`` call go to forked workers
    (``os.cpu_count`` patched to 2, so on any host); the committed figure
    still comes back point for point."""
    committed = read_multi_series_csv(golden(GOLDEN_TRACES))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    traces = fig_cwnd_traces(4, variants=tuple(committed), window=32,
                             sim_time=10.0, seed=1)
    assert list(traces) == list(committed)
    for variant, want in committed.items():
        fresh = traces[variant]
        assert len(fresh) == len(want), variant
        for (t_new, v_new), (t_old, v_old) in zip(fresh, want):
            assert t_new == pytest.approx(t_old, abs=2e-6)
            assert v_new == pytest.approx(v_old, abs=2e-6)


def test_cwnd_trace_artefact_has_all_paper_variants():
    committed = read_multi_series_csv(golden(GOLDEN_TRACES))
    assert set(committed) == {"muzha", "newreno", "sack", "vegas"}
    for variant, series in committed.items():
        assert series[0][1] == pytest.approx(1.0), (
            f"{variant}: committed trace does not start at cwnd=1"
        )
