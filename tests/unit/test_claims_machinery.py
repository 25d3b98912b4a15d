"""The claims suite's own machinery (``tests/claims/evidence.py``), fast.

The suite itself is ``slow``; these checks are not.  They pin the interval
arithmetic to published numbers, the interval → verdict map, and the
campaign plan, so nobody can shrink the grid silently.
"""

import math
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.experiments import PAPER_VARIANTS, plan_campaign
from tests.claims.evidence import (
    ARMS,
    BASE_SEED,
    CELLS,
    COUNTERPOINTS,
    CONVERGED_JAIN,
    CROSS_HOPS,
    CROSS_TIME,
    DIVERGENT,
    DYNAMICS_STARTS,
    DYNAMICS_TIME,
    EXT_HOPS,
    EXT_WINDOW,
    HOPS,
    JAIN_WINDOW,
    LEVEL,
    LOSS_HOPS,
    LOSS_RATES,
    LOSS_VARIANTS,
    PAIRINGS,
    REPLICATIONS,
    RETRANSMIT_WINDOWS,
    SIM_TIME,
    VACUOUS_FAST_RETRANSMITS,
    WINDOWS,
    ExtensionEvidence,
    Welch,
    arm,
    claims_grid,
    coexistence_grid,
    convergence_time,
    cwnd_cv,
    divergence,
    extensions_grid,
    plateau_start,
    standing_cwnd,
    t_cdf,
    t_quantile,
    verdict,
    welch,
)

# Welch's t-test, worked example 1 (Wikipedia, "Welch's t-test"):
# t = -2.46, nu = 25.0, two-sided p = 0.021.
A1 = [27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1,
      19.6, 19.0, 21.7, 21.4]
A2 = [27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9,
      22.1, 22.9, 20.5, 24.4]


def test_welch_matches_the_textbook_example():
    result = welch(A1, A2)
    t = result.diff / result.se
    assert round(t, 2) == -2.46
    assert round(result.df, 1) == 25.0
    p = 2.0 * t_cdf(-abs(t), result.df)
    assert round(p, 3) == 0.021
    # The 95 % interval excludes zero exactly when p < 0.05.
    assert result.high < 0.0
    assert result.half_width == pytest.approx(
        t_quantile(0.975, result.df) * result.se)


@pytest.mark.parametrize("df, t", [
    (1, 12.706), (2, 4.303), (5, 2.571), (9, 2.262), (10, 2.228),
    (20, 2.086), (30, 2.042), (120, 1.980),
])
def test_t_quantile_matches_the_t_table(df, t):
    assert round(t_quantile(0.975, df), 3) == t


def test_samples_without_spread_give_a_point_interval():
    result = welch([3.0] * 10, [1.0] * 10)
    assert (result.low, result.high) == (2.0, 2.0)
    assert verdict(result) == "ahead"
    assert verdict(welch([0.0] * 10, [0.0] * 10)) == "tie"


@pytest.mark.parametrize("low, high, expected", [
    (0.5, 3.0, "ahead"),
    (-3.0, -0.5, "behind"),
    (-1.0, 2.0, "tie"),
    (0.0, 2.0, "tie"),
    (-2.0, 0.0, "tie"),
])
def test_an_interval_maps_to_its_verdict(low, high, expected):
    centre, half = (low + high) / 2.0, (high - low) / 2.0
    assert verdict(Welch(centre, 1.0, 9.0, half)) == expected


def test_the_claims_grid_is_fixed():
    assert (WINDOWS, HOPS, SIM_TIME) == ((4, 8, 32), (4, 8, 16, 32), 30.0)
    assert (REPLICATIONS, BASE_SEED, LEVEL) == (10, 1, 0.95)
    runs = plan_campaign(claims_grid(), replications=REPLICATIONS,
                         base_seed=BASE_SEED)
    assert len(runs) == 480
    assert set(Counter(run.scenario for run in runs).values()) == {REPLICATIONS}
    assert {run.spec.config.sim_time for run in runs} == {30.0}
    cells = {(run.spec.config.window, run.spec.hops, run.spec.variants)
             for run in runs}
    assert cells == {(w, h, (v,)) for w in WINDOWS for h in HOPS
                     for v in PAPER_VARIANTS}
    assert {run.spec.kind for run in runs} == {"chain"}


def test_every_divergent_cell_names_a_tested_cell():
    for claim, *cell in DIVERGENT:
        assert tuple(cell) in CELLS[claim], (claim, cell)


def test_every_divergent_reason_cites_a_divergence_and_an_interval():
    for key, reason in DIVERGENT.items():
        assert reason.startswith("divergence #"), key
        assert "±" in reason and "[" in reason, key
        number = reason.split()[1].rstrip(":")  # "#4"
        assert divergence(key[0], key[1:]) == f" ({number})"


def test_every_claim_has_cells():
    assert set(CELLS) == {"goodput", "retransmits", "vegas", "stability",
                          "fairness", "starvation", "convergence",
                          "feedback", "feedback_goodput", "hold_cwnd",
                          "hold_goodput", "marking", "counterpoint"}
    assert len(CELLS["goodput"]) == len(WINDOWS) * len(HOPS) * 2
    assert {window for window, _, _ in CELLS["retransmits"]} == set(RETRANSMIT_WINDOWS)
    assert len(CELLS["vegas"]) == len(WINDOWS) * 3 * 3
    assert len(CELLS["stability"]) == 3 * 2
    assert len(CELLS["fairness"]) == len(CROSS_HOPS) * 2
    assert CELLS["convergence"] == [("newreno",), ("sack",), ("vegas",)]


def test_the_simulation3_grid_is_fixed():
    assert (CROSS_HOPS, CROSS_TIME, DYNAMICS_TIME) == ((4, 6, 8), 50.0, 40.0)
    assert DYNAMICS_STARTS == (0.0, 10.0, 20.0)
    assert (JAIN_WINDOW, CONVERGED_JAIN) == (1.0, 0.9)
    runs = plan_campaign(coexistence_grid(), replications=REPLICATIONS,
                         base_seed=BASE_SEED)
    assert len(runs) == 160
    assert set(Counter(run.scenario for run in runs).values()) == {REPLICATIONS}
    assert {run.spec.config.window for run in runs} == {4}
    cross = {(run.spec.hops, run.spec.variants) for run in runs
             if run.spec.kind == "cross"}
    assert cross == {(h, pair) for h in CROSS_HOPS for pair in PAIRINGS}
    dynamics = [run.spec for run in runs if run.spec.kind == "chain"]
    assert {spec.variants for spec in dynamics} == {
        (v,) * 3 for v in PAPER_VARIANTS}
    assert {(spec.hops, spec.starts, spec.record_dynamics,
             spec.config.sim_time) for spec in dynamics} == {
        (4, DYNAMICS_STARTS, True, 40.0)}


def test_the_extensions_grid_is_fixed():
    assert (EXT_WINDOW, EXT_HOPS, LOSS_HOPS) == (8, (4, 8), 4)
    assert LOSS_RATES == (0.02, 0.05, 0.10)
    assert LOSS_VARIANTS == ("muzha", "muzha-nomark", "newreno", "veno")
    assert COUNTERPOINTS == ("veno",)
    no_hold = ARMS["no-hold"]["drai_params"]
    assert (no_hold.util_high_lo, no_hold.util_high_hi) == (1.1, 1.2)
    runs = plan_campaign(extensions_grid(), replications=REPLICATIONS,
                         base_seed=BASE_SEED)
    assert len(runs) == 180
    assert set(Counter(run.scenario for run in runs).values()) == {REPLICATIONS}
    assert {(run.spec.kind, run.spec.config.window, run.spec.config.sim_time)
            for run in runs} == {("chain", 8, 30.0)}
    clean = {(run.spec.hops, arm(run.spec)) for run in runs
             if run.spec.config.packet_error_rate == 0.0}
    assert clean == {(h, name) for h in EXT_HOPS for name in ARMS}
    lossy = {(run.spec.hops, run.spec.variants, run.spec.config.packet_error_rate)
             for run in runs if run.spec.config.packet_error_rate > 0.0}
    assert lossy == {(4, (v,), loss) for v in LOSS_VARIANTS for loss in LOSS_RATES}
    assert {run.spec.config.policy for run in runs} == {None, "binary-feedback"}


def test_every_extension_claim_has_cells_and_its_divergent_ones_among_them():
    expected = {"feedback": len(EXT_HOPS), "feedback_goodput": len(EXT_HOPS),
                "hold_cwnd": len(EXT_HOPS), "hold_goodput": len(EXT_HOPS),
                "marking": len(LOSS_RATES),
                "counterpoint": len(COUNTERPOINTS) * len(LOSS_RATES)}
    for claim, count in expected.items():
        assert len(CELLS[claim]) == count, claim
        divergent = {tuple(cell) for name, *cell in DIVERGENT if name == claim}
        assert divergent <= set(CELLS[claim]), claim


def _loss_evidence(muzha_fast_retransmits):
    """Extension evidence holding only Muzha's runs at 5 % frame loss."""
    spec = next(spec for spec in extensions_grid()
                if spec.variants == ("muzha",)
                and spec.config.packet_error_rate == 0.05)
    records = [SimpleNamespace(run=SimpleNamespace(spec=spec), metrics={
        "flows": [{"fast_retransmits": count, "goodput_kbps": 100.0}]})
        for count in muzha_fast_retransmits]
    return ExtensionEvidence(SimpleNamespace(records=records))


@pytest.mark.parametrize("counts, mean, vacuous", [
    ([0] * 9 + [9], 0.9, True),
    ([1] * 10, 1.0, False),
    ([0] * 10, 0.0, True),
    ([0] * 8 + [5, 5], 1.0, False),
], ids=["one-busy-run", "one-a-run", "none", "two-busy-runs"])
def test_a_marking_cell_is_vacuous_below_one_fast_retransmit_a_run(
        counts, mean, vacuous):
    assert VACUOUS_FAST_RETRANSMITS == 1.0
    evidence = _loss_evidence(counts)
    assert evidence.fast_retransmits(0.05) == pytest.approx(mean)
    assert evidence.vacuous(0.05) is vacuous


@pytest.mark.parametrize("trace, sim_time, standing", [
    ([(0.0, 1.0), (1.0, 4.0), (2.0, 2.0), (3.0, 4.0)], 4.0, 10.0 / 3.0),
    ([(0.0, 1.0), (1.0, 4.0), (2.0, 2.0), (3.0, 4.0)], 5.0, 14.0 / 4.0),
    ([(0.0, 1.0), (1.0, 2.0)], 5.0, 2.0),
    ([(0.0, 1.0), (5.0, 3.0)], 5.0, 3.0),
], ids=["after-the-peak", "holds-to-the-end", "never-falls",
        "ramp-ends-at-the-end"])
def test_the_standing_window_is_time_averaged_after_the_plateau(
        trace, sim_time, standing):
    """The ramp up to the first peak is left out; the window's last value
    counts until the end of the run."""
    assert standing_cwnd(trace, sim_time) == pytest.approx(standing)


@pytest.mark.parametrize("trace, start", [
    ([(0.0, 1.0), (0.5, 2.0), (1.0, 4.0), (2.0, 2.0), (3.0, 3.0)], 1.0),
    ([(0.0, 1.0), (0.5, 2.0), (1.0, 3.0)], 1.0),
    ([(0.0, 1.0)], 0.0),
    ([(0.0, 4.0), (1.0, 2.0), (2.0, 8.0)], 0.0),
], ids=["peak-then-fall", "never-falls", "never-moves", "falls-at-once"])
def test_the_first_plateau_is_the_first_peak(trace, start):
    assert plateau_start(trace) == start


def test_cwnd_cv_is_time_weighted_after_the_plateau():
    # The ramp ends at the peak at t=1; then 4, 2 and 4 for 1 s each:
    # mean 10/3, variance 12 - 100/9 = 8/9.
    trace = [(0.0, 1.0), (1.0, 4.0), (2.0, 2.0), (3.0, 4.0)]
    assert cwnd_cv(trace, 4.0) == pytest.approx(math.sqrt(8 / 9) / (10 / 3))
    assert cwnd_cv([(0.0, 1.0), (1.0, 2.0)], 5.0) == 0.0


def _flows(*rates):
    """Three flows starting at 0/10/20 s with per-second rates from t=21."""
    return [{"start_time": start,
             "rate_series_kbps": [[21.0 + i, r] for i, r in enumerate(series)]}
            for start, series in zip((0.0, 10.0, 20.0), rates)]


@pytest.mark.parametrize("rates, seconds", [
    (([80.0] * 5, [80.0] * 5, [80.0] * 5), 0.0),
    (([150.0, 80.0, 80.0, 80.0, 80.0], [80.0] * 5, [0.0, 10.0, 80.0, 80.0, 80.0]), 2.0),
    (([80.0] * 5, [80.0] * 5, [80.0, 80.0, 80.0, 80.0, 0.0]), 20.0),
    (([80.0, 0.0, 80.0, 80.0, 80.0], [80.0] * 5, [80.0] * 5), 2.0),
], ids=["at-once", "after-two", "never", "relapse"])
def test_convergence_is_the_start_of_the_last_fair_stretch(rates, seconds):
    assert convergence_time(_flows(*rates), 40.0) == seconds


def test_t_cdf_is_a_distribution_function():
    assert t_cdf(0.0, 7.0) == pytest.approx(0.5)
    assert t_cdf(-2.0, 7.0) == pytest.approx(1.0 - t_cdf(2.0, 7.0))
    assert math.isclose(t_cdf(1.959964, 1e7), 0.975, abs_tol=1e-6)
