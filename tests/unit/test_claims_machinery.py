"""The claims suite's own machinery (``tests/claims/evidence.py``), fast.

The suite itself is ``slow``; these checks are not.  They pin the interval
arithmetic to published numbers, the interval → verdict map, and the
campaign plan, so nobody can shrink the grid silently.
"""

import math
from collections import Counter

import pytest

from repro.experiments import PAPER_VARIANTS, plan_campaign
from tests.claims.evidence import (
    BASE_SEED,
    DIVERGENT,
    HOPS,
    LEVEL,
    REPLICATIONS,
    RETRANSMIT_WINDOWS,
    SIM_TIME,
    WINDOWS,
    Welch,
    claims_grid,
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
    for claim, window, hops, baseline in DIVERGENT:
        windows = WINDOWS if claim == "goodput" else RETRANSMIT_WINDOWS
        assert claim in ("goodput", "retransmits")
        assert window in windows and hops in HOPS
        assert baseline in ("newreno", "sack")


def test_t_cdf_is_a_distribution_function():
    assert t_cdf(0.0, 7.0) == pytest.approx(0.5)
    assert t_cdf(-2.0, 7.0) == pytest.approx(1.0 - t_cdf(2.0, 7.0))
    assert math.isclose(t_cdf(1.959964, 1e7), 0.975, abs_tol=1e-6)
