"""The paper's six headline claims as intervals over two fixed campaigns.

DESIGN.md §3's claims 1–6 are decided here, and only here, from two
:func:`~repro.experiments.run_campaign` grids, :data:`REPLICATIONS`
replications from :data:`BASE_SEED` on the engine's own per-scenario
seeds, so every scenario's runs are independent draws:

* the **chain campaign** (:func:`claims_grid`, Simulations 1 and 2):
  ``chain_grid(PAPER_VARIANTS, HOPS)`` at every ``window_`` in
  :data:`WINDOWS`, :data:`SIM_TIME` seconds a run — claims 1, 2, 3 and 5;
* the **Simulation 3 campaign** (:func:`coexistence_grid`): the Fig 5.15
  cross under every pairing in :data:`PAIRINGS` at every hop count in
  :data:`CROSS_HOPS` (claim 4), and three staggered same-variant flows on
  a :data:`DYNAMICS_HOPS`-hop chain for every paper variant (claim 6).

A cell compares two samples by the 95 % Welch interval of the difference
of their means, and reads the interval as a verdict: wholly above zero is
``ahead``, wholly below is ``behind``, anything else is a ``tie``.  Each
claim's difference is signed so that ``ahead`` is what the paper says.

The grids, the level, the seeds, the replication count and the operational
definitions below (:func:`plateau_start`, :func:`convergence_time`) were
fixed before the first run.  They are never changed, and no band is
widened, to flip a verdict: a cell where a claim fails is recorded in
:data:`DIVERGENT` with its DESIGN.md §6 divergence number and its test is
a strict ``xfail``.

``python -m tests.claims.evidence`` runs both campaigns cold and prints
every EXPERIMENTS.md block they fence: the per-cell tables, each
campaign's fingerprint, its wall time and its summed per-run seconds.
"""

from __future__ import annotations

import math
import os
import re
import statistics
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.experiments import (
    PAPER_VARIANTS,
    CampaignCache,
    CampaignResult,
    RunSpec,
    ScenarioConfig,
    chain_grid,
    run_campaign,
)
from repro.stats import jain_index
from repro.stats.timeseries import time_average

WINDOWS: Tuple[int, ...] = (4, 8, 32)
HOPS: Tuple[int, ...] = (4, 8, 16, 32)
SIM_TIME = 30.0
REPLICATIONS = 10
BASE_SEED = 1
LEVEL = 0.95

#: The baselines claims 1, 3 and 5 name; Vegas is tabulated for claim 2.
BASELINES: Tuple[str, ...] = ("newreno", "sack")
#: Claim 3 is asserted only here: at ``window_=4`` every variant retransmits
#: a handful of segments a run, so the claim has nothing to act on.
RETRANSMIT_WINDOWS: Tuple[int, ...] = (8, 32)
#: The ``window_=4`` vacuity premise: every variant averages fewer
#: retransmissions than this per run.  Should it stop holding, claim 3 has
#: something to act on at ``window_=4`` and must be asserted there.
VACUOUS_RETRANSMITS = 10.0
#: Claim 2: Vegas is ahead of every other paper variant on these chains
#: ("below 8 hops") and not ahead on :data:`VEGAS_LONG_HOPS`.
VEGAS_SHORT_HOPS: Tuple[int, ...] = (4,)
VEGAS_LONG_HOPS: Tuple[int, ...] = (16, 32)
#: Claim 5 reads the cwnd traces of the ``window_=32`` cells, where no
#: advertised window hides a sender's own dynamics, on Figs 5.2–5.7's chains.
STABILITY_WINDOW = 32
STABILITY_HOPS: Tuple[int, ...] = (4, 8, 16)

#: Simulation 3A: the Fig 5.15 h-hop cross, (horizontal, vertical) pairings.
CROSS_HOPS: Tuple[int, ...] = (4, 6, 8)
PAIRINGS: Tuple[Tuple[str, str], ...] = (
    ("newreno", "vegas"), ("newreno", "muzha"),
    ("muzha", "muzha"), ("newreno", "newreno"),
)
CROSS_TIME = 50.0
#: Claim 4 compares each of these pairings' Jain index with NewReno+Vegas's.
FAIR_PAIRINGS: Tuple[Tuple[str, str], ...] = (("muzha", "muzha"),
                                              ("newreno", "muzha"))
#: Simulation 3B: three same-variant flows entering a 4-hop chain.
DYNAMICS_HOPS = 4
DYNAMICS_STARTS: Tuple[float, ...] = (0.0, 10.0, 20.0)
DYNAMICS_TIME = 40.0
#: Both Simulation 3 scenes run at the paper's ``window_=4``.
SIM3_WINDOW = 4
#: Claim 6: the flows' rates are compared over windows this long, and they
#: have converged once the Jain index of every later window is at least
#: :data:`CONVERGED_JAIN`.
JAIN_WINDOW = 1.0
CONVERGED_JAIN = 0.9

#: Cells where a claim fails, keyed ``(claim, *cell)`` as in :data:`CELLS`,
#: each with the interval it measured and its DESIGN.md §6 divergence.
#: Their tests are strict ``xfail``: a cell whose claim starts to hold
#: fails until it leaves this table.
DIVERGENT: Dict[tuple, str] = {
    ("goodput", 4, 32, "sack"):
        "divergence #4: Muzha loses to SACK at window_=4, 32 hops: "
        "Muzha - SACK = -9.8 ±9.6 kb/s [-19.3, -0.2], 3 wins of 10",
    ("retransmits", 8, 16, "sack"):
        "divergence #4: Muzha does not retransmit clearly less than SACK at "
        "window_=8, 16 hops: SACK - Muzha = +2.7 ±3.7 segments [-1.0, +6.4]",
    ("retransmits", 8, 32, "newreno"):
        "divergence #4: Muzha does not retransmit clearly less than NewReno "
        "at window_=8, 32 hops: NewReno - Muzha = +3.2 ±4.0 segments "
        "[-0.8, +7.2]",
    ("retransmits", 8, 32, "sack"):
        "divergence #4: Muzha does not retransmit clearly less than SACK at "
        "window_=8, 32 hops: SACK - Muzha = +0.4 ±1.4 segments [-1.0, +1.8]",
    ("vegas", 4, 4, "muzha"):
        "divergence #2: Vegas does not lead Muzha on a 4-hop chain at "
        "window_=4: Vegas - Muzha = -57.1 ±5.1 kb/s [-62.2, -52.0]",
    ("vegas", 8, 4, "muzha"):
        "divergence #2: Vegas does not lead Muzha on a 4-hop chain at "
        "window_=8: Vegas - Muzha = -58.4 ±3.9 kb/s [-62.3, -54.5]",
    ("vegas", 32, 4, "muzha"):
        "divergence #2: Vegas does not lead Muzha on a 4-hop chain at "
        "window_=32: Vegas - Muzha = -62.4 ±17.9 kb/s [-80.4, -44.5]",
    ("vegas", 32, 16, "newreno"):
        "divergence #2: Vegas still leads NewReno on a 16-hop chain at "
        "window_=32: Vegas - NewReno = +20.1 ±9.6 kb/s [+10.6, +29.7]",
    ("stability", 32, 4, "sack"):
        "divergence #1: Muzha's cwnd is not clearly steadier than SACK's on "
        "a 4-hop chain: SACK - Muzha CV = +0.12 ±0.13 [-0.01, +0.25]",
    ("stability", 32, 16, "sack"):
        "divergence #1: Muzha's cwnd is not clearly steadier than SACK's on "
        "a 16-hop chain: SACK - Muzha CV = +0.07 ±0.10 [-0.03, +0.17]",
    ("fairness", 4, "muzha+muzha"):
        "divergence #3: Muzha+Muzha is not clearly fairer than NewReno+Vegas "
        "on the 4-hop cross: Jain difference +0.025 ±0.098 [-0.073, +0.123]",
    ("fairness", 4, "newreno+muzha"):
        "divergence #3: NewReno+Muzha is not clearly fairer than "
        "NewReno+Vegas on the 4-hop cross: Jain difference +0.022 ±0.096 "
        "[-0.073, +0.118]",
    ("fairness", 6, "muzha+muzha"):
        "divergence #3: Muzha+Muzha is not clearly fairer than NewReno+Vegas "
        "on the 6-hop cross: Jain difference +0.069 ±0.112 [-0.043, +0.181]",
    ("fairness", 6, "newreno+muzha"):
        "divergence #3: NewReno+Muzha is not clearly fairer than "
        "NewReno+Vegas on the 6-hop cross: Jain difference +0.082 ±0.132 "
        "[-0.050, +0.214]",
    ("fairness", 8, "muzha+muzha"):
        "divergence #3: Muzha+Muzha is not clearly fairer than NewReno+Vegas "
        "on the 8-hop cross: Jain difference +0.006 ±0.058 [-0.052, +0.063]",
    ("fairness", 8, "newreno+muzha"):
        "divergence #3: NewReno+Muzha is not clearly fairer than "
        "NewReno+Vegas on the 8-hop cross: Jain difference -0.037 ±0.099 "
        "[-0.135, +0.062]",
    ("starvation", 6):
        "divergence #3: NewReno does not clearly out-earn Vegas on the 6-hop "
        "cross: NewReno - Vegas = +11.7 ±45.9 kb/s [-34.3, +57.6]",
    ("starvation", 8):
        "divergence #3: NewReno does not clearly out-earn Vegas on the 8-hop "
        "cross: NewReno - Vegas = +1.5 ±19.7 kb/s [-18.2, +21.2]",
}

Cell = Tuple[int, int, str]  # (window_, hops, variant)


def claims_grid() -> List[RunSpec]:
    """Every paper variant × hops count, once per advertised window."""
    return [
        spec
        for window in WINDOWS
        for spec in chain_grid(
            PAPER_VARIANTS, HOPS, ScenarioConfig(sim_time=SIM_TIME, window=window)
        )
    ]


def coexistence_grid() -> List[RunSpec]:
    """Simulation 3A's cross pairings at every hop count, then Simulation
    3B's staggered three-flow chain once per paper variant."""
    cross = ScenarioConfig(sim_time=CROSS_TIME, window=SIM3_WINDOW)
    dynamics = ScenarioConfig(sim_time=DYNAMICS_TIME, window=SIM3_WINDOW,
                              sampler_interval=JAIN_WINDOW)
    return [
        RunSpec("cross", hops, pair, config=cross)
        for pair in PAIRINGS for hops in CROSS_HOPS
    ] + [
        RunSpec("chain", DYNAMICS_HOPS, (variant,) * len(DYNAMICS_STARTS),
                starts=DYNAMICS_STARTS, record_dynamics=True, config=dynamics)
        for variant in PAPER_VARIANTS
    ]


def run_claims_campaign(cache_dir: str, grid: Sequence[RunSpec]
                        ) -> Tuple[CampaignResult, float]:
    """Run ``grid`` into ``cache_dir``; return it and its wall time."""
    start = time.perf_counter()
    result = run_campaign(
        grid,
        replications=REPLICATIONS,
        base_seed=BASE_SEED,
        cache=CampaignCache(cache_dir),
    )
    return result, time.perf_counter() - start


def run_seconds(result: CampaignResult) -> float:
    """Per-run seconds summed from the executed runs' manifest timings."""
    return sum(
        sum(record.manifest["timings"].values())
        for record in result.records
        if not record.cached and record.manifest is not None
    )


# ---------------------------------------------------------------------------
# Statistics (standard library only)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the regularised incomplete beta (modified
    Lentz; Numerical Recipes §6.4)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(t: float, df: float) -> float:
    """Student's t distribution function with ``df`` (real) degrees."""
    tail = 0.5 * _incomplete_beta(df / 2.0, 0.5, df / (df + t * t))
    return 1.0 - tail if t >= 0 else tail


def t_quantile(p: float, df: float) -> float:
    """Inverse of :func:`t_cdf` for ``0.5 <= p < 1``, by bisection."""
    low, high = 0.0, 1.0
    while t_cdf(high, df) < p:
        high *= 2.0
    for _ in range(200):
        mid = (low + high) / 2.0
        low, high = (mid, high) if t_cdf(mid, df) < p else (low, mid)
    return (low + high) / 2.0


@dataclass(frozen=True)
class Welch:
    """Welch's two-sample comparison of means: ``mean(a) - mean(b)``."""

    diff: float
    se: float  # standard error of the difference
    df: float  # Welch–Satterthwaite degrees of freedom (inf when se == 0)
    half_width: float  # at the requested level

    @property
    def low(self) -> float:
        return self.diff - self.half_width

    @property
    def high(self) -> float:
        return self.diff + self.half_width


def welch(a: Sequence[float], b: Sequence[float], level: float = LEVEL) -> Welch:
    """The ``level`` Welch interval of ``mean(a) - mean(b)``.

    Two samples with no spread at all give a zero-width interval at the
    difference of their means.
    """
    va = statistics.variance(a) / len(a)
    vb = statistics.variance(b) / len(b)
    diff = statistics.fmean(a) - statistics.fmean(b)
    se2 = va + vb
    if se2 == 0.0:
        return Welch(diff, 0.0, math.inf, 0.0)
    df = se2 * se2 / (va * va / (len(a) - 1) + vb * vb / (len(b) - 1))
    se = math.sqrt(se2)
    return Welch(diff, se, df, t_quantile(0.5 + level / 2.0, df) * se)


def verdict(interval: Welch) -> str:
    """``ahead`` / ``behind`` when the interval excludes zero, else ``tie``."""
    if interval.low > 0.0:
        return "ahead"
    if interval.high < 0.0:
        return "behind"
    return "tie"


# ---------------------------------------------------------------------------
# Operational definitions (fixed before any verdict was read)


def plateau_start(trace: Sequence[Sequence[float]]) -> float:
    """Claim 5: when a cwnd trace reaches its first plateau.

    The first plateau is the window's first peak: the last change before
    the first decrease, or the trace's last change if the window never
    falls.  Reason: "converges quickly" is about the ramp and "stays
    stable" about what follows, and every variant's ramp (slow start,
    DRAI doubling, Vegas's probing) only ever raises the window, so the
    first decrease is where the ramp ends on every sender alike.  The rule
    has no threshold or hold time to tune, so no choice of one can favour a
    verdict.
    """
    for (t0, v0), (_, v1) in zip(trace, trace[1:]):
        if v1 < v0:
            return t0
    return trace[-1][0]


def cwnd_cv(trace: Sequence[Sequence[float]], sim_time: float) -> float:
    """Claim 5's stability: the time-weighted coefficient of variation of
    the cwnd from :func:`plateau_start` to the end of the run (0 for a
    window that never moved after it)."""
    start = plateau_start(trace)
    if start >= sim_time:
        return 0.0
    mean = time_average(trace, start, sim_time)
    square = time_average([(t, v * v) for t, v in trace], start, sim_time)
    return math.sqrt(max(0.0, square - mean * mean)) / mean


def convergence_time(flows: Sequence[dict], sim_time: float) -> float:
    """Claim 6: seconds after the last flow's start until the Jain index of
    the flows' rates over each :data:`JAIN_WINDOW` stays at or above
    :data:`CONVERGED_JAIN` to the end of the run.  A run whose last window
    is below it never converged and counts the whole remaining run time."""
    latest = max(flows, key=lambda flow: flow["start_time"])
    last = latest["start_time"]
    rates = [{round(t, 6): rate for t, rate in flow["rate_series_kbps"]}
             for flow in flows]
    ends = [round(t, 6) for t, _ in latest["rate_series_kbps"]]
    settled = None
    for end in reversed(ends):
        if jain_index([series.get(end, 0.0) for series in rates]) < CONVERGED_JAIN:
            break
        settled = end
    if settled is None:
        return sim_time - last
    return settled - JAIN_WINDOW - last


# ---------------------------------------------------------------------------
# The campaigns' cells


#: The per-flow metric each claim compares, and its sign: +1 when more is
#: better for Muzha (goodput), -1 when less is (retransmissions).
METRICS: Dict[str, Tuple[str, int]] = {
    "goodput": ("goodput_kbps", 1),
    "retransmits": ("retransmits", -1),
}


class ChainEvidence:
    """Per-(``window_``, hops, variant) samples of the chain campaign."""

    def __init__(self, result: CampaignResult) -> None:
        flows: Dict[Cell, List[dict]] = defaultdict(list)
        for record in result.records:  # grid order: replications in order
            spec = record.run.spec
            flows[(spec.config.window, spec.hops, spec.variants[0])].append(
                record.metrics["flows"][0]
            )
        self.flows = dict(flows)

    def samples(self, metric: str, window: int, hops: int, variant: str) -> List[float]:
        return [float(flow[metric]) for flow in self.flows[(window, hops, variant)]]

    def cv_samples(self, window: int, hops: int, variant: str) -> List[float]:
        return [cwnd_cv(flow["cwnd_trace"], SIM_TIME)
                for flow in self.flows[(window, hops, variant)]]

    def _pair(self, claim: str, window: int, hops: int,
              baseline: str) -> Tuple[List[float], List[float]]:
        """One cell's two samples, ordered so that ``first > second`` favours
        Muzha: (Muzha, baseline) for goodput, (baseline, Muzha) for
        retransmissions."""
        metric, sign = METRICS[claim]
        muzha = self.samples(metric, window, hops, "muzha")
        other = self.samples(metric, window, hops, baseline)
        return (muzha, other) if sign > 0 else (other, muzha)

    def interval(self, claim: str, window: int, hops: int, baseline: str) -> Welch:
        """Claim 1's Muzha − baseline goodput (kb/s), or claim 3's
        baseline − Muzha retransmissions per run: positive favours Muzha."""
        return welch(*self._pair(claim, window, hops, baseline))

    def wins(self, claim: str, window: int, hops: int, baseline: str) -> int:
        """Replications ``r`` in which Muzha's run beat the baseline's run
        ``r``: more goodput, or strictly fewer retransmissions."""
        first, second = self._pair(claim, window, hops, baseline)
        return sum(a > b for a, b in zip(first, second))

    def vegas(self, window: int, hops: int, other: str) -> Welch:
        """Claim 2's Vegas − ``other`` goodput (kb/s)."""
        return welch(self.samples("goodput_kbps", window, hops, "vegas"),
                     self.samples("goodput_kbps", window, hops, other))

    def stability(self, window: int, hops: int, baseline: str) -> Welch:
        """Claim 5's baseline − Muzha cwnd coefficient of variation."""
        return welch(self.cv_samples(window, hops, baseline),
                     self.cv_samples(window, hops, "muzha"))


class CoexistenceEvidence:
    """Per-scenario run results of the Simulation 3 campaign."""

    def __init__(self, result: CampaignResult) -> None:
        runs: Dict[Tuple[str, int, Tuple[str, ...]], List[dict]] = defaultdict(list)
        for record in result.records:  # grid order: replications in order
            spec = record.run.spec
            runs[(spec.kind, spec.hops, spec.variants)].append(record.metrics)
        self.runs = dict(runs)

    def goodputs(self, hops: int, pair: Tuple[str, str], flow: int) -> List[float]:
        return [run["flows"][flow]["goodput_kbps"]
                for run in self.runs[("cross", hops, pair)]]

    def jain(self, hops: int, pair: Tuple[str, str]) -> List[float]:
        return [jain_index([flow["goodput_kbps"] for flow in run["flows"]])
                for run in self.runs[("cross", hops, pair)]]

    def dynamics(self, variant: str) -> List[dict]:
        key = ("chain", DYNAMICS_HOPS, (variant,) * len(DYNAMICS_STARTS))
        return self.runs[key]

    def convergence(self, variant: str) -> List[float]:
        return [convergence_time(run["flows"], DYNAMICS_TIME)
                for run in self.dynamics(variant)]

    def fairness(self, hops: int, pair: Tuple[str, str]) -> Welch:
        """Claim 4's Jain(``pair``) − Jain(NewReno+Vegas) on the cross."""
        return welch(self.jain(hops, pair), self.jain(hops, PAIRINGS[0]))

    def starvation(self, hops: int) -> Welch:
        """Claim 4's NewReno − Vegas goodput (kb/s) when they share the cross."""
        return welch(self.goodputs(hops, PAIRINGS[0], 0),
                     self.goodputs(hops, PAIRINGS[0], 1))

    def converges(self, baseline: str) -> Welch:
        """Claim 6's baseline − Muzha convergence time (s)."""
        return welch(self.convergence(baseline), self.convergence("muzha"))


def pairing(pair: Tuple[str, str]) -> str:
    return "+".join(pair)


#: Every cell a claims test decides, by claim; :data:`DIVERGENT` keys are
#: ``(claim, *cell)``.
CELLS: Dict[str, List[tuple]] = {
    "goodput": [(w, h, b) for w in WINDOWS for h in HOPS for b in BASELINES],
    "retransmits": [(w, h, b) for w in RETRANSMIT_WINDOWS for h in HOPS
                    for b in BASELINES],
    "vegas": [(w, h, other) for w in WINDOWS
              for h in VEGAS_SHORT_HOPS + VEGAS_LONG_HOPS
              for other in PAPER_VARIANTS if other != "vegas"],
    "stability": [(STABILITY_WINDOW, h, b) for h in STABILITY_HOPS
                  for b in BASELINES],
    "fairness": [(h, pairing(pair)) for h in CROSS_HOPS for pair in FAIR_PAIRINGS],
    "starvation": [(h,) for h in CROSS_HOPS],
    "convergence": [(v,) for v in PAPER_VARIANTS if v != "muzha"],
}


def cell_id(claim: str, cell: tuple) -> str:
    """``w8-h16-sack``, ``h4-muzha+muzha``, ``h6`` or ``vegas``."""
    if claim in ("fairness", "starvation"):
        return "-".join((f"h{cell[0]}",) + cell[1:])
    if claim == "convergence":
        return cell[0]
    window, hops, variant = cell
    return f"w{window}-h{hops}-{variant}"


def cell_params(claim: str) -> list:
    """``pytest.param`` per cell of ``claim``; a :data:`DIVERGENT` cell is
    a strict ``xfail`` whose reason cites its interval."""
    params = []
    for cell in CELLS[claim]:
        reason = DIVERGENT.get((claim,) + cell)
        marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
        params.append(pytest.param(*cell, marks=marks, id=cell_id(claim, cell)))
    return params


def divergence(claim: str, cell: tuple) -> str:
    """`` (#N)`` when the cell is in :data:`DIVERGENT`, else nothing."""
    reason = DIVERGENT.get((claim,) + tuple(cell))
    return f" (#{reason.split('#', 1)[1].split(':', 1)[0]})" if reason else ""


def _delta(interval: Welch, digits: int = 1) -> str:
    return f"{interval.diff:+.{digits}f} ±{interval.half_width:.{digits}f}"


def describe(interval: Welch, unit: str = "", digits: int = 1) -> str:
    """``-12.4 ±8.1 kb/s [-20.5, -4.3]`` — the form xfail reasons cite."""
    unit = f" {unit}" if unit else ""
    return (f"{_delta(interval, digits)}{unit} "
            f"[{interval.low:+.{digits}f}, {interval.high:+.{digits}f}]")


NAMES = {"muzha": "Muzha", "newreno": "NewReno", "sack": "SACK", "vegas": "Vegas"}


def _row(cells: Sequence[str]) -> str:
    return "| " + " | ".join(cells) + " |"


def _header(columns: Sequence[str]) -> List[str]:
    return [_row(columns), "|" + "---|" * len(columns)]


def _judged(claim: str, cell: tuple, interval: Welch) -> str:
    return verdict(interval) + divergence(claim, cell)


def _claim_verdicts(evidence: ChainEvidence, claim: str, window: int,
                    hops: int) -> str:
    if claim == "retransmits" and window not in RETRANSMIT_WINDOWS:
        return "vacuous"
    return " / ".join(
        _judged(claim, (window, hops, baseline),
                evidence.interval(claim, window, hops, baseline))
        for baseline in BASELINES)


def render_tables(evidence: ChainEvidence) -> str:
    """The EXPERIMENTS.md § Simulation 2 tables, one row per cell."""
    others = [v for v in PAPER_VARIANTS if v != "muzha"]
    lines: List[str] = []
    for claim, head, number in (
        ("goodput", "Muzha kb/s", "claim 1"),
        ("retransmits", "Muzha retx", "claim 3"),
    ):
        metric, sign = METRICS[claim]
        deltas = [f"Muzha − {NAMES[v]}" if sign > 0 else f"{NAMES[v]} − Muzha"
                  for v in others]
        lines += _header(["`window_`", "hops", head, *deltas,
                          f"{number} (NewReno / SACK)"])
        for window in WINDOWS:
            for hops in HOPS:
                muzha = statistics.fmean(evidence.samples(metric, window, hops, "muzha"))
                cells = [str(window), str(hops), f"{muzha:.1f}"]
                for baseline in others:
                    interval = evidence.interval(claim, window, hops, baseline)
                    wins = evidence.wins(claim, window, hops, baseline)
                    cells.append(f"{_delta(interval)} ({wins})")
                cells.append(_claim_verdicts(evidence, claim, window, hops))
                lines.append(_row(cells))
        lines.append("")
    return "\n".join(lines)


def render_vegas_table(evidence: ChainEvidence) -> str:
    """EXPERIMENTS.md § Simulation 2's claim 2 table."""
    others = [v for v in PAPER_VARIANTS if v != "vegas"]
    lines = _header(["`window_`", "hops", "Vegas kb/s",
                     *[f"Vegas − {NAMES[v]}" for v in others],
                     "claim 2 (" + " / ".join(NAMES[v] for v in others) + ")"])
    for window in WINDOWS:
        for hops in VEGAS_SHORT_HOPS + VEGAS_LONG_HOPS:
            vegas = statistics.fmean(
                evidence.samples("goodput_kbps", window, hops, "vegas"))
            intervals = [evidence.vegas(window, hops, v) for v in others]
            lines.append(_row([
                str(window), str(hops), f"{vegas:.1f}",
                *[_delta(i) for i in intervals],
                " / ".join(_judged("vegas", (window, hops, v), i)
                           for v, i in zip(others, intervals)),
            ]))
    return "\n".join(lines) + "\n"


def render_stability_table(evidence: ChainEvidence) -> str:
    """EXPERIMENTS.md § Simulation 1's claim 5 table: the first plateau's
    mean time per variant, Muzha's cwnd CV after it, and each baseline's
    CV − Muzha's."""
    others = [v for v in PAPER_VARIANTS if v != "muzha"]
    lines = _header(["hops", "first plateau s (" + " / ".join(
        NAMES[v] for v in PAPER_VARIANTS) + ")", "Muzha CV",
        *[f"{NAMES[v]} − Muzha" for v in others],
        "claim 5 (" + " / ".join(NAMES[b] for b in BASELINES) + ")"])
    for hops in STABILITY_HOPS:
        plateaus = [
            statistics.fmean(plateau_start(flow["cwnd_trace"]) for flow in
                             evidence.flows[(STABILITY_WINDOW, hops, v)])
            for v in PAPER_VARIANTS
        ]
        muzha = statistics.fmean(evidence.cv_samples(STABILITY_WINDOW, hops, "muzha"))
        lines.append(_row([
            str(hops), " / ".join(f"{p:.1f}" for p in plateaus), f"{muzha:.2f}",
            *[_delta(evidence.stability(STABILITY_WINDOW, hops, v), 2) for v in others],
            " / ".join(_judged("stability", (STABILITY_WINDOW, hops, b),
                               evidence.stability(STABILITY_WINDOW, hops, b))
                       for b in BASELINES),
        ]))
    return "\n".join(lines) + "\n"


def render_coexistence_tables(evidence: CoexistenceEvidence) -> str:
    """EXPERIMENTS.md § Simulation 3A: mean goodputs and Jain index per
    pairing and hop count (Figs 5.16–5.18), then claim 4's cells."""
    lines = _header(["pairing (horizontal + vertical)", "hops",
                     "horizontal kb/s", "vertical kb/s", "Jain"])
    for pair in PAIRINGS:
        for hops in CROSS_HOPS:
            lines.append(_row([
                " + ".join(NAMES[v] for v in pair), str(hops),
                f"{statistics.fmean(evidence.goodputs(hops, pair, 0)):.1f}",
                f"{statistics.fmean(evidence.goodputs(hops, pair, 1)):.1f}",
                f"{statistics.fmean(evidence.jain(hops, pair)):.3f}",
            ]))
    lines.append("")
    baseline = "+".join(NAMES[v] for v in PAIRINGS[0])
    lines += _header([
        "hops",
        *[f"Jain({'+'.join(NAMES[v] for v in pair)}) − Jain({baseline})"
          for pair in FAIR_PAIRINGS],
        "NewReno − Vegas kb/s",
        "claim 4 (" + " / ".join("+".join(NAMES[v] for v in pair)
                                 for pair in FAIR_PAIRINGS) + " / starvation)",
    ])
    for hops in CROSS_HOPS:
        fair = [evidence.fairness(hops, pair) for pair in FAIR_PAIRINGS]
        starved = evidence.starvation(hops)
        words = [_judged("fairness", (hops, pairing(pair)), i)
                 for pair, i in zip(FAIR_PAIRINGS, fair)]
        words.append(_judged("starvation", (hops,), starved))
        lines.append(_row([str(hops), *[_delta(i, 3) for i in fair],
                           _delta(starved), " / ".join(words)]))
    return "\n".join(lines) + "\n"


def render_dynamics_table(evidence: CoexistenceEvidence) -> str:
    """EXPERIMENTS.md § Simulation 3B: per variant, the flows' mean rates
    and Jain index once all three have run 10 s, the mean convergence time,
    how many runs never converged, and claim 6's cell."""
    tail = DYNAMICS_STARTS[-1] + 10.0
    lines = _header(["variant", f"flow rates t > {tail:g} s, kb/s",
                     f"Jain t > {tail:g} s", "converged after s",
                     "never converged", "baseline − Muzha s", "claim 6"])
    for variant in PAPER_VARIANTS:
        runs = evidence.dynamics(variant)
        shares = [[statistics.fmean(rate for t, rate in flow["rate_series_kbps"]
                                    if t > tail) for flow in run["flows"]]
                  for run in runs]
        times = evidence.convergence(variant)
        never = sum(t == DYNAMICS_TIME - DYNAMICS_STARTS[-1] for t in times)
        if variant == "muzha":
            delta = word = "—"
        else:
            interval = evidence.converges(variant)
            delta = _delta(interval)
            word = _judged("convergence", (variant,), interval)
        lines.append(_row([
            NAMES[variant],
            " / ".join(f"{statistics.fmean(s[i] for s in shares):.1f}"
                       for i in range(len(DYNAMICS_STARTS))),
            f"{statistics.fmean(jain_index(s) for s in shares):.3f}",
            f"{statistics.fmean(times):.1f}", f"{never} of {len(times)}",
            delta, word,
        ]))
    return "\n".join(lines) + "\n"


#: The line of EXPERIMENTS.md that names each campaign's fingerprint.
FENCES = {"chain": "Campaign fingerprint",
          "Simulation 3": "Simulation 3 campaign fingerprint"}


def committed_fingerprint(text: str, fence: str) -> str:
    """The fingerprint EXPERIMENTS.md ``text`` states on its ``fence`` line
    ("" when it states none)."""
    match = re.search(rf"^{fence}: `([0-9a-f]{{64}})`", text, re.M)
    return match.group(1) if match else ""


def main() -> None:
    blocks = []
    for name, grid in (("chain", claims_grid()),
                       ("Simulation 3", coexistence_grid())):
        with tempfile.TemporaryDirectory() as cache_dir:
            result, wall = run_claims_campaign(cache_dir, grid)
        if not result.complete:
            raise SystemExit(f"{name} campaign incomplete: {result.failed}")
        if name == "chain":
            evidence = ChainEvidence(result)
            tables = [render_stability_table(evidence), render_tables(evidence),
                      render_vegas_table(evidence)]
        else:
            evidence = CoexistenceEvidence(result)
            tables = [render_coexistence_tables(evidence),
                      render_dynamics_table(evidence)]
        blocks += tables + [
            f"{FENCES[name]}: `{result.fingerprint()}`",
            f"Cold wall time: {wall:.0f} s on {os.cpu_count()} cores; "
            f"per-run seconds summed from the manifest timings: "
            f"{run_seconds(result):.0f} s\n",
        ]
    print("\n".join(blocks))


if __name__ == "__main__":
    main()
