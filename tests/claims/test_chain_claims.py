"""DESIGN.md §3's claims 1 and 3 (Figs 5.8–5.13), one test per cell.

Every test reads the one session campaign (``conftest.py``): 480 runs of
30 s, 10 replications per (variant, hops, ``window_``) scenario.

* Claim 1 — Muzha ≳ NewReno/SACK on goodput: the 95 % Welch interval of
  Muzha − baseline must not lie wholly below zero.
* Claim 3 — Muzha retransmits far less: the interval of baseline − Muzha
  must lie wholly above zero.  Asserted at ``window_`` ≥ 8 only; at
  ``window_=4`` the claim is vacuous, and a test keeps that premise true.

Cells listed in :data:`~tests.claims.evidence.DIVERGENT` are divergence #4
and strict ``xfail``.  The last test ties EXPERIMENTS.md § Simulation 2 to
this campaign.
"""

import re
import statistics
from pathlib import Path

import pytest

from repro.experiments import PAPER_VARIANTS

from .evidence import (
    BASELINES,
    DIVERGENT,
    HOPS,
    RETRANSMIT_WINDOWS,
    VACUOUS_RETRANSMITS,
    WINDOWS,
    describe,
    render_tables,
    verdict,
)

pytestmark = pytest.mark.slow

EXPERIMENTS = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


def _cells(claim, windows):
    params = []
    for window in windows:
        for hops in HOPS:
            for baseline in BASELINES:
                reason = DIVERGENT.get((claim, window, hops, baseline))
                marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
                params.append(pytest.param(
                    window, hops, baseline, marks=marks,
                    id=f"w{window}-h{hops}-{baseline}",
                ))
    return params


@pytest.mark.parametrize("window, hops, baseline", _cells("goodput", WINDOWS))
def test_claim1_muzha_goodput_not_below_baseline(chain_evidence, window, hops, baseline):
    interval = chain_evidence.interval("goodput", window, hops, baseline)
    assert verdict(interval) != "behind", (
        f"Muzha − {baseline} goodput: {describe(interval, 'kb/s')}"
    )


@pytest.mark.parametrize("window, hops, baseline",
                         _cells("retransmits", RETRANSMIT_WINDOWS))
def test_claim3_muzha_retransmits_below_baseline(chain_evidence, window, hops, baseline):
    interval = chain_evidence.interval("retransmits", window, hops, baseline)
    assert verdict(interval) == "ahead", (
        f"{baseline} − Muzha retransmissions: {describe(interval, 'segments')}"
    )


def test_claim3_is_vacuous_at_window_4(chain_evidence):
    means = {
        (hops, variant): statistics.fmean(
            chain_evidence.samples("retransmits", 4, hops, variant))
        for hops in HOPS for variant in PAPER_VARIANTS
    }
    assert max(means.values()) < VACUOUS_RETRANSMITS, means


def test_experiments_md_holds_this_campaign(chain_campaign, chain_evidence):
    text = EXPERIMENTS.read_text(encoding="utf-8")
    committed = re.search(r"Campaign fingerprint: `([0-9a-f]{64})`", text)
    assert committed, "EXPERIMENTS.md states no claims campaign fingerprint"
    assert chain_campaign.fingerprint() == committed.group(1)
    assert render_tables(chain_evidence) in text
