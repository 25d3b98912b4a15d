"""DESIGN.md §3's chain claims 1, 2, 3 and 5 (Figs 5.2–5.13), one test per
cell.

Every test reads the chain campaign (``conftest.py``): 480 runs of 30 s,
10 replications per (variant, hops, ``window_``) scenario.

* Claim 1 — Muzha ≳ NewReno/SACK on goodput: the 95 % Welch interval of
  Muzha − baseline must not lie wholly below zero.
* Claim 2 — Vegas wins short chains and flattens on long ones: Vegas −
  each other variant's goodput must lie wholly above zero at 4 hops, and
  must not at 16 and 32 hops.
* Claim 3 — Muzha retransmits far less: the interval of baseline − Muzha
  must lie wholly above zero.  Asserted at ``window_`` ≥ 8 only; at
  ``window_=4`` the claim is vacuous, and a test keeps that premise true.
* Claim 5 — Muzha's cwnd converges and stays stable while NewReno/SACK
  oscillate: at ``window_=32``, baseline − Muzha cwnd coefficient of
  variation after the first plateau (``evidence.plateau_start``) must lie
  wholly above zero.

Cells listed in :data:`~tests.claims.evidence.DIVERGENT` are strict
``xfail``.  The last test ties EXPERIMENTS.md §§ Simulation 1 and 2 to this
campaign.
"""

import statistics
from pathlib import Path

import pytest

from repro.experiments import PAPER_VARIANTS

from .evidence import (
    FENCES,
    HOPS,
    VACUOUS_RETRANSMITS,
    VEGAS_SHORT_HOPS,
    cell_params,
    committed_fingerprint,
    describe,
    render_stability_table,
    render_tables,
    render_vegas_table,
    verdict,
)

pytestmark = pytest.mark.slow

EXPERIMENTS = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


@pytest.mark.parametrize("window, hops, baseline", cell_params("goodput"))
def test_claim1_muzha_goodput_not_below_baseline(chain_evidence, window, hops, baseline):
    interval = chain_evidence.interval("goodput", window, hops, baseline)
    assert verdict(interval) != "behind", (
        f"Muzha − {baseline} goodput: {describe(interval, 'kb/s')}"
    )


@pytest.mark.parametrize("window, hops, other", cell_params("vegas"))
def test_claim2_vegas_leads_short_chains_only(chain_evidence, window, hops, other):
    interval = chain_evidence.vegas(window, hops, other)
    short = hops in VEGAS_SHORT_HOPS
    assert (verdict(interval) == "ahead") == short, (
        f"Vegas − {other} goodput at {hops} hops: {describe(interval, 'kb/s')}"
    )


@pytest.mark.parametrize("window, hops, baseline", cell_params("retransmits"))
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


@pytest.mark.parametrize("window, hops, baseline", cell_params("stability"))
def test_claim5_muzha_cwnd_steadier_than_baseline(chain_evidence, window, hops,
                                                  baseline):
    interval = chain_evidence.stability(window, hops, baseline)
    assert verdict(interval) == "ahead", (
        f"{baseline} − Muzha cwnd CV: {describe(interval, digits=2)}"
    )


def test_experiments_md_holds_this_campaign(chain_campaign, chain_evidence):
    text = EXPERIMENTS.read_text(encoding="utf-8")
    assert chain_campaign.fingerprint() == committed_fingerprint(
        text, FENCES["chain"])
    for table in (render_stability_table(chain_evidence),
                  render_tables(chain_evidence),
                  render_vegas_table(chain_evidence)):
        assert table in text
