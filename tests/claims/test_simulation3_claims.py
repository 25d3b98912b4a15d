"""DESIGN.md §3's Simulation 3 claims 4 and 6 (Figs 5.16–5.22), one test per
cell.

Every test reads the Simulation 3 campaign (``conftest.py``): 120 cross runs
of 50 s and 40 three-flow chain runs of 40 s, 10 replications per scenario.

* Claim 4 — Muzha shares fairly and NewReno starves Vegas: per hop count,
  Jain(Muzha+Muzha) − Jain(NewReno+Vegas) and Jain(NewReno+Muzha) −
  Jain(NewReno+Vegas) must lie wholly above zero, and so must NewReno −
  Vegas goodput when the two share the cross.
* Claim 6 — three staggered Muzha flows converge to fair shares faster:
  baseline − Muzha convergence time (``evidence.convergence_time``) must
  lie wholly above zero.

Cells listed in :data:`~tests.claims.evidence.DIVERGENT` are strict
``xfail``.  The last test ties EXPERIMENTS.md §§ Simulation 3A and 3B to
this campaign.
"""

from pathlib import Path

import pytest

from .evidence import (
    FENCES,
    PAIRINGS,
    cell_params,
    committed_fingerprint,
    describe,
    render_coexistence_tables,
    render_dynamics_table,
    verdict,
)

pytestmark = pytest.mark.slow

EXPERIMENTS = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


@pytest.mark.parametrize("hops, pairing", cell_params("fairness"))
def test_claim4_muzha_pairing_fairer_than_newreno_vegas(coexistence_evidence,
                                                        hops, pairing):
    interval = coexistence_evidence.fairness(hops, tuple(pairing.split("+")))
    assert verdict(interval) == "ahead", (
        f"Jain({pairing}) − Jain(newreno+vegas): {describe(interval, digits=3)}"
    )


@pytest.mark.parametrize("hops", cell_params("starvation"))
def test_claim4_newreno_starves_vegas(coexistence_evidence, hops):
    interval = coexistence_evidence.starvation(hops)
    assert verdict(interval) == "ahead", (
        f"NewReno − Vegas goodput in {'+'.join(PAIRINGS[0])}: "
        f"{describe(interval, 'kb/s')}"
    )


@pytest.mark.parametrize("baseline", cell_params("convergence"))
def test_claim6_muzha_flows_converge_sooner(coexistence_evidence, baseline):
    interval = coexistence_evidence.converges(baseline)
    assert verdict(interval) == "ahead", (
        f"{baseline} − Muzha convergence time: {describe(interval, 's')}"
    )


def test_experiments_md_holds_this_campaign(coexistence_campaign,
                                            coexistence_evidence):
    text = EXPERIMENTS.read_text(encoding="utf-8")
    assert coexistence_campaign.fingerprint() == committed_fingerprint(
        text, FENCES["Simulation 3"])
    for table in (render_coexistence_tables(coexistence_evidence),
                  render_dynamics_table(coexistence_evidence)):
        assert table in text
