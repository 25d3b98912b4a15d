"""DESIGN.md §4's extensions — paper §§4.6 and 4.7, the saturation hold and
the end-to-end counterpoints — one test per cell.

Every test reads the extensions campaign (``conftest.py``): 180 single-flow
chain runs of 30 s at ``window_=8``, 10 replications per scenario.

* §4.6 — five DRAI levels beat one-bit feedback: on clean 4- and 8-hop
  chains, binary-feedback − fuzzy cwnd coefficient of variation after the
  first plateau must lie wholly above zero, and fuzzy − binary-feedback
  goodput must not lie wholly below zero.
* §4.7 — marking stops random loss from halving Muzha's window: at each
  frame-loss rate, Muzha − ``muzha-nomark`` goodput must lie wholly above
  zero.  A loss rate at which Muzha averages fewer than
  ``evidence.VACUOUS_FAST_RETRANSMITS`` fast retransmits a run gives the
  marking nothing to act on; its cell is skipped as vacuous.
* The saturation hold — disabling it raises the standing window and costs
  goodput: no-hold − hold time-averaged cwnd after the first plateau
  (``evidence.standing_cwnd``) and hold − no-hold goodput must each lie
  wholly above zero.
* The end-to-end counterpoint — Veno against NewReno under random loss:
  Veno − NewReno goodput must not lie wholly below zero at any loss rate,
  and must lie wholly above it at one at least (the row separates).

Cells listed in :data:`~tests.claims.evidence.DIVERGENT` are strict
``xfail``.  The last test ties EXPERIMENTS.md § Ablations & extensions to
this campaign.
"""

from pathlib import Path

import pytest

from .evidence import (
    COUNTERPOINTS,
    FENCES,
    LOSS_RATES,
    VACUOUS_FAST_RETRANSMITS,
    cell_params,
    committed_fingerprint,
    describe,
    render_extension_tables,
    verdict,
)

pytestmark = pytest.mark.slow

EXPERIMENTS = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


@pytest.mark.parametrize("hops", cell_params("feedback"))
def test_s46_five_levels_hold_a_steadier_window_than_one_bit(
        extension_evidence, hops):
    interval = extension_evidence.feedback(hops)
    assert verdict(interval) == "ahead", (
        f"binary − fuzzy cwnd CV at {hops} hops: {describe(interval, digits=2)}"
    )


@pytest.mark.parametrize("hops", cell_params("feedback_goodput"))
def test_s46_five_levels_cost_no_goodput(extension_evidence, hops):
    interval = extension_evidence.feedback_goodput(hops)
    assert verdict(interval) != "behind", (
        f"fuzzy − binary goodput at {hops} hops: {describe(interval, 'kb/s')}"
    )


@pytest.mark.parametrize("loss", cell_params("marking"))
def test_s47_marking_raises_goodput_under_random_loss(extension_evidence, loss):
    fast = extension_evidence.fast_retransmits(loss)
    if fast < VACUOUS_FAST_RETRANSMITS:
        pytest.skip(f"vacuous: Muzha averages {fast:.2f} fast retransmits a "
                    f"run at {loss:.0%} frame loss")
    interval = extension_evidence.marking(loss)
    assert verdict(interval) == "ahead", (
        f"Muzha − muzha-nomark goodput at {loss:.0%} frame loss: "
        f"{describe(interval, 'kb/s')}"
    )


@pytest.mark.parametrize("hops", cell_params("hold_cwnd"))
def test_hold_disabled_raises_the_standing_window(extension_evidence, hops):
    interval = extension_evidence.hold_cwnd(hops)
    assert verdict(interval) == "ahead", (
        f"no-hold − hold standing cwnd at {hops} hops: "
        f"{describe(interval, 'packets', 2)}"
    )


@pytest.mark.parametrize("hops", cell_params("hold_goodput"))
def test_hold_disabled_costs_goodput(extension_evidence, hops):
    interval = extension_evidence.hold_goodput(hops)
    assert verdict(interval) == "ahead", (
        f"hold − no-hold goodput at {hops} hops: {describe(interval, 'kb/s')}"
    )


@pytest.mark.parametrize("variant, loss", cell_params("counterpoint"))
def test_counterpoint_not_below_newreno_under_random_loss(extension_evidence,
                                                          variant, loss):
    interval = extension_evidence.counterpoint(variant, loss)
    assert verdict(interval) != "behind", (
        f"{variant} − newreno goodput at {loss:.0%} frame loss: "
        f"{describe(interval, 'kb/s')}"
    )


@pytest.mark.parametrize("variant", COUNTERPOINTS)
def test_counterpoint_separates_from_newreno(extension_evidence, variant):
    """DESIGN.md §5's rule for an extension: a counterpoint that is ahead of
    NewReno at no loss rate is not a counterpoint, and goes."""
    intervals = {loss: extension_evidence.counterpoint(variant, loss)
                 for loss in LOSS_RATES}
    assert any(verdict(i) == "ahead" for i in intervals.values()), {
        loss: describe(i, "kb/s") for loss, i in intervals.items()}


def test_experiments_md_holds_this_campaign(extension_campaign,
                                            extension_evidence):
    text = EXPERIMENTS.read_text(encoding="utf-8")
    assert extension_campaign.fingerprint() == committed_fingerprint(
        text, FENCES["extensions"])
    assert render_extension_tables(extension_evidence) in text
