"""Integration: the Veno extension baseline vs the §4.7 scenario."""

from repro.experiments import ScenarioConfig, run_chain


def test_veno_runs_clean_and_lossy():
    for loss in (0.0, 0.05):
        config = ScenarioConfig(sim_time=10.0, seed=2, window=8, packet_error_rate=loss)
        flow = run_chain(4, ["veno"], config=config).flows[0]
        assert flow.goodput_kbps > 50.0


def test_muzha_still_leads_the_endtoend_fixes_under_loss():
    """The router-assisted approach should beat the end-to-end repair the
    related work proposed, in the random-loss regime it was designed for."""
    config = ScenarioConfig(sim_time=20.0, seed=3, window=8, packet_error_rate=0.05)
    results = {
        variant: run_chain(4, [variant], config=config).flows[0].goodput_kbps
        for variant in ("muzha", "veno")
    }
    assert results["muzha"] >= results["veno"] * 0.95
