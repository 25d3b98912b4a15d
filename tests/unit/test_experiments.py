"""Unit tests for the experiment harness (config, runners, reporting)."""

import pytest

from repro.experiments import (
    PAPER_VARIANTS,
    RunSpec,
    ScenarioConfig,
    Table51Parameters,
    ascii_series,
    execute_run,
    fig_cwnd_traces,
    format_coexistence,
    format_sweep,
    format_table,
    run_chain,
    run_cross,
    run_flows,
    stable_digest,
)
from repro.experiments.figures import (
    CoexistencePoint,
    SweepPoint,
    SweepResult,
)


class TestConfig:
    def test_table_5_1_rows_match_paper(self):
        rows = dict(Table51Parameters().rows())
        assert rows["Link Bandwidth"] == "2Mbps"
        assert rows["Transmission Range"] == "250 m"
        assert rows["MAC"] == "802.11"
        assert rows["Routing"] == "AODV"
        assert rows["Number of Nodes"] == "4~32"

    def test_paper_variants(self):
        assert PAPER_VARIANTS == ("muzha", "newreno", "sack", "vegas")


class TestRunSpec:
    def test_rejects_unknown_kind_and_bad_cross_arity(self):
        with pytest.raises(ValueError, match="unknown run kind"):
            RunSpec(kind="mesh", hops=2, variants=("muzha",))
        with pytest.raises(ValueError, match="exactly two"):
            RunSpec(kind="cross", hops=2, variants=("muzha",))

    def test_dict_round_trip(self):
        spec = RunSpec(
            kind="chain", hops=3, variants=("muzha", "newreno"),
            starts=(0.0, 1.0), record_dynamics=True,
            config=ScenarioConfig(sim_time=2.0, window=4, seed=7),
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec
        # the dict form is canonical-JSON hashable
        assert stable_digest(spec.to_dict()) == stable_digest(spec.to_dict())

    def test_with_seed_changes_only_the_seed(self):
        """The field-for-field copy equals the two ``dataclasses.replace``
        calls it stands for, on a spec that uses every field, and leaves
        the spec it came from as it was."""
        import dataclasses

        from repro.core.drai import DraiParams
        from repro.faults import FaultEvent, FaultPlan

        config = ScenarioConfig(
            sim_time=2.0, seed=7, window=4, drai_params=DraiParams(),
            policy="hysteresis", policy_params={"sustain_up": 3},
            packet_error_rate=0.01,
            faults=FaultPlan(events=(FaultEvent(
                time=0.5, kind="node_crash", node=1, duration=0.5),)))
        spec = RunSpec(kind="chain", hops=3, variants=("muzha", "vegas"),
                       starts=(0.0, 1.0), record_dynamics=True, config=config)
        before = spec.to_dict()
        reseeded = spec.with_seed(99)
        assert reseeded.config.seed == 99
        assert reseeded.config.replace(seed=spec.config.seed) == spec.config
        assert reseeded == dataclasses.replace(
            spec, config=dataclasses.replace(config, seed=99))
        assert type(reseeded) is RunSpec
        assert type(reseeded.config) is ScenarioConfig
        assert reseeded.config is not config and config.seed == 7
        assert spec.to_dict() == before
        with pytest.raises(dataclasses.FrozenInstanceError):
            reseeded.hops = 4  # type: ignore[misc]

    def test_execute_run_matches_run_chain(self):
        config = ScenarioConfig(sim_time=2.0, seed=3, window=4)
        spec = RunSpec(kind="chain", hops=2, variants=("newreno",), config=config)
        via_spec = execute_run(spec)
        direct = run_chain(2, ["newreno"], config=config)
        assert via_spec.to_dict() == direct.to_dict()

    def test_execute_run_cross_and_result_round_trip(self):
        from repro.experiments import RunResult

        config = ScenarioConfig(sim_time=2.0, seed=1, window=4)
        spec = RunSpec(kind="cross", hops=2, variants=("muzha", "newreno"),
                       config=config)
        result = execute_run(spec)
        assert len(result.flows) == 2
        rebuilt = RunResult.from_dict(result.to_dict())
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.total_goodput_kbps == result.total_goodput_kbps


class TestRunners:
    def test_run_chain_single_flow(self):
        result = run_chain(
            2, ["newreno"], config=ScenarioConfig(sim_time=5.0, seed=1)
        )
        flow = result.flows[0]
        assert flow.variant == "newreno"
        assert flow.goodput_kbps > 0
        assert flow.cwnd_trace[0][1] == 1.0
        assert result.fairness == 1.0  # single flow

    def test_run_chain_static_routing(self):
        result = run_chain(
            2, ["newreno"], config=ScenarioConfig(sim_time=5.0, routing="static")
        )
        assert result.flows[0].goodput_kbps > 0

    def test_run_chain_unknown_routing_rejected(self):
        with pytest.raises(ValueError):
            run_chain(2, ["newreno"], config=ScenarioConfig(routing="ospf"))

    def test_run_chain_staggered_flows(self):
        result = run_chain(
            2,
            ["newreno", "newreno"],
            starts=[0.0, 2.0],
            config=ScenarioConfig(sim_time=6.0),
            record_dynamics=True,
        )
        assert len(result.flows) == 2
        assert result.flows[1].start_time == 2.0
        assert result.flows[0].rate_series_kbps  # dynamics recorded

    def test_run_chain_mismatched_starts_rejected(self):
        with pytest.raises(ValueError):
            run_chain(2, ["newreno"], starts=[0.0, 1.0])

    def test_run_flows_assembles_any_built_network(self):
        """``run_chain`` is ``run_flows`` over a chain: a scene the kinds
        cannot express builds its own network and gets the same assembly."""
        from repro.topology import build_chain

        config = ScenarioConfig(sim_time=2.0, seed=5)
        network = build_chain(2, seed=config.seed)
        ends = [(network.nodes[0], network.nodes[-1])]
        seen = []
        result = run_flows(network, ends, ["muzha"], config,
                           instrument=lambda net, flows: seen.append((net, flows)))
        assert seen[0][0] is network and len(seen[0][1]) == 1
        assert result.result_digest() == run_chain(
            2, ["muzha"], config=config).result_digest()
        assert result.manifest["spec"] is None  # only execute_run knows a spec
        with pytest.raises(ValueError, match="endpoints and variants"):
            run_flows(build_chain(2), ends * 2, ["muzha"], config)

    def test_run_cross_two_flows(self):
        result = run_cross(
            4, "newreno", "newreno", config=ScenarioConfig(sim_time=5.0)
        )
        assert len(result.flows) == 2
        assert 0.0 < result.fairness <= 1.0

    def test_muzha_flow_gets_drai_installed(self):
        result = run_chain(2, ["muzha"], config=ScenarioConfig(sim_time=5.0))
        assert result.flows[0].goodput_kbps > 0

    def test_packet_error_rate_injects_loss(self):
        clean = run_chain(2, ["newreno"], config=ScenarioConfig(sim_time=8.0))
        lossy = run_chain(
            2, ["newreno"], config=ScenarioConfig(sim_time=8.0, packet_error_rate=0.2)
        )
        assert lossy.flows[0].goodput_kbps < clean.flows[0].goodput_kbps

    def test_fig_cwnd_traces_covers_variants(self):
        traces = fig_cwnd_traces(2, variants=("muzha", "newreno"), sim_time=3.0)
        assert set(traces) == {"muzha", "newreno"}
        for trace in traces.values():
            assert trace[0] == (0.0, 1.0)


class TestReporting:
    def make_sweep(self):
        result = SweepResult(window=8, hops=(4, 8), variants=("muzha", "newreno"))
        for v in result.variants:
            for h in result.hops:
                result.points[(v, h)] = SweepPoint(
                    goodput_kbps=100.0 + h, goodput_stdev=1.0,
                    retransmits=float(h), timeouts=0.0, samples=3,
                )
        return result

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2], [30, 4]], title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "a" in lines[1] and "bb" in lines[1]

    def test_format_sweep_goodput_and_retransmits(self):
        sweep = self.make_sweep()
        text = format_sweep(sweep, metric="goodput")
        assert "muzha" in text and "104.0" in text
        text = format_sweep(sweep, metric="retransmits")
        assert "8.0" in text
        with pytest.raises(ValueError):
            format_sweep(sweep, metric="latency")

    def test_sweep_series_accessors(self):
        sweep = self.make_sweep()
        assert sweep.goodput_series("muzha") == [(4, 104.0), (8, 108.0)]
        assert sweep.retransmit_series("newreno") == [(4, 4.0), (8, 8.0)]

    def test_format_coexistence(self):
        points = [CoexistencePoint(4, 100.0, 50.0, 0.9)]
        text = format_coexistence(points, "newreno", "vegas")
        assert "newreno" in text and "0.900" in text

    def test_ascii_series_renders(self):
        chart = ascii_series([(0.0, 0.0), (1.0, 5.0), (2.0, 2.0)], label="x")
        assert "x" in chart
        assert "*" in chart

    def test_ascii_series_empty(self):
        assert "(no data)" in ascii_series([], label="y")
