"""Acceptance test for the observability layer (ISSUE PR 3).

The traced standard 4-hop chain must produce (a) a schema-valid NDJSON
trace, (b) a metrics snapshot with nonzero MAC/queue/TCP counters, and
(c) a manifest whose seed + config reproduce the run byte-identically.
"""

import json

import pytest

from repro.experiments import (
    RunSpec,
    ScenarioConfig,
    chain_grid,
    execute_run,
    fig_dynamics,
    run_campaign,
    run_chain,
    run_cross,
    verify_manifest,
)
from repro.obs import (
    FlightRecorder,
    NdjsonTraceSink,
    attach_run_probe,
    stable_digest,
)
from repro.experiments.doctor import diagnose_manifest, diagnose_trace


@pytest.fixture(scope="module")
def traced_chain(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("obs")
    trace_path = tmp_path / "chain4.ndjson"
    sink = NdjsonTraceSink(trace_path)
    captured = {}

    def instrument(network, flows):
        sink.attach(network.sim.trace)
        captured["recorder"] = FlightRecorder(
            network.sim.trace, dump_dir=tmp_path / "flight")
        captured["probe"] = attach_run_probe(network, flows, interval=0.5)

    config = ScenarioConfig(sim_time=5.0, seed=1)
    result = run_chain(4, ["muzha"], config=config, instrument=instrument)
    sink.detach()
    captured["recorder"].detach()
    manifest_path = tmp_path / "chain4.manifest.json"
    manifest_path.write_text(json.dumps(result.manifest, indent=2))
    return {
        "result": result,
        "config": config,
        "sink": sink,
        "trace_path": trace_path,
        "manifest_path": manifest_path,
        **captured,
    }


def test_trace_is_nonempty_and_schema_valid(traced_chain):
    assert traced_chain["sink"].records_written > 100
    assert diagnose_trace(traced_chain["trace_path"]) == []


def test_trace_covers_multiple_layers(traced_chain):
    counts = traced_chain["sink"].counts
    assert counts.get("mac.tx", 0) > 0
    assert counts.get("ifq.enqueue", 0) > 0
    assert counts.get("tcp.cwnd", 0) > 0
    assert counts.get("drai.sample", 0) > 0
    assert counts.get("probe.sample", 0) > 0


def test_metrics_snapshot_has_live_counters(traced_chain):
    rollup = traced_chain["result"].metrics["rollups"]["global"]
    assert rollup["mac.data_tx"] > 0
    assert rollup["ifq.enqueued"] > 0
    assert rollup["tcp.data_sent"] > 0
    assert rollup["tcp.delivered_packets"] > 0
    per_node = traced_chain["result"].metrics["rollups"]["per_node"]
    assert set(per_node) == {str(n) for n in range(5)}  # 4 hops = 5 nodes


def test_probe_recorded_cwnd_series(traced_chain):
    series = traced_chain["probe"].series
    cwnd = series["flow0.cwnd"]
    assert len(cwnd) >= 10  # 5 s at 0.5 s interval + immediate sample
    assert any(v > 1.0 for _, v in cwnd)


def test_manifest_is_schema_valid(traced_chain):
    assert diagnose_manifest(traced_chain["manifest_path"]) == []


def test_manifest_reproduces_run_byte_identically(traced_chain):
    """The headline provenance claim: replaying the manifest's seed+config
    yields a byte-identical canonical result — and the original traced run
    (sinks, recorder, probe attached) already hashed to the same bytes, so
    observation does not perturb the simulation."""
    result = traced_chain["result"]
    manifest = result.manifest
    assert stable_digest(result.to_dict()) == manifest["result_digest"]
    untraced = run_chain(4, ["muzha"], config=traced_chain["config"])
    assert stable_digest(untraced.to_dict()) == manifest["result_digest"]


def test_spec_manifest_verifies_end_to_end():
    spec = RunSpec(kind="chain", hops=4, variants=("muzha",),
                   config=ScenarioConfig(sim_time=3.0, seed=1))
    assert verify_manifest(execute_run(spec).manifest)


# -- every manifest replays ---------------------------------------------------
#
# Only ``execute_run`` used to stamp the spec, so a manifest from
# ``run_chain`` / ``run_cross`` / ``repro-muzha trace`` carried
# ``"spec": null`` and ``verify_manifest`` answered ``ValueError: manifest
# carries no spec; cannot replay``.  Every run now goes through
# ``execute_run``; verifying an *observed* run's manifest is also the
# standing check that observing changes nothing.


@pytest.mark.parametrize("argv", [
    ["chain", "--hops", "4", "--variant", "muzha"],
    ["cross", "--hops", "4", "--variant", "muzha", "--b", "newreno"],
], ids=["chain", "cross"])
def test_the_manifest_trace_writes_replays(argv, tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "trace.ndjson"
    assert main(["trace", *argv, "--time", "2", "--out", str(out),
                 "--flight-dir", str(tmp_path / "flight")]) == 0
    capsys.readouterr()
    manifest_path = f"{out}.manifest.json"
    assert diagnose_manifest(manifest_path) == []
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert manifest["spec"] is not None
    assert manifest["spec"]["kind"] == argv[0]
    assert verify_manifest(manifest)


def _short(**changes):
    return ScenarioConfig(sim_time=2.0, seed=3, **changes)


def _campaign_record_manifest():
    grid = chain_grid(["newreno"], [2], config=_short())
    return run_campaign(grid, jobs=1).records[0].manifest


@pytest.mark.parametrize("make_manifest", [
    lambda: run_chain(3, ["sack", "muzha"], config=_short(),
                      starts=[0.0, 0.5]).manifest,
    lambda: run_cross(4, "vegas", "muzha", config=_short(window=4)).manifest,
    lambda: fig_dynamics("newreno", hops=2, starts=(0.0, 0.5, 1.0),
                         sim_time=2.0, sampler_interval=0.5).manifest,
    _campaign_record_manifest,
], ids=["run_chain", "run_cross", "fig_dynamics", "campaign-record"])
def test_every_manifest_replays(make_manifest):
    manifest = make_manifest()
    assert manifest["spec"] is not None
    assert verify_manifest(manifest)


def test_run_chain_stamps_the_spec_execute_run_would():
    config = _short(window=4)
    wrapped = run_chain(3, ["muzha", "newreno"], config=config,
                        starts=[0.0, 0.5], record_dynamics=True)
    spec = RunSpec(kind="chain", hops=3, variants=("muzha", "newreno"),
                   starts=(0.0, 0.5), record_dynamics=True, config=config)
    direct = execute_run(spec)
    assert wrapped.manifest["spec"] == direct.manifest["spec"] == spec.to_dict()
    assert wrapped.manifest["spec_digest"] == direct.manifest["spec_digest"]


def test_a_mutating_instrument_makes_the_manifest_non_replayable():
    """The documented limit (``execute_run``): an ``instrument`` that swaps
    the IFQ runs something the spec does not describe, and
    ``verify_manifest`` says so instead of blessing it."""
    from repro.net.queues import RedQueue

    def swap_in_red(network, flows):
        for node in network.nodes:
            red = RedQueue(50, min_th=1.0, max_th=3.0, max_p=1.0, weight=0.5,
                           rng=network.sim.stream(f"red.{node.node_id}"))
            red.on_wakeup = node.mac.wakeup
            node.ifq = red
            node.mac.queue = red

    config = _short(window=32)
    mutated = run_chain(2, ["newreno"], config=config, instrument=swap_in_red)
    assert mutated.manifest["spec"] is not None
    assert verify_manifest(mutated.manifest) is False
    assert verify_manifest(run_chain(2, ["newreno"], config=config).manifest)
