"""``benchmarks/harness.py`` — the one report shape, the one gate and the
one CLI of the two bench suites — driven with synthetic numbers: nothing
here times anything."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "bench_harness", ROOT / "benchmarks" / "harness.py")
harness = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = harness  # dataclasses resolve annotations through it
_spec.loader.exec_module(harness)

CAL = harness.CALIBRATION
FOUR_KEYS = {"baseline", "current", "ratio", "normalised_ratio"}
DELETED_KEYS = {
    "pre", "post", "pre_obs", "baseline_pre", "baseline_post",
    "baseline_pre_obs", "speedup_vs_pre", "ratio_vs_post",
    "ratio_vs_post_normalized", "ratio_vs_pre_obs",
    "ratio_vs_pre_obs_normalized", "obs_retry_ratios", "lane_identity",
}
BASELINE = {
    "machine": "synthetic", "commit": "0000000", "method": "made up",
    "metrics": {CAL: 1000.0, "a_per_sec": 100.0, "b_per_sec": 50.0},
}


class Script:
    """A ``measure_all`` that replays scripted rates and logs its calls."""

    def __init__(self, **rates):
        self.rates = {name: list(values) for name, values in rates.items()}
        self.calls = []

    def __call__(self, fast, names):
        self.calls.append(names)
        return {name: values.pop(0) for name, values in self.rates.items()
                if names is None or name in names}


@pytest.fixture
def calibration(monkeypatch):
    """Scripts the calibration anchor (the only thing ``measure`` times)."""
    anchors = []
    monkeypatch.setattr(harness, "rate", lambda work, reps: anchors.pop(0))
    return anchors


def gate(script, calibration, anchors, **suite_fields):
    calibration.extend(anchors)
    suite = harness.Suite("bench_fake", script, **suite_fields)
    report = harness.build_report(suite, harness.measure(suite), BASELINE)
    return report, harness.check(suite, report, BASELINE)


def test_report_has_four_keys_per_metric_and_never_gates_calibration(calibration):
    # The box runs at a tenth of the baseline machine's speed: every raw
    # ratio is 0.1, every normalised ratio 1.0, and nothing is re-measured.
    script = Script(a_per_sec=[10.0], b_per_sec=[5.0])
    report, failures = gate(script, calibration, [100.0])
    assert failures == []
    assert script.calls == [None]
    assert report["machine_speed_factor"] == 0.1
    assert set(report["metrics"]) == {CAL, "a_per_sec", "b_per_sec"}
    for entry in report["metrics"].values():
        assert set(entry) == FOUR_KEYS
    assert report["metrics"][CAL]["ratio"] == 0.1
    assert report["metrics"]["a_per_sec"] == {
        "baseline": 100.0, "current": 10.0, "ratio": 0.1,
        "normalised_ratio": 1.0,
    }


def test_metric_under_the_bound_is_remeasured_alone_until_it_clears(calibration):
    # a: 0.60 normalised, then 0.65, then 0.80 against a fresh anchor.
    script = Script(a_per_sec=[60.0, 65.0, 160.0], b_per_sec=[50.0])
    report, failures = gate(
        script, calibration, [1000.0, 1000.0, 2000.0],
        derived=lambda current: {"a_over_b": current["a_per_sec"] / current["b_per_sec"]},
    )
    assert failures == []
    assert script.calls == [None, ["a_per_sec"], ["a_per_sec"]]
    assert report["metrics"]["a_per_sec"]["normalised_ratio"] == 0.8
    assert set(report["metrics"]["a_per_sec"]) == FOUR_KEYS
    assert report["a_over_b"] == 3.2  # derived numbers follow the re-measurement


def test_metric_fails_by_name_after_three_remeasurements(calibration):
    script = Script(a_per_sec=[60.0] * 5, b_per_sec=[50.0])
    _, failures = gate(script, calibration, [1000.0] * 5)
    assert failures == ["a_per_sec"]
    assert script.calls == [None] + [["a_per_sec"]] * harness.RETRIES
    assert harness.RETRIES == 3


def test_inputs_of_a_floored_ratio_are_remeasured_together(calibration):
    # b drops under the bound; a is fine, but a/b is a floor, so the retry
    # measures the pair again rather than pairing a fresh b with a stale a.
    script = Script(a_per_sec=[100.0, 130.0], b_per_sec=[30.0, 52.0])
    report, failures = gate(
        script, calibration, [1000.0, 1000.0],
        derived=lambda current: {"a_over_b": current["a_per_sec"] / current["b_per_sec"]},
        floors={"a_over_b": 2.0},
        together=[("a_per_sec", "b_per_sec")],
    )
    assert failures == []
    assert script.calls == [None, ["a_per_sec", "b_per_sec"]]
    assert report["metrics"]["a_per_sec"]["current"] == 130.0
    assert report["a_over_b"] == 2.5  # 130 / 52, not the stale 100 / 52


def test_a_group_gets_three_remeasurements_not_three_per_member(calibration):
    script = Script(a_per_sec=[60.0] * 4, b_per_sec=[30.0] * 4)
    _, failures = gate(script, calibration, [1000.0] * 4,
                       together=[("a_per_sec", "b_per_sec")])
    assert failures == ["a_per_sec", "b_per_sec"]
    assert script.calls == [None] + [["a_per_sec", "b_per_sec"]] * harness.RETRIES


def test_failing_derived_floor_fails_check(tmp_path, calibration, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(BASELINE))
    out = tmp_path / "BENCH_fake.json"
    suite = harness.Suite(
        "bench_fake", Script(a_per_sec=[100.0] * 2, b_per_sec=[50.0] * 2),
        derived=lambda current: {"a_over_b": current["a_per_sec"] / current["b_per_sec"]},
        floors={"a_over_b": 2.5}, baseline=baseline,
    )
    calibration.extend([1000.0, 1000.0])
    assert harness.main(suite, ["--json", str(out)]) == 0
    assert harness.main(suite, ["--json", str(out), "--check"]) == 1
    assert "a_over_b 2.0 < 2.5" in capsys.readouterr().err
    assert json.loads(out.read_text())["a_over_b"] == 2.0


def _keys(node):
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _keys(value)


BASELINES = sorted((ROOT / "benchmarks" / "baselines").glob("*.json"))


@pytest.mark.parametrize("path", BASELINES, ids=lambda path: path.stem)
def test_committed_baselines_and_reports_have_the_one_shape(path):
    baseline = json.loads(path.read_text())
    assert set(baseline) == {"machine", "commit", "method", "metrics"}
    assert CAL in baseline["metrics"]
    assert all(type(value) in (int, float) for value in baseline["metrics"].values())

    suite = path.stem.removesuffix("_baseline")
    report = json.loads(
        (ROOT / "results" / f"BENCH_{suite.removeprefix('bench_')}.json").read_text())
    assert report["suite"] == suite
    assert set(report["metrics"]) <= set(baseline["metrics"])
    for entry in report["metrics"].values():
        assert set(entry) == FOUR_KEYS
    assert not DELETED_KEYS & (set(_keys(baseline)) | set(_keys(report)))


def test_every_suite_has_a_baseline():
    assert [path.stem for path in BASELINES] == [
        f"bench_{suite}_baseline" for suite in ("campaign", "kernel")]


@pytest.mark.parametrize("suite", ["kernel", "campaign"])
def test_suite_cli_has_exactly_three_options(suite):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    text = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / f"bench_{suite}.py"), "--help"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert set(re.findall(r"--[a-z][a-z-]*", text)) == {
        "--help", "--json", "--fast", "--check"}
