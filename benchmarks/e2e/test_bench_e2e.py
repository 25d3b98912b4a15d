"""Self-tests of the end-to-end benchmark (run explicitly, not tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_e2e.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from ledger import LAYERS, Spans, build_ledger, layer_of, owner_of  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke`` run of the whole set: (stdout, report, seconds)."""
    path = tmp_path_factory.mktemp("e2e") / "report.json"
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--json", str(path)],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - t0
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, json.loads(path.read_text()), elapsed


def test_smoke_runs_every_workload_quickly_and_correctly(smoke):
    _, report, elapsed = smoke
    assert elapsed < 20.0
    assert set(report["workloads"]) == set(bench.WORKLOAD_NAMES)
    for name, entry in report["workloads"].items():
        for kind in ("untraced", "traced"):
            run = entry[kind]
            assert run["correct"], (name, kind, run["errors"])
            assert run["context"]["failed_share"] == 0
        assert entry["traced"]["result_digest"] == entry["untraced"]["result_digest"]
        assert abs(entry["traced"]["context"]["ledger_closure"] - 1) <= 0.02
    cached = report["workloads"]["campaign_cached"]["traced"]["values"]
    assert cached["exp.campaign.executed_units"] == 0
    assert cached["exp.cachestore.hit_share"] == 1
    dense = report["workloads"]["dense_grid"]["traced"]["values"]
    assert dense["phy.numpy_fanout_share"] in (0, 1)  # 0 only without numpy


def test_manifest_and_run_agree_on_every_name(smoke):
    stdout, report, _ = smoke
    manifest = bench.load_manifest()
    assert {w["name"] for w in manifest["workloads"]} == set(bench.WORKLOAD_NAMES)
    end_to_end = {m["name"] for m in manifest["end_to_end"]}
    per_layer = {m["name"] for m in manifest["per_layer"]}
    for name in end_to_end | per_layer | set(bench.WORKLOAD_NAMES):
        assert NAME.fullmatch(name), name
    produced = set()
    for entry in report["workloads"].values():
        assert set(entry["untraced"]["values"]) == end_to_end
        assert set(entry["traced"]["values"]) <= per_layer
        produced |= set(entry["traced"]["values"])
    assert produced == per_layer
    printed = {line.split()[0] for line in stdout.splitlines()
               if line and not line.startswith("#")}
    assert printed == end_to_end | per_layer


def test_contract_line_reports_every_declared_metric():
    manifest = bench.load_manifest()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "dense_grid",
         "--smoke", "--trace", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in manifest["per_layer"]}
    units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    for name, metric in last["metrics"].items():
        assert set(metric) == {"value", "unit"} and metric["unit"] == units[name]


# -- ledger arithmetic ---------------------------------------------------------

SCHED_RUN = ("/x/src/repro/sim/scheduler.py", 200, "run")
CHECKPOINT = ("/x/src/repro/experiments/journal.py", 131, "checkpoint")
PUT = ("/x/src/repro/experiments/cachestore.py", 217, "put")
BENCH_PASS = ("/x/benchmarks/e2e/workloads.py", 10, "timed_pass")
JSON_DUMP = ("/usr/lib/python3.11/json/__init__.py", 120, "dump")
ENCODER = ("/usr/lib/python3.11/json/encoder.py", 413, "_iterencode")
HEAPPUSH = ("~", 0, "<built-in method _heapq.heappush>")
FSYNC = ("~", 0, "<built-in method posix.fsync>")
POLL = ("~", 0, "<method 'poll' of 'select.poll' objects>")
CAMPAIGN = ("/x/src/repro/experiments/campaign.py", 603, "_run_pool")
TRANSMIT = ("/x/src/repro/phy/channel.py", 300, "_transmit_batch")
NUMPY_ADD = ("~", 0, "<built-in method numpy.core._multiarray_umath.add>")
STABLE_DIGEST = ("/x/src/repro/obs/provenance.py", 37, "stable_digest")
BUILD_MANIFEST = ("/x/src/repro/obs/provenance.py", 60, "build_manifest")
SHA256 = ("~", 0, "<built-in method _hashlib.openssl_sha256>")


def synthetic_profile():
    """pstats layout: func -> (cc, nc, tottime, cumtime, callers) with
    callers[func] = (nc, cc, tottime, cumtime) of the *callee* on that edge."""
    return {
        BENCH_PASS: (1, 1, 0.10, 10.0, {}),
        SCHED_RUN: (1, 1, 1.00, 1.50, {BENCH_PASS: (1, 1, 1.00, 1.50)}),
        HEAPPUSH: (50, 50, 0.50, 0.50, {SCHED_RUN: (50, 50, 0.50, 0.50)}),
        CHECKPOINT: (4, 4, 0.20, 1.00, {BENCH_PASS: (4, 4, 0.20, 1.00)}),
        PUT: (2, 2, 0.30, 1.60, {BENCH_PASS: (2, 2, 0.30, 1.60)}),
        FSYNC: (6, 6, 1.20, 1.20, {CHECKPOINT: (4, 4, 0.80, 0.80),
                                   PUT: (2, 2, 0.40, 0.40)}),
        JSON_DUMP: (2, 2, 0.10, 0.90, {PUT: (2, 2, 0.10, 0.90)}),
        # Stdlib called from stdlib: paid by whoever called json.dump.
        ENCODER: (9, 9, 0.80, 0.80, {JSON_DUMP: (9, 9, 0.80, 0.80)}),
        CAMPAIGN: (1, 1, 0.05, 2.05, {BENCH_PASS: (1, 1, 0.05, 2.05)}),
        POLL: (7, 7, 2.00, 2.00, {CAMPAIGN: (7, 7, 2.00, 2.00)}),
        TRANSMIT: (3, 3, 0.25, 0.40, {SCHED_RUN: (3, 3, 0.25, 0.40)}),
        NUMPY_ADD: (3, 3, 0.15, 0.15, {TRANSMIT: (3, 3, 0.15, 0.15)}),
        # json + sha256 under a name: paid by whoever asked for the digest.
        STABLE_DIGEST: (3, 3, 0.05, 0.65, {PUT: (3, 3, 0.05, 0.65)}),
        SHA256: (3, 3, 0.60, 0.60, {STABLE_DIGEST: (3, 3, 0.60, 0.60)}),
        BUILD_MANIFEST: (1, 1, 0.07, 0.07, {BENCH_PASS: (1, 1, 0.07, 0.07)}),
    }


def test_layer_of_maps_packages_and_experiment_modules():
    assert layer_of(SCHED_RUN[0]) == "sim"
    assert layer_of(PUT[0]) == "exp.cachestore"
    assert layer_of("/x/src/repro/experiments/config.py") == "other"
    assert layer_of("/x/src/repro/cli.py") == "other"
    assert layer_of(BENCH_PASS[0]) == "other"
    assert layer_of(JSON_DUMP[0]) is None and layer_of("~") is None
    assert owner_of(BUILD_MANIFEST) == "obs" and owner_of(STABLE_DIGEST) is None


def test_ledger_charges_builtins_to_their_callers_and_closes():
    stats = synthetic_profile()
    ledger = build_ledger(stats)
    total = sum(entry[2] for entry in stats.values())
    assert ledger.total_s == pytest.approx(total)
    assert ledger.self_s["sim"] == pytest.approx(1.00 + 0.50)
    assert ledger.self_s["exp.journal"] == pytest.approx(0.20 + 0.80)
    assert ledger.self_s["exp.cachestore"] == pytest.approx(
        0.30 + 0.40 + 0.10 + 0.80 + 0.05 + 0.60)
    assert ledger.self_s["obs"] == pytest.approx(0.07)
    assert ledger.self_s["exp.campaign"] == pytest.approx(0.05 + 2.00)
    assert ledger.self_s["other"] == pytest.approx(0.10)
    assert ledger.self_s["phy"] == pytest.approx(0.25 + 0.15)
    assert ledger.calls["sim"] == 1 and ledger.calls["exp.journal"] == 4
    assert ledger.calls["obs"] == 1  # stable_digest's calls belong to no layer
    assert ledger.buckets == {
        "sim.heap_s": pytest.approx(0.50),
        "phy.fanout_s": pytest.approx(0.25 + 0.15),
        "exp.journal.fsync_s": pytest.approx(0.80),
        "exp.cachestore.fsync_s": pytest.approx(0.40),
        "exp.campaign.wait_s": pytest.approx(2.00),
    }
    assert ledger.share("exp.") == pytest.approx((1.00 + 2.25 + 2.05) / total)
    assert set(ledger.self_s) == set(LAYERS)


def test_ledger_splits_shared_stdlib_by_cumulative_time():
    stats = synthetic_profile()
    # json.dump now also called from the journal, which spends 3x as long
    # in it: the encoder below is charged 3:1.
    cc, nc, tt, ct, callers = stats[JSON_DUMP]
    stats[JSON_DUMP] = (cc, nc, tt, ct, {PUT: (2, 2, 0.05, 0.30),
                                         CHECKPOINT: (2, 2, 0.05, 0.90)})
    ledger = build_ledger(stats)
    assert ledger.self_s["exp.journal"] == pytest.approx(
        0.20 + 0.80 + 0.05 + 0.80 * 0.75)
    assert ledger.total_s == pytest.approx(sum(e[2] for e in stats.values()))


# -- spans -----------------------------------------------------------------------


def test_span_self_time_is_duration_minus_children():
    spans = Spans(enabled=True)
    with spans.span("workload"):
        with spans.span("pass"):
            with spans.span("unit", label="a"):
                time.sleep(0.01)
            with spans.span("unit", label="b"):
                time.sleep(0.01)
        time.sleep(0.005)
    by_name = {}
    for record in spans.records:
        by_name.setdefault(record["name"], []).append(record)
    root, = by_name["workload"]
    the_pass, = by_name["pass"]
    assert root["parent"] is None and the_pass["parent"] == root["id"]
    assert [u["parent"] for u in by_name["unit"]] == [the_pass["id"]] * 2
    self_times = spans.self_times()
    duration = {r["id"]: r["t1"] - r["t0"] for r in spans.records}
    units = sum(duration[u["id"]] for u in by_name["unit"])
    assert self_times[the_pass["id"]] == pytest.approx(
        duration[the_pass["id"]] - units)
    assert self_times[root["id"]] == pytest.approx(
        duration[root["id"]] - duration[the_pass["id"]])
    assert sum(self_times.values()) == pytest.approx(duration[root["id"]])


def test_disabled_spans_record_nothing():
    spans = Spans(enabled=False)
    with spans.span("workload"):
        pass
    assert spans.records == []


# -- traced run hygiene and --compare ---------------------------------------------


def test_traced_run_leaves_no_profiler_installed():
    report = bench.run_workload("dense_grid", seed=3, seconds=1.0,
                                trace=True, smoke=True)
    assert sys.getprofile() is None
    assert report["correct"], report["errors"]
    assert report["values"]["phy.self_s"] > 0
    assert not list(bench.OUT.glob("dense_grid-*"))  # work dir removed


TIGHT = [2.00, 2.02, 1.98, 2.01]
NOISY = [1.5, 2.0, 2.5, 3.0]  # passes spread wider than the 25 % bound


def scaled(walls, factor):
    return [w * factor for w in walls]


def report_with(walls, failed_share=0.0, setup_s=0.30):
    units = 18
    return {"workloads": {"paper_figures": {"untraced": {
        "values": {"wall_s": bench.sampled(walls),
                   "units_per_s": bench.sampled([units / w for w in walls]),
                   "peak_rss_mb": {"value": 100.0},
                   "setup_s": {"value": setup_s}},
        "context": {"failed_share": failed_share},
        "result_digest": "d",
    }}}}


def run_compare(tmp_path, capsys, a, b):
    """Exit status of ``--compare`` and its verdict per metric."""
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    path_a.write_text(json.dumps(a))
    path_b.write_text(json.dumps(b))
    status = bench.compare(path_a, path_b)
    rows = [line.split() for line in capsys.readouterr().out.splitlines()
            if line.startswith("paper_figures") and "result_digest" not in line]
    return status, {row[1]: row[-1] for row in rows}


@pytest.mark.parametrize("a, b, status, verdict", [
    (TIGHT, TIGHT, 0, "ok"),
    (TIGHT, scaled(TIGHT, 1.15), 0, "ok"),  # within the 25 % bound
    (TIGHT, scaled(TIGHT, 1.40), 1, "REGRESSION"),
    # Noise wider than the bound and overlapping passes decide nothing,
    # whether the median reads worse than the bound, inside it, or better.
    (NOISY, scaled(NOISY, 1.40), 0, "unresolved"),
    (NOISY, scaled(NOISY, 1.05), 0, "unresolved"),
    (NOISY, scaled(NOISY, 0.90), 0, "unresolved"),
    # ... unless every pass of one side beats every pass of the other.
    (NOISY, scaled(NOISY, 0.30), 0, "ok"),
    (NOISY, scaled(NOISY, 3.00), 1, "REGRESSION"),
])
def test_compare_verdicts(tmp_path, capsys, a, b, status, verdict):
    got, verdicts = run_compare(tmp_path, capsys, report_with(a), report_with(b))
    assert got == status
    assert verdicts["wall_s"] == verdicts["units_per_s"] == verdict
    assert verdicts["peak_rss_mb"] == verdicts["setup_s"] == "ok"


def test_compare_fails_on_any_rise_of_failed_share(tmp_path, capsys):
    status, verdicts = run_compare(
        tmp_path, capsys, report_with(TIGHT),
        report_with(TIGHT, failed_share=0.1))
    assert status == 1 and verdicts["failed_share"] == "REGRESSION"
    assert verdicts["wall_s"] == "ok"


def test_compare_allows_setup_jitter_below_the_floor(tmp_path, capsys):
    # +40 ms on a 100 ms base is 40 %, but under the 50 ms floor; +80 ms is not.
    for setup_s, status, verdict in ((0.14, 0, "ok"), (0.18, 1, "REGRESSION")):
        got, verdicts = run_compare(
            tmp_path, capsys, report_with(TIGHT, setup_s=0.10),
            report_with(TIGHT, setup_s=setup_s))
        assert (got, verdicts["setup_s"]) == (status, verdict)


def test_exact_counts_skip_the_coordinator_loop_on_campaign_cold():
    a = {"values": {"sim.events": 10, "exp.campaign.calls": 500,
                    "exp.cachestore.calls": 70, "sim.self_s": 1.0}}
    b = {"values": {"sim.events": 11, "exp.campaign.calls": 520,
                    "exp.cachestore.calls": 71, "sim.self_s": 2.0}}
    assert bench.exact_counts_moved("campaign_cold", a, b) == [
        "exp.cachestore.calls", "sim.events"]
    assert bench.exact_counts_moved("paper_figures", a, b) == [
        "exp.cachestore.calls", "exp.campaign.calls", "sim.events"]
