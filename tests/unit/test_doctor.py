"""``repro-muzha doctor``: diagnosis and repair of every artifact the
package writes — orphaned tmp files, corrupt cache envelopes, journal
damage and drift, and traces and manifests held to what a finished run
writes."""

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.experiments import (
    CampaignCache,
    CampaignJournal,
    ScenarioConfig,
    chain_grid,
    diagnose_cache,
    diagnose_journal,
    run_campaign,
    run_doctor,
)
from repro.experiments.doctor import format_report


def tiny_grid():
    config = ScenarioConfig(sim_time=0.5, window=4)
    return chain_grid(["newreno"], [2], config=config)


@pytest.fixture
def campaign_state(tmp_path):
    """A completed journaled campaign: (cache, journal path, result)."""
    cache = CampaignCache(tmp_path / "cache")
    journal_path = tmp_path / "run.journal"
    with CampaignJournal(journal_path) as journal:
        result = run_campaign(tiny_grid(), replications=2, jobs=1,
                              cache=cache, journal=journal)
    assert result.complete
    return cache, journal_path, result


# ---------------------------------------------------------------------------
# Cache diagnosis


def test_healthy_state_has_no_findings(campaign_state):
    cache, journal_path, _ = campaign_state
    report = run_doctor(cache=cache.root, journal=journal_path)
    assert report.healthy
    assert report.findings == []
    assert "healthy" in format_report(report)


def test_orphan_tmp_files_are_found_and_repaired(campaign_state):
    cache, _, _ = campaign_state
    shard = next(cache.root.glob("*/"))
    hidden = shard / ".deadbeef.1234.tmp"
    legacy = shard / "deadbeef.tmp"
    hidden.write_text("partial")
    legacy.write_text("partial")

    findings = diagnose_cache(cache.root)
    assert sorted(f.category for f in findings) == ["orphan-tmp", "orphan-tmp"]
    assert all(f.severity == "warn" for f in findings)
    assert hidden.exists() and legacy.exists()  # report mode never mutates

    repaired = diagnose_cache(cache.root, repair=True)
    assert all(f.repaired for f in repaired)
    assert not hidden.exists() and not legacy.exists()


def test_corrupt_envelopes_are_errors_and_repair_deletes_them(campaign_state):
    cache, _, _ = campaign_state
    entries = sorted(cache.root.glob("*/*.json"))
    entries[0].write_text("")  # zero-length
    payload = json.loads(entries[1].read_text())
    payload["result"]["mac_drops"] += 1  # checksum now wrong
    entries[1].write_text(json.dumps(payload))

    findings = diagnose_cache(cache.root)
    assert sorted(f.category for f in findings) == ["corrupt-envelope"] * 2
    assert all(f.severity == "error" for f in findings)
    assert not run_doctor(cache=cache.root).healthy

    report = run_doctor(cache=cache.root, repair=True)
    assert report.healthy  # repaired errors no longer count
    assert not entries[0].exists() and not entries[1].exists()


def test_missing_cache_directory_is_an_error(tmp_path):
    findings = diagnose_cache(tmp_path / "nope")
    assert [f.category for f in findings] == ["cache-missing"]


# ---------------------------------------------------------------------------
# Journal diagnosis


def test_torn_journal_tail_is_truncated_by_repair(campaign_state):
    cache, journal_path, _ = campaign_state
    intact = journal_path.read_text()
    journal_path.write_text(intact + '{"kind": "done", "ind')

    findings = diagnose_journal(journal_path, cache=cache.root)
    assert "journal-torn-tail" in [f.category for f in findings]

    diagnose_journal(journal_path, cache=cache.root, repair=True)
    assert journal_path.read_text() == intact  # cut back to the last line
    assert diagnose_journal(journal_path, cache=cache.root) == []


def test_journal_cache_drift_is_reported_and_repair_clears_it(campaign_state):
    cache, journal_path, _ = campaign_state
    entries = sorted(cache.root.glob("*/*.json"))
    # Entry content changes but stays internally consistent: cache.get would
    # serve it happily, only the journal knows it is not the recorded result.
    payload = json.loads(entries[0].read_text())
    payload["result"]["mac_drops"] += 1
    from repro.experiments.cachestore import _envelope_checksum
    payload["checksum"] = _envelope_checksum(
        payload["result"], payload.get("manifest")
    )
    entries[0].write_text(json.dumps(payload, sort_keys=True))
    entries[1].unlink()  # and one entry simply vanished

    findings = diagnose_journal(journal_path, cache=cache.root)
    drift = [f for f in findings if f.category == "journal-drift"]
    assert len(drift) == 2
    assert all(f.severity == "warn" for f in drift)
    assert all("re-executes on resume" in f.detail for f in drift)

    diagnose_journal(journal_path, cache=cache.root, repair=True)
    assert not entries[0].exists()  # drifted entry removed for a clean re-run


def test_interrupted_journal_is_informational(tmp_path, campaign_state):
    cache, _, _ = campaign_state
    path = tmp_path / "int.journal"
    from repro.experiments import plan_campaign
    runs = plan_campaign(tiny_grid(), replications=2, base_seed=1)
    with CampaignJournal(path) as journal:
        journal.begin(runs, pool_mode="warm", base_seed=1, replications=2,
                      resumed=False)  # killed before any done/end record
    findings = diagnose_journal(path)
    assert [f.category for f in findings] == ["journal-interrupted"]
    assert findings[0].severity == "info"
    assert run_doctor(journal=path).healthy


def test_missing_journal_is_an_error(tmp_path):
    findings = diagnose_journal(tmp_path / "nope.journal")
    assert [f.category for f in findings] == ["journal-missing"]


# ---------------------------------------------------------------------------
# CLI surface


def test_doctor_cli_reports_and_exits_by_health(campaign_state, capsys):
    cache, journal_path, _ = campaign_state
    assert cli_main(["doctor", "--cache", str(cache.root),
                     "--journal", str(journal_path)]) == 0
    assert "healthy" in capsys.readouterr().out

    next(cache.root.glob("*/*.json")).write_text("")
    assert cli_main(["doctor", "--cache", str(cache.root), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["healthy"] is False
    assert payload["findings"][0]["category"] == "corrupt-envelope"

    assert cli_main(["doctor", "--cache", str(cache.root), "--repair"]) == 0


def test_doctor_cli_requires_a_target():
    with pytest.raises(SystemExit):
        cli_main(["doctor"])


# ---------------------------------------------------------------------------
# Traces and manifests: what one finished run wrote


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced") / "trace.ndjson"
    assert cli_main(["trace", "chain", "--hops", "4", "--time", "1",
                     "--out", str(out)]) == 0
    return out, Path(f"{out}.manifest.json")


def test_a_traced_run_is_healthy_and_each_damage_is_its_error(
        traced_run, tmp_path, capsys):
    trace, manifest = traced_run
    capsys.readouterr()
    assert cli_main(["doctor", "--trace", str(trace),
                     "--manifest", str(manifest)]) == 0
    assert capsys.readouterr().out == (
        "doctor: no findings — the artifacts are healthy\n")

    text = trace.read_bytes()
    cut = tmp_path / "cut.ndjson"
    cut.write_bytes(text[:-10])  # the run died mid-line
    blank = tmp_path / "blank.ndjson"
    blank.write_bytes(b"")  # the run died before its first record
    edited = tmp_path / "edited.json"
    payload = json.loads(manifest.read_text())
    payload["config"]["sim_time"] = 99.0
    edited.write_text(json.dumps(payload))
    journal = tmp_path / "run.journal"
    journal.write_text(
        '{"kind":"begin","t":1.0,"schema":2,"total":0,"base_seed":1,'
        '"replications":1,"pool_mode":"warm","plan_digest":"x",'
        '"resumed":false,"host":"h"}\n')  # no such field in journal_record
    for flag, path, category, detail in [
        ("--trace", cut, "trace-invalid",
         f"line {len(text.splitlines())}: truncated final line"),
        ("--trace", blank, "trace-invalid",
         "line 0: empty NDJSON file (no records)"),
        ("--manifest", edited, "manifest-invalid",
         "embedded config/spec digests do not match their payloads"),
        ("--journal", journal, "journal-schema",
         "line 1: $: unexpected property 'host'"),
    ]:
        assert cli_main(["doctor", flag, str(path)]) == 1
        out = capsys.readouterr().out
        assert f"[error] {category}: {path}\n    {detail}" in out
        assert out.endswith("1 unrepaired error(s)\n")
