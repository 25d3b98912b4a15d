"""The campaign write-ahead journal: write/replay round-trips, fsync
batching, plan-mismatch detection, torn-tail tolerance, and the committed
``journal_record`` schema."""

import json
import os

import pytest

from repro.experiments import (
    CampaignJournal,
    JournalError,
    JournalPlanMismatch,
    ScenarioConfig,
    chain_grid,
    diagnose_journal,
    plan_campaign,
    plan_digest,
    read_journal,
    replay_journal,
)
from repro.experiments.journal import (
    _JOURNAL_KIND_OPTIONAL,
    _JOURNAL_KIND_REQUIRED,
)


def complaints(path, category=None):
    """What ``doctor --journal`` objects to (its error and warn findings),
    as ``category: detail`` — only ``category``'s details when given."""
    return [f.detail if category else f"{f.category}: {f.detail}"
            for f in diagnose_journal(path)
            if f.severity != "info" and category in (None, f.category)]


def tiny_runs(n_scenarios=2, replications=2, base_seed=7):
    config = ScenarioConfig(sim_time=0.5, window=4)
    grid = chain_grid(["newreno"], [2, 3][:n_scenarios], config=config)
    return plan_campaign(grid, replications=replications, base_seed=base_seed)


def write_generation(path, runs, done_indices, status="interrupted",
                     resumed=False):
    with CampaignJournal(path, resume=resumed) as journal:
        journal.begin(runs, pool_mode="inproc", base_seed=7,
                      replications=2, resumed=resumed)
        for run in runs:
            if run.index in done_indices:
                journal.done(run, f"digest-{run.index}", cached=False)
        journal.end(
            status=status, fingerprint=None,
            executed=len(done_indices), cache_hits=0, quarantined=0,
            remaining=len(runs) - len(done_indices),
        )
    return path


# ---------------------------------------------------------------------------
# Round-trips


def test_write_then_replay_round_trip(tmp_path):
    runs = tiny_runs()
    path = write_generation(tmp_path / "run.journal", runs, {0, 2})

    replay = replay_journal(path)
    assert replay.total == len(runs)
    assert replay.plan_digest == plan_digest(runs)
    assert replay.completed == {0: "digest-0", 2: "digest-2"}
    assert replay.failed == {}
    assert replay.remaining == 2
    assert replay.generations == 1
    assert replay.interrupted  # end status was "interrupted"
    assert not replay.truncated_tail
    assert sorted(replay.planned) == [r.index for r in runs]
    assert complaints(path) == []


def test_done_clears_an_earlier_failure_across_generations(tmp_path):
    runs = tiny_runs()
    path = tmp_path / "run.journal"
    with CampaignJournal(path) as journal:
        journal.begin(runs, pool_mode="warm", base_seed=7,
                      replications=2, resumed=False)
        journal.failed(runs[1], "worker crashed (exit code 9)", attempts=3)
        journal.end(status="partial", fingerprint="abc", executed=0,
                    cache_hits=0, quarantined=1, remaining=3)
    with CampaignJournal(path, resume=True) as journal:
        journal.begin(runs, pool_mode="warm", base_seed=7,
                      replications=2, resumed=True)
        journal.done(runs[1], "digest-1", cached=False)
        journal.end(status="ok", fingerprint="def", executed=1,
                    cache_hits=3, quarantined=0, remaining=0)

    replay = replay_journal(path)
    assert replay.generations == 2
    assert 1 in replay.completed
    assert replay.failed == {}
    assert not replay.interrupted
    assert replay.last_end["fingerprint"] == "def"
    assert complaints(path) == []


def test_a_cluster_journal_gets_a_verdict_and_resumes_on_the_local_pool(
        tmp_path, monkeypatch, capsys):
    """A journal an earlier build's ``cluster`` generation left behind —
    ``pool_mode: "cluster"`` and the coordinator's ``transport`` endpoint
    in its ``begin`` — is an interrupted campaign like any other: doctor
    says so without dialing the endpoint, and ``--resume`` finishes it on
    the local pool with the fingerprint of a fresh run."""
    import socket

    from repro.cli import main
    from repro.experiments import CampaignCache

    campaign = ["campaign", "--variants", "newreno", "--hops", "2",
                "--replications", "3", "--time", "0.5", "--window", "4",
                "--jobs", "2", "--quiet", "--cache-dir", str(tmp_path)]
    fresh = tmp_path / "fresh.journal"
    assert main(campaign + ["--journal", str(fresh)]) == 0
    records, _ = read_journal(fresh)
    fingerprint = records[-1]["fingerprint"]

    # The cluster generation: the same plan, one unit done, then killed.
    begin, *planned = [r for r in records if r["kind"] in ("begin", "planned")]
    first, *rest = [r for r in records if r["kind"] == "done"]
    begin.update(pool_mode="cluster",
                 transport={"kind": "tcp", "endpoint": "127.0.0.1:9"})
    path = tmp_path / "cluster.journal"
    path.write_text("".join(json.dumps(record) + "\n"
                            for record in (begin, *planned, first)))
    for record in rest:  # executed by the killed generation's agents: gone
        CampaignCache(tmp_path)._path(record["digest"]).unlink()

    def dial(*args, **kwargs):
        raise AssertionError(f"dialed {args[0]!r}")

    monkeypatch.setattr(socket, "create_connection", dial)
    capsys.readouterr()
    assert main(["doctor", "--journal", str(path), "--json"]) == 0
    findings = json.loads(capsys.readouterr().out)["findings"]
    assert [f["category"] for f in findings] == ["journal-interrupted"]
    assert not hasattr(replay_journal(path), "transport")

    assert main(campaign + ["--resume", str(path)]) == 0
    out = capsys.readouterr().out
    assert "2 simulated, 1 cache hits" in out
    assert f"campaign fingerprint: {fingerprint}" in out


def test_doctor_and_report_read_a_journal_once(tmp_path, monkeypatch):
    """The torn-tail flag and the records come from one scan, so
    diagnosing or reporting a journal opens the file exactly once."""
    from pathlib import Path

    from repro.experiments import aggregate_campaign_log

    path = write_generation(tmp_path / "run.journal", tiny_runs(), {0})
    with CampaignJournal(path, resume=True) as journal:
        journal.begin(tiny_runs(), pool_mode="warm", base_seed=7,
                      replications=2, resumed=True)
    reads = []
    real_read_text = Path.read_text
    monkeypatch.setattr(
        Path, "read_text",
        lambda self, *a, **kw: reads.append(self) or real_read_text(self, *a, **kw),
    )
    categories = [f.category for f in diagnose_journal(path)]
    assert categories == ["journal-interrupted"]
    assert [read for read in reads if read == path] == [path]

    with path.open("a") as stream:
        stream.write('{"kind":"do')
    assert aggregate_campaign_log(path)["campaign"]["partial"] is True
    assert [read for read in reads if read == path] == [path, path]


@pytest.mark.parametrize("body, categories", [
    ("", ["journal-schema", "journal-corrupt"]),
    ("\n  ", ["journal-torn-tail", "journal-schema", "journal-corrupt"]),
    ('{"kind":"beg', ["journal-torn-tail", "journal-corrupt"]),
])
def test_doctor_on_a_scan_reports_what_it_reported_reading_the_file_thrice(
        tmp_path, body, categories):
    """Blank and torn-only journals: the single scan keeps the empty-NDJSON
    schema finding apart from a dropped partial line."""

    path = tmp_path / "run.journal"
    path.write_text(body)
    findings = diagnose_journal(path)
    assert [f.category for f in findings] == categories
    if "journal-schema" in categories:
        schema = [f for f in findings if f.category == "journal-schema"]
        assert [f.detail for f in schema] == [
            "line 0: empty NDJSON file (no records)"]


def test_journal_with_no_end_record_reads_as_interrupted(tmp_path):
    from repro.experiments import CampaignCache, run_campaign

    runs = tiny_runs()
    path = tmp_path / "run.journal"
    with CampaignJournal(path) as journal:
        journal.begin(runs, pool_mode="per-attempt", base_seed=7,
                      replications=2, resumed=False)
        journal.done(runs[0], "digest-0", cached=False)
    replay = replay_journal(path)
    assert replay.interrupted
    assert replay.last_end is None
    assert replay.completed == {0: "digest-0"}

    # Earlier builds wrote per-attempt journals; this one resumes them.
    grid = chain_grid(["newreno"], [2, 3],
                      config=ScenarioConfig(sim_time=0.5, window=4))
    with CampaignJournal(path, resume=True) as journal:
        result = run_campaign(grid, replications=2, base_seed=7, jobs=1,
                              cache=CampaignCache(tmp_path / "cache"),
                              journal=journal, resume=replay)
    assert result.complete
    assert result.executed == 4  # unit 0's journaled result is in no cache
    final = replay_journal(path)
    assert (final.generations, final.interrupted) == (2, False)
    assert complaints(path) == []
    assert diagnose_journal(path) == []


# ---------------------------------------------------------------------------
# Durability mechanics


def test_fsync_batching_syncs_every_n_records_and_at_checkpoints(
    tmp_path, monkeypatch
):
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))

    runs = tiny_runs()
    journal = CampaignJournal(tmp_path / "run.journal", fsync_every=2)
    journal.write({"kind": "done", "t": 0.0, "index": 0, "digest": "d",
                   "result_digest": "r", "cached": False})
    assert synced == []  # below the batch threshold
    journal.write({"kind": "done", "t": 0.0, "index": 1, "digest": "d",
                   "result_digest": "r", "cached": False})
    assert len(synced) == 1  # batch threshold reached
    journal.checkpoint()
    assert len(synced) == 2  # explicit checkpoint always syncs
    journal.close()


def test_begin_is_checkpointed_before_any_dispatch(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
    runs = tiny_runs()
    with CampaignJournal(tmp_path / "run.journal", fsync_every=10_000) as j:
        j.begin(runs, pool_mode="warm", base_seed=7, replications=2,
                resumed=False)
        assert synced  # the write-ahead step is durable immediately


def test_fresh_journal_refuses_an_existing_nonempty_file(tmp_path):
    path = tmp_path / "run.journal"
    write_generation(path, tiny_runs(), {0})
    with pytest.raises(JournalError, match="already exists"):
        CampaignJournal(path)
    # resume=True appends instead
    journal = CampaignJournal(path, resume=True)
    journal.close()


def test_fsync_every_validation(tmp_path):
    with pytest.raises(ValueError, match="fsync_every"):
        CampaignJournal(tmp_path / "run.journal", fsync_every=0)


# ---------------------------------------------------------------------------
# Damage tolerance


def test_torn_final_line_is_tolerated_and_reported(tmp_path):
    runs = tiny_runs()
    path = write_generation(tmp_path / "run.journal", runs, {0, 1})
    text = path.read_text()
    path.write_text(text + '{"kind": "done", "index": 3, "resu')  # no \n

    records, truncated = read_journal(path)
    assert truncated
    assert all(r.get("index") != 3 or r["kind"] == "planned" for r in records)

    replay = replay_journal(path)
    assert replay.truncated_tail
    assert 3 not in replay.completed  # the torn record never happened
    assert [f.category for f in diagnose_journal(path)
            if f.severity != "info"] == ["journal-torn-tail"]


def test_midfile_corruption_is_fatal(tmp_path):
    path = write_generation(tmp_path / "run.journal", tiny_runs(), {0})
    lines = path.read_text().splitlines()
    lines[2] = '{"kind": broken'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(JournalError, match="line 3"):
        read_journal(path)


def test_missing_journal_is_a_journal_error(tmp_path):
    with pytest.raises(JournalError, match="not found"):
        replay_journal(tmp_path / "nope.journal")


def test_journal_must_start_with_begin(tmp_path):
    path = tmp_path / "bad.journal"
    path.write_text('{"kind": "done", "index": 0}\n')
    with pytest.raises(JournalError, match="begin"):
        replay_journal(path)
    assert any("begin" in err
               for err in complaints(path, "journal-corrupt"))


def test_wrong_schema_version_is_rejected(tmp_path):
    path = write_generation(tmp_path / "run.journal", tiny_runs(), set())
    records = [json.loads(l) for l in path.read_text().splitlines()]
    records[0]["schema"] = 999
    path.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    )
    with pytest.raises(JournalError, match="schema"):
        replay_journal(path)


# ---------------------------------------------------------------------------
# Plan verification


def test_verify_plan_accepts_the_same_campaign(tmp_path):
    runs = tiny_runs()
    path = write_generation(tmp_path / "run.journal", runs, {0})
    replay_journal(path).verify_plan(tiny_runs())  # fresh, equal expansion


def test_verify_plan_rejects_a_different_seed(tmp_path):
    runs = tiny_runs(base_seed=7)
    path = write_generation(tmp_path / "run.journal", runs, {0})
    with pytest.raises(JournalPlanMismatch, match="different campaign"):
        replay_journal(path).verify_plan(tiny_runs(base_seed=8))


def test_verify_plan_rejects_a_different_size(tmp_path):
    runs = tiny_runs(replications=2)
    path = write_generation(tmp_path / "run.journal", runs, {0})
    with pytest.raises(JournalPlanMismatch, match="units"):
        replay_journal(path).verify_plan(tiny_runs(replications=3))


# ---------------------------------------------------------------------------
# Schema validator structure checks


def test_validator_flags_done_for_unplanned_unit(tmp_path):
    path = write_generation(tmp_path / "run.journal", tiny_runs(), set())
    with CampaignJournal(path, resume=True) as journal:
        journal.write({"kind": "done", "t": 0.0, "index": 999,
                       "digest": "d", "result_digest": "r", "cached": False})
    assert any("unplanned" in err
               for err in complaints(path, "journal-schema"))
    # ... and replay, the same walk, reports it too and does not count it
    # (it used to: 5 completions of 4 units, remaining == -1).
    replay = replay_journal(path)
    assert [(lineno, fatal) for lineno, _, fatal in replay.violations] == [
        (7, False)]
    assert 999 not in replay.completed and replay.remaining == 4
    finding, interrupted = diagnose_journal(path)
    assert finding.category == "journal-schema" and "unplanned" in finding.detail
    assert interrupted.category == "journal-interrupted"
    assert "4 of 4 units remaining" in interrupted.detail


def test_validator_flags_unknown_fields_and_kinds(tmp_path):
    path = tmp_path / "bad.journal"
    path.write_text(
        '{"kind": "begin", "t": 0, "schema": 1, "total": 1, "base_seed": 1, '
        '"replications": 1, "pool_mode": "warm", "plan_digest": "x", '
        '"resumed": false, "bogus": 1}\n'
        '{"kind": "vibes"}\n'
    )
    errors = complaints(path)
    assert any("bogus" in err for err in errors)
    assert any("vibes" in err for err in errors)


def test_validator_flags_mixed_campaigns(tmp_path):
    runs = tiny_runs()
    path = write_generation(tmp_path / "run.journal", runs, set())
    with CampaignJournal(path, resume=True) as journal:
        journal.begin(tiny_runs(base_seed=99), pool_mode="warm", base_seed=99,
                      replications=2, resumed=True)
    assert any("plan_digest" in err
               for err in complaints(path, "journal-corrupt"))
    with pytest.raises(JournalError, match="mixes campaigns"):
        replay_journal(path)


@pytest.mark.parametrize("schema_name, table, optional", [
    ("journal_record", _JOURNAL_KIND_REQUIRED, {"transport"}),
])
def test_per_kind_tables_and_committed_schemas_describe_the_same_records(
        schema_name, table, optional):
    """The fold's per-kind tables (what a kind requires, and what it may
    carry besides) say what the (necessarily permissive) schema cannot;
    they must not drift apart on what they both say."""
    from repro.obs.schema import load_schema

    schema = load_schema(schema_name)
    properties = schema["properties"]
    assert list(table) == properties["kind"]["enum"]
    assert set(_JOURNAL_KIND_OPTIONAL) <= set(table)
    json_types = {(int, float): {"number"}, (int,): {"integer"},
                  (str,): {"string"}, (bool,): {"boolean"},
                  (dict,): {"object"}, (str, type(None)): {"string", "null"},
                  (int, type(None)): {"integer", "null"}}
    named = set()
    for kind, fields in [*table.items(), *_JOURNAL_KIND_OPTIONAL.items()]:
        for name, types in fields.items():
            assert name in properties, f"{kind}.{name} is not in the schema"
            named.add(name)
            declared = properties[name]["type"]
            assert json_types[types] == (
                {declared} if isinstance(declared, str) else set(declared)
            ), f"{kind}.{name}"
    # Nothing in the schema is required of no kind, bar the optional ones.
    assert set(properties) - named == {"kind", *optional}
