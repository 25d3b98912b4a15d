"""Properties of the one NDJSON reader (``repro.obs.ndjson.scan``): it is a
trust boundary — trace files and journals come back from disks
that filled up, coordinators that were killed and other machines — so
nothing a file can contain may raise, and what a killed writer leaves (any
byte prefix of a valid log) reads as a prefix of what it wrote.
"""

import os
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from repro.experiments import (
    CampaignCache,
    CampaignJournal,
    JournalError,
    ScenarioConfig,
    aggregate_campaign_log,
    chain_grid,
    diagnose_journal,
    plan_campaign,
    replay_journal,
    run_campaign,
    run_doctor,
)
from repro.experiments.journal import Attempt
from repro.experiments.report import CampaignLogError
from repro.obs.ndjson import encode_line, scan

#: The journal an earlier build wrote (``README.md`` there).
EARLIER = Path(__file__).resolve().parents[1] / "data" / "earlier_build"

scalars = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text()
)
trees = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)
records = st.dictionaries(st.text(), trees, max_size=4)


def check_scan_invariants(log):
    linenos = [lineno for lineno, _, _ in log.entries]
    assert linenos == sorted(set(linenos)) and all(n >= 1 for n in linenos)
    for _, record, error in log.entries:
        assert (isinstance(record, dict) and error is None) or (
            record is None and isinstance(error, str))


@given(data=st.binary(max_size=200))
@example(data=b"[" * 100_000 + b"\n")  # deeper than the recursion limit
@example(data=b"1" * 5000 + b"\n")  # longer than int() will parse
@example(data=b'{"a":"\xff"}\n\x00\n\xed\xa0\x80\n{"b":1}\r\n{"c"')
def test_scan_of_arbitrary_bytes_never_raises(data):
    log = scan(data)
    check_scan_invariants(log)
    assert log.truncated_tail == (bool(data) and not data.endswith(b"\n"))
    if log.blank:
        assert log.complete().entries == []
    assert scan(data.decode("utf-8", "surrogateescape")) == log


@given(data=st.binary(max_size=200))
def test_scan_of_a_file_is_the_scan_of_its_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("ndjson") / "log.ndjson"
    path.write_bytes(data)
    log = scan(path)
    check_scan_invariants(log)
    if b"\r" not in data:  # a file read translates \r and \r\n to \n
        assert log._replace(path="<text>") == scan(data)


@given(written=st.lists(records, max_size=6))
@example(written=[{"é ": -0.0, "big": 2 ** 200, "s": "\ud800\n "}])
def test_what_encode_line_writes_scan_reads_back(written):
    text = "".join(encode_line(record) for record in written)
    log = scan(text)
    assert [record for _, record, _ in log.entries] == written
    assert log.records() == written
    assert not log.truncated_tail and log.blank == (not written)
    assert scan(text.encode("ascii")) == log  # the writers emit ASCII only


@given(written=st.lists(records, min_size=1, max_size=4), data=st.data())
def test_a_byte_prefix_reads_as_a_prefix_of_the_records(written, data):
    """The crash-point property on arbitrary records, one cut per example
    (the exhaustive walk over real logs is below)."""
    blob = "".join(encode_line(record) for record in written).encode("ascii")
    cut = data.draw(st.integers(0, len(blob)))
    check_prefix(blob[:cut], written)


def check_prefix(prefix, written):
    log = scan(prefix)
    check_scan_invariants(log)
    assert log.truncated_tail == (bool(prefix) and not prefix.endswith(b"\n"))
    committed = prefix.count(b"\n")
    assert log.complete().records() == written[:committed]
    if log.truncated_tail:  # the tail is an error entry, never a record
        assert log.entries[-1][:2] == (committed + 1, None)


# ---------------------------------------------------------------------------
# Every crash point of a real journal


def journal_bytes(path):
    config = ScenarioConfig(sim_time=0.5, window=4)
    runs = plan_campaign(chain_grid(["newreno"], [2, 3], config=config),
                         replications=2, base_seed=7)
    with CampaignJournal(path) as journal:
        journal.begin(runs, pool_mode="inproc", base_seed=7, replications=2,
                      resumed=False, jobs=1)
        journal.event("worker.spawn", worker="w1", pid=101,
                      replacement=False)
        journal.done(runs[0], "digest-0", cached=False,
                     attempt=Attempt("w1", 1, 1.0, 2.0),
                     timings={"sim_s": 0.5})
        journal.retry(runs[1], Attempt("w1", 1, 2.0, 3.0), "error", "boom",
                      0.25)
        journal.failed(runs[1], "boom", attempts=2,
                       attempt=Attempt("w1", 2, 3.25, 4.0), status="error")
        journal.event("worker.stop", worker="w1", exitcode=0)
        journal.end(status="interrupted", fingerprint=None, executed=1,
                    cache_hits=0, quarantined=1, remaining=2,
                    signal="SIGTERM")
    with CampaignJournal(path, resume=True) as journal:
        journal.begin(runs, pool_mode="warm", base_seed=7, replications=2,
                      resumed=True, jobs=2)
        journal.done(runs[1], "digest-1", cached=True)
    return path.read_bytes()


def test_every_crash_point_of_a_journal_replays_or_says_why(tmp_path):
    blob = journal_bytes(tmp_path / "whole.journal")
    written = scan(blob).records()
    assert len(written) >= 9
    path = tmp_path / "cut.journal"
    for cut in range(len(blob) + 1):
        prefix = blob[:cut]
        check_prefix(prefix, written)
        path.write_bytes(prefix)
        committed = prefix.count(b"\n")
        if committed == 0:  # not even the begin record made it
            with pytest.raises(JournalError, match="holds no records"):
                replay_journal(path)
            continue
        replay = replay_journal(path)
        assert replay.truncated_tail == (not prefix.endswith(b"\n"))
        dones = [r for r in written[:committed] if r["kind"] == "done"]
        assert sorted(replay.completed) == sorted(r["index"] for r in dones)
        summary = aggregate_campaign_log(path)
        assert summary["campaign"]["generation"] == replay.generations


def test_every_crash_point_of_a_journal_resumes_twice_and_stays_healthy(
        tmp_path, monkeypatch):
    """Kill the coordinator at any byte, resume, resume again, ask the
    doctor.  Before ``CampaignJournal(resume=True)`` cut the torn tail, the
    first resume welded its ``begin`` onto it and the second one (and
    ``doctor``) died on ``invalid JSON``; a kill between two ``planned``
    records left a plan no resume completed, so every later ``done`` was
    for an unplanned unit; and a kill anywhere before ``end`` left the
    generation ``doctor`` called unended forever."""
    monkeypatch.setattr(os, "fsync", lambda fd: None)  # ~2500 resumes
    grid = chain_grid(["newreno"], [2],
                      config=ScenarioConfig(sim_time=0.5, window=4))
    cache = CampaignCache(tmp_path / "cache")

    def campaign(path, resume=None):
        with CampaignJournal(path, resume=resume is not None) as journal:
            return run_campaign(grid, replications=2, base_seed=7, jobs=1,
                                cache=cache, journal=journal, resume=resume)

    reference = campaign(tmp_path / "whole.journal").fingerprint()
    blob = (tmp_path / "whole.journal").read_bytes()
    path = tmp_path / "cut.journal"
    for cut in range(len(blob) + 1):
        path.write_bytes(blob[:cut])
        if blob[:cut].count(b"\n") == 0:
            continue  # no begin record: "holds no records", asserted above
        for generations in (2, 3):
            replay = replay_journal(path)
            assert replay.violations == []
            result = campaign(path, resume=replay)
            assert result.executed == 0  # the cache has it all
        assert result.fingerprint() == reference
        final = replay_journal(path)
        assert (final.generations, final.remaining) == (generations, 0)
        assert not final.interrupted and not final.truncated_tail
        assert sorted(final.planned) == [0, 1]
        assert diagnose_journal(path) == []
    assert run_doctor(cache=cache.root, journal=path).findings == []


def test_every_crash_point_of_the_earlier_journal_aggregates_or_says_why(
        tmp_path):
    """``report`` reads the journal an earlier build wrote, cut anywhere:
    a summary of the completions before the cut, partial until its ``end``
    record is whole."""
    blob = (EARLIER / "campaign.journal").read_bytes()
    written = scan(blob).records()
    assert len(written) >= 9
    path = tmp_path / "cut.journal"
    for cut in range(len(blob) + 1):
        prefix = blob[:cut]
        check_prefix(prefix, written)
        path.write_bytes(prefix)
        committed = prefix.count(b"\n")
        if committed == 0:  # not even the begin record made it
            with pytest.raises(CampaignLogError, match="holds no records"):
                aggregate_campaign_log(path)
            continue
        summary = aggregate_campaign_log(path)
        assert summary["campaign"]["partial"] == (committed < len(written))
        assert summary["units"]["ok"] == sum(
            record["kind"] == "done" for record in written[:committed])
