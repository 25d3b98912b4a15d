"""One fold, three views: ``replay_journal`` (``campaign --resume``),
``doctor --journal`` and the CLI resume itself read a journal through
``journal.fold_journal``, so on any journal they end
the same way — accepted, or refused with a ``JournalError`` / a finding —
and never in another exception.  The journals are one mutation away from a
real one: what a bad disk, a hand edit or a killed coordinator produces.
"""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.cli import main as cli_main
from repro.experiments import JournalError, diagnose_journal, replay_journal
from repro.experiments.journal import (
    _JOURNAL_KIND_OPTIONAL,
    _JOURNAL_KIND_REQUIRED,
)

CAMPAIGN = ["campaign", "--hops", "2", "--variants", "newreno",
            "--replications", "2", "--time", "0.5", "--jobs", "1",
            "--quiet"]

#: The kinds of the real journal's lines, which the explicit examples below
#: address by position.
LAYOUT = ["begin", "planned", "planned", "event", "done", "done", "event",
          "end", "begin", "done", "done", "event", "end"]

FIELDS = sorted({"kind", *(name for table in (_JOURNAL_KIND_REQUIRED,
                                              _JOURNAL_KIND_OPTIONAL)
                           for fields in table.values() for name in fields)})

lines = st.integers(0, len(LAYOUT) - 1)
mutations = st.one_of(
    st.tuples(st.just("drop-field"), lines, st.sampled_from(FIELDS)),
    st.tuples(st.just("retype"), lines, st.sampled_from(FIELDS),
              st.sampled_from(["one", None, 1.5, True, 7, [1], {"a": 1}])),
    st.tuples(st.just("delete"), lines),
    st.tuples(st.just("duplicate"), lines),
    st.tuples(st.just("swap"), lines, lines),
)


@pytest.fixture(scope="module")
def real(tmp_path_factory):
    """``(records, cache_dir)``: a completed campaign and a resume of it —
    two generations, written by the CLI itself."""
    root = tmp_path_factory.mktemp("journal-props")
    journal, cache = root / "run.journal", str(root / "cache")
    assert cli_main(CAMPAIGN + ["--cache-dir", cache,
                                "--journal", str(journal)]) == 0
    assert cli_main(CAMPAIGN + ["--cache-dir", cache,
                                "--resume", str(journal)]) == 0
    records = [json.loads(line) for line in journal.read_text().splitlines()]
    assert [record["kind"] for record in records] == LAYOUT
    return records, cache


def mutate(records, mutation):
    """The journal after one mutation (the same journal when the mutation
    does not apply: a field the record lacks, a retype to the same type)."""
    records = [dict(record) for record in records]
    how, at, *rest = mutation
    if how == "drop-field":
        records[at].pop(rest[0], None)
    elif how == "retype":
        name, value = rest
        if name in records[at] and type(records[at][name]) is not type(value):
            records[at][name] = value
    elif how == "delete":
        del records[at]
    elif how == "duplicate":
        records.insert(at, records[at])
    else:
        other, = rest
        records[at], records[other] = records[other], records[at]
    return records


def write(path, records):
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                            for r in records))
    return path


def doctor(path):
    return cli_main(["doctor", "--journal", str(path)])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=mutations)
@example(mutation=("delete", 7))  # the SIGKILL shape: no end, then a resume
@example(mutation=("drop-field", 4, "index"))  # was a KeyError traceback
@example(mutation=("retype", 4, "index", "one"))  # was a ValueError one
@example(mutation=("retype", 0, "total", "many"))  # ditto
@example(mutation=("retype", 4, "cached", None))  # replay never reads it
@example(mutation=("retype", 4, "t0", "one"))  # report reads it
@example(mutation=("retype", 3, "pid", [1]))  # ditto
@example(mutation=("retype", 0, "kind", [1]))  # not even hashable
@example(mutation=("swap", 1, 4))  # a done before its planned
@example(mutation=("delete", 0))
def test_every_view_of_a_mutated_journal_ends_the_same_way(
        real, mutation, tmp_path, capsys):
    records, cache = real
    path = write(tmp_path / "mutated.journal", mutate(records, mutation))
    try:
        replay = replay_journal(path)
    except JournalError:
        replay = None
    violations = [f for f in diagnose_journal(path) if f.severity == "error"]
    # The agreement property: nothing doctor objects to is unknown to the
    # replay, and nothing the replay refuses or reports passes doctor.
    assert (violations == []) == (
        replay is not None and replay.violations == [])
    assert (doctor(path) == 0) == (violations == [])
    try:  # last: a resume that goes ahead appends its generation
        status = cli_main(CAMPAIGN + ["--cache-dir", cache,
                                      "--resume", str(path)])
    except SystemExit as refusal:
        assert replay is None
        assert str(refusal).startswith("cannot resume: ")
    else:
        assert replay is not None and status == 0
        assert "0 simulated" in capsys.readouterr().out
        assert replay_journal(path).generations == replay.generations + 1


def test_a_killed_then_resumed_journal_is_what_the_journal_is_for(
        real, tmp_path):
    """``begin, planned×n, done×k, begin, …, end``: the coordinator was
    SIGKILLed mid-campaign and the campaign then *successfully resumed*.
    ``doctor`` called this an unrepaired ``journal-schema`` error (``begin
    record before the previous generation ended``) for ever after."""
    records, _ = real
    killed = [r for i, r in enumerate(records) if i not in (5, 6, 7)]
    path = write(tmp_path / "killed.journal", killed)
    replay = replay_journal(path)
    assert replay.violations == []
    assert [f.severity for f in diagnose_journal(path)] == []
    assert replay.generations == 2 and not replay.interrupted
    assert sorted(replay.completed) == [0, 1]
    assert doctor(path) == 0
    # ... and with no resume after the kill it is interrupted, not damaged.
    path = write(tmp_path / "just-killed.journal", killed[:5])
    replay = replay_journal(path)
    assert replay.violations == [] and replay.interrupted
    assert (replay.generations, sorted(replay.completed)) == (1, [0])
    assert doctor(path) == 0
