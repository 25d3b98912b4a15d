"""Logs an earlier build wrote still work: its schema-1 journal resumes and
passes ``doctor``, and its span log renders with ``report``.

Both files were written by one ``campaign --hops 2 --replications 2 --time
0.5 --jobs 2 --journal … --spans …`` of that build
(``tests/data/earlier_build/README.md``)."""

import shutil
from pathlib import Path

from repro.cli import main

EARLIER = Path(__file__).resolve().parents[1] / "data" / "earlier_build"

CAMPAIGN = ["campaign", "--hops", "2", "--replications", "2", "--time", "0.5",
            "--jobs", "2", "--quiet"]

#: What that build printed for the campaign.
FINGERPRINT = "e567b539656b273ef997d36955a2db0f7fcddb9de1565a935bcbf9e3d4e0f278"


def fingerprint_of(out):
    return next(line.split()[-1] for line in out.splitlines()
                if line.startswith("campaign fingerprint: "))


def test_a_schema_1_journal_resumes_to_the_cold_fingerprint(tmp_path, capsys):
    """Every completion the earlier build journaled is verified against
    this build's cache (the same result digests), nothing re-executes, and
    the resumed campaign lands on the cold run's fingerprint."""
    cache = ["--cache-dir", str(tmp_path / "cache")]
    assert main(CAMPAIGN + cache) == 0
    cold = capsys.readouterr().out
    assert fingerprint_of(cold) == FINGERPRINT

    journal = tmp_path / "campaign.journal"
    shutil.copy(EARLIER / "campaign.journal", journal)
    assert main(["doctor", "--journal", str(journal)]) == 0
    assert "no findings" in capsys.readouterr().out
    assert main(CAMPAIGN + cache + ["--resume", str(journal)]) == 0
    out = capsys.readouterr().out
    assert "resuming" in out and "8 journaled completions" in out
    assert "0 simulated, 8 cache hits" in out
    assert fingerprint_of(out) == FINGERPRINT
    # The resumed journal holds both schemas and is still healthy.
    assert main(["doctor", "--journal", str(journal),
                 "--cache", str(tmp_path / "cache")]) == 0
    assert "no findings" in capsys.readouterr().out
    assert main(["report", str(journal)]) == 0
    assert "campaign generation 2: 8/8 units ok (8 cached)" in \
        capsys.readouterr().out


def test_an_earlier_builds_span_log_renders(capsys):
    assert main(["report", str(EARLIER / "campaign.spans.ndjson")]) == 0
    text = capsys.readouterr().out
    assert text.startswith("campaign: 8/8 units ok (0 cached), pool=warm "
                           "jobs=2, status=ok")
    assert "w1      4      0" in text and "w2      4      0" in text
    assert "slowest units (top 8)" in text
