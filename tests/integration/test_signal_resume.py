"""Graceful shutdown and resume under real signals.

A mid-flight ``repro-muzha campaign`` receiving SIGTERM must drain, leave
no orphan worker processes behind, write a valid resumable journal, exit
with the distinct "interrupted, resumable" status (3) — and a subsequent
``--resume`` must execute exactly the remainder and land on a fingerprint
byte-identical to an uninterrupted run.  Exercised against all four pool
backends: the three local ones here, ``cluster`` in ``test_cluster.py``.

Timing is made deterministic with the :data:`BARRIER_ENV` hook: the
worker executing the chosen unit touches ``<base>.ready`` and blocks
until ``<base>.go`` appears, giving the test a guaranteed mid-campaign
moment to deliver the signal at.  For the pooled backends the barrier is
never released — the drain deadline expires and the blocked units become
the remainder; for ``inproc`` (where the barrier blocks the coordinator
itself) it is released right after the signal so the drain can finish.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.experiments import BARRIER_ENV, replay_journal
from repro.experiments.journal import validate_journal_file

SRC = str(Path(repro.__file__).resolve().parents[1])

#: 2 scenarios x 2 replications = 4 units, small enough to stay fast.
TOTAL_UNITS = 4
BASE_ARGS = [
    "--variants", "newreno", "--hops", "2", "3", "--replications", "2",
    "--time", "0.5", "--window", "4", "--seed", "7", "--quiet",
]

#: (pool_mode, jobs, barrier unit index).  inproc executes in index order,
#: so the barrier sits on unit 1 and unit 0 is already journaled by the
#: time ``.ready`` appears; the pooled backends block unit 0 on one worker
#: while the other worker makes progress.
BACKENDS = [("warm", 2, 0), ("per-attempt", 2, 0), ("inproc", 1, 1)]


def campaign_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


def campaign_cmd(cache, pool_mode, jobs, *extra):
    return [
        sys.executable, "-m", "repro.cli", "campaign", *BASE_ARGS,
        "--pool-mode", pool_mode, "--jobs", str(jobs),
        "--cache-dir", str(cache), *extra,
    ]


def wait_for(predicate, timeout, message):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out after {timeout}s waiting for {message}")


def journal_has_a_done_record(path):
    if not path.is_file():
        return False
    for line in path.read_text().splitlines():
        try:
            if json.loads(line).get("kind") == "done":
                return True
        except ValueError:
            continue
    return False


def pids_mentioning(token):
    """Live processes whose cmdline contains ``token`` (via /proc)."""
    token = token.encode()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue  # raced with process exit
        if token in cmdline:
            found.append(int(entry.name))
    return found


def parse_fingerprint(stdout):
    match = re.search(r"campaign fingerprint: (\S+)", stdout)
    assert match, f"no fingerprint in output:\n{stdout}"
    return match.group(1)


def parse_executed(stdout):
    match = re.search(r"(\d+) simulated, (\d+) cache hits", stdout)
    assert match, f"no execution summary in output:\n{stdout}"
    return int(match.group(1)), int(match.group(2))


@pytest.fixture(scope="module")
def reference_fingerprint(tmp_path_factory):
    """Fingerprint of the same campaign run uninterrupted."""
    tmp = tmp_path_factory.mktemp("reference")
    proc = subprocess.run(
        campaign_cmd(tmp / "cache", "inproc", 1),
        env=campaign_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return parse_fingerprint(proc.stdout)


@pytest.mark.parametrize("pool_mode,jobs,barrier_index", BACKENDS,
                         ids=[b[0] for b in BACKENDS])
def test_sigterm_mid_campaign_drains_and_resumes_byte_identically(
    tmp_path, pool_mode, jobs, barrier_index, reference_fingerprint
):
    cache = tmp_path / "cache"
    journal = tmp_path / "run.journal"
    barrier = tmp_path / "barrier"

    proc = subprocess.Popen(
        campaign_cmd(cache, pool_mode, jobs,
                     "--journal", str(journal), "--drain-timeout", "2.0"),
        env=campaign_env(**{BARRIER_ENV: f"{barrier}:{barrier_index}"}),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        # A worker is provably mid-unit, and at least one other unit has
        # already been journaled done: the signal lands mid-campaign.
        wait_for(lambda: (barrier.parent / f"{barrier.name}.ready").exists(),
                 90, "the barrier unit to start")
        wait_for(lambda: journal_has_a_done_record(journal),
                 90, "a journaled completion")
        proc.send_signal(signal.SIGTERM)
        if pool_mode == "inproc":
            # The barrier blocks the coordinator itself: release it so the
            # drain can run to the loop's shutdown check.
            (barrier.parent / f"{barrier.name}.go").touch()
        stdout, stderr = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    # Distinct "interrupted, resumable" exit status and operator hint.
    assert proc.returncode == 3, f"stdout:\n{stdout}\nstderr:\n{stderr}"
    assert "interrupted by SIGTERM" in stdout
    assert f"resumable: re-run with --resume {journal}" in stdout

    # No orphan workers: nothing is left alive referencing this campaign.
    wait_for(lambda: not pids_mentioning(str(tmp_path)),
             10, "orphaned worker processes to exit")

    # The journal survived the interruption schema-valid and resumable.
    assert validate_journal_file(journal) == []
    replay = replay_journal(journal)
    assert replay.interrupted
    assert replay.failed == {}  # drain-killed units are remainder, not failures
    completed = len(replay.completed)
    assert 0 < completed < TOTAL_UNITS
    remainder = replay.remaining
    assert remainder == TOTAL_UNITS - completed

    # Resume executes exactly the remainder and matches the uninterrupted
    # fingerprint byte for byte.
    resumed = subprocess.run(
        campaign_cmd(cache, pool_mode, jobs, "--resume", str(journal)),
        env=campaign_env(), capture_output=True, text=True, timeout=300,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert f"{completed} journaled completions" in resumed.stdout
    executed, cache_hits = parse_executed(resumed.stdout)
    assert executed == remainder
    assert cache_hits == completed
    assert parse_fingerprint(resumed.stdout) == reference_fingerprint

    # The resumed journal closes the loop: a second generation, complete.
    assert validate_journal_file(journal) == []
    final = replay_journal(journal)
    assert final.generations == 2
    assert not final.interrupted
    assert final.remaining == 0
