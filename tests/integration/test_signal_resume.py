"""Graceful shutdown and resume under real signals.

A mid-flight ``repro-muzha campaign`` receiving SIGTERM must drain, leave
no orphan worker processes behind, write a valid resumable journal, exit
with the distinct "interrupted, resumable" status (3) — and a subsequent
``--resume`` must execute exactly the remainder and land on a fingerprint
byte-identical to an uninterrupted run.  Exercised on the ``warm`` pool
and on ``--jobs 1`` (units run in the coordinator).

Timing is made deterministic with the :data:`BARRIER_ENV` hook: the
worker executing the chosen unit touches ``<base>.ready`` and blocks
until ``<base>.go`` appears, giving the test a guaranteed mid-campaign
moment to deliver the signal at.  For the pool the barrier is never
released — the drain deadline expires and the blocked units become the
remainder; with ``--jobs 1`` (where the barrier blocks the coordinator
itself) it is released right after the signal so the drain can finish.

A coordinator that cannot drain — SIGKILLed — must not strand its forked
workers either: they see their pipe close and exit on their own.
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
from repro.experiments.doctor import diagnose_journal

SRC = str(Path(repro.__file__).resolve().parents[1])

#: 2 scenarios x 2 replications = 4 units, small enough to stay fast.
TOTAL_UNITS = 4
BASE_ARGS = [
    "--variants", "newreno", "--hops", "2", "3", "--replications", "2",
    "--time", "0.5", "--window", "4", "--seed", "7", "--quiet",
]

#: (jobs, barrier unit index), by test id.  ``--jobs 1`` executes in the
#: coordinator in index order, so the barrier sits on unit 1 and unit 0 is
#: already journaled by the time ``.ready`` appears; the warm pool blocks
#: unit 0 on one worker while the other worker makes progress.
BACKENDS = {"warm": (2, 0), "inproc": (1, 1)}


def campaign_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


def campaign_cmd(cache, jobs, *extra):
    return [
        sys.executable, "-m", "repro.cli", "campaign", *BASE_ARGS,
        "--jobs", str(jobs), "--cache-dir", str(cache), *extra,
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
        campaign_cmd(tmp / "cache", 1),
        env=campaign_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return parse_fingerprint(proc.stdout)


@pytest.mark.parametrize("backend", BACKENDS)
def test_sigterm_mid_campaign_drains_and_resumes_byte_identically(
    tmp_path, backend, reference_fingerprint
):
    jobs, barrier_index = BACKENDS[backend]
    cache = tmp_path / "cache"
    journal = tmp_path / "run.journal"
    barrier = tmp_path / "barrier"

    proc = subprocess.Popen(
        campaign_cmd(cache, jobs,
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
        if jobs == 1:
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
    assert [f for f in diagnose_journal(journal) if f.severity != "info"] == []
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
        campaign_cmd(cache, jobs, "--resume", str(journal)),
        env=campaign_env(), capture_output=True, text=True, timeout=300,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert f"{completed} journaled completions" in resumed.stdout
    executed, cache_hits = parse_executed(resumed.stdout)
    assert executed == remainder
    assert cache_hits == completed
    assert parse_fingerprint(resumed.stdout) == reference_fingerprint

    # The resumed journal closes the loop: a second generation, complete.
    assert [f for f in diagnose_journal(journal) if f.severity != "info"] == []
    final = replay_journal(journal)
    assert final.generations == 2
    assert not final.interrupted
    assert final.remaining == 0


#: A coordinator that forks two idle pipe workers, prints their pids and
#: waits to be killed.
ORPHAN_COORDINATOR = """
import time
from repro.experiments.transport import PipeTransport
transport = PipeTransport(lambda unit: unit)
print(*(transport.spawn().pid for _ in range(2)), flush=True)
time.sleep(600)
"""


def process_is_gone(pid):
    """No process ``pid``, or only its zombie: a container without an init
    process that reaps may keep an exited orphan's entry around."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rpartition(")")[2].split()[0] == "Z"


def test_forked_workers_exit_when_their_coordinator_is_sigkilled():
    proc = subprocess.Popen(
        [sys.executable, "-c", ORPHAN_COORDINATOR],
        env=campaign_env(), stdout=subprocess.PIPE, text=True,
    )
    pids = []
    try:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        assert len(pids) == 2
        proc.kill()
        proc.wait()
        wait_for(lambda: all(map(process_is_gone, pids)), 5,
                 "the SIGKILLed coordinator's workers to exit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        for pid in pids:  # never leave a stranded worker behind the test
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
