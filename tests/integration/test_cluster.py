"""Cluster transport end-to-end: byte-identity, failure modes, resume.

The cluster backend moves units over TCP to worker-agent subprocesses —
a completely different execution path from the forked pipe pool — yet
nothing of that may show in results: every unit's seed is derived in
``plan_campaign`` before dispatch, so the campaign fingerprint must be
byte-identical to a ``jobs=1`` campaign (every unit run in the
coordinating process) on clean and faulted grids alike.  On top of
the equivalence contract this file exercises the transport's failure
modes: a mid-unit TCP disconnect must requeue the unit *un-charged* (the
wire died, not necessarily the work), a late-joining agent must steal
work from an in-progress campaign, and a SIGTERMed two-process cluster
campaign must resume to the same fingerprint as an uninterrupted
single-host run.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.experiments import (
    BARRIER_ENV,
    CRASH_ONCE_ENV,
    CampaignCache,
    RetryPolicy,
    ScenarioConfig,
    chain_grid,
    run_campaign,
)
from repro.faults import FaultEvent, FaultPlan

SRC = str(Path(repro.__file__).resolve().parents[1])


def clean_grid():
    config = ScenarioConfig(sim_time=0.5, window=4)
    return chain_grid(["muzha", "newreno"], [2, 3], config=config)


def faulted_grid():
    plan = FaultPlan(events=(
        FaultEvent(time=0.2, kind="node_crash", node=1, duration=0.2),
    ))
    config = ScenarioConfig(sim_time=0.5, window=4, faults=plan)
    return chain_grid(["muzha", "newreno"], [2], config=config)


def by_identity(result):
    return {
        (r.run.scenario, r.run.replication): r.metrics_bytes()
        for r in result.records
    }


def free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def wait_for(predicate, timeout, message):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out after {timeout}s waiting for {message}")


def agent_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


def start_agent(endpoint, env=None, retry="30"):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker",
         "--connect", endpoint, "--retry", retry],
        env=env or agent_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


# ---------------------------------------------------------------------------
# byte-identity with in-process execution


@pytest.fixture(scope="module")
def inproc_clean():
    return run_campaign(clean_grid(), replications=2, jobs=1)


@pytest.fixture(scope="module")
def inproc_faulted():
    return run_campaign(faulted_grid(), replications=2, jobs=1)


def test_cluster_is_byte_identical_on_a_clean_grid(inproc_clean):
    clustered = run_campaign(
        clean_grid(), replications=2, jobs=2, pool_mode="cluster"
    )
    assert clustered.complete
    assert by_identity(clustered) == by_identity(inproc_clean)
    assert clustered.fingerprint() == inproc_clean.fingerprint()


def test_cluster_is_byte_identical_under_a_fault_plan(inproc_faulted):
    clustered = run_campaign(
        faulted_grid(), replications=2, jobs=2, pool_mode="cluster"
    )
    assert clustered.complete
    assert by_identity(clustered) == by_identity(inproc_faulted)
    assert clustered.fingerprint() == inproc_faulted.fingerprint()


# ---------------------------------------------------------------------------
# transport failure modes


def test_mid_unit_disconnect_requeues_without_charging(
    tmp_path, monkeypatch, inproc_faulted
):
    """An agent hard-dying mid-unit severs its TCP link; the in-flight
    unit must requeue *un-charged* — with a zero-retry policy the
    campaign still completes, which it could not if the disconnect had
    been charged as an attempt."""
    del inproc_faulted  # only here to share module setup cost ordering
    monkeypatch.setenv(CRASH_ONCE_ENV, f"{tmp_path / 'crash'}:1")
    config = ScenarioConfig(sim_time=0.5, window=4)
    grid = chain_grid(["newreno"], [2], config=config)
    result = run_campaign(
        grid, replications=2, jobs=2, pool_mode="cluster",
        policy=RetryPolicy(max_retries=0, backoff=0.0),
    )
    assert (tmp_path / "crash").exists()  # the chaos hook did fire
    assert result.complete
    assert not result.failed


def test_late_joining_agent_steals_work_mid_campaign(tmp_path):
    """A worker agent that dials in while the campaign is running must be
    folded into dispatch and pull units from the shared queue."""
    port = free_port()
    endpoint = f"127.0.0.1:{port}"
    cache = tmp_path / "cache"
    journal = tmp_path / "run.journal"
    spans = tmp_path / "spans.ndjson"
    barrier = tmp_path / "barrier"
    total = 6  # 3 scenarios x 2 replications

    env = agent_env(**{BARRIER_ENV: f"{barrier}:0"})
    coordinator = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "campaign",
         "--variants", "newreno", "--hops", "2", "3", "4",
         "--replications", "2", "--time", "0.5", "--window", "4",
         "--seed", "7", "--quiet",
         "--pool-mode", "cluster", "--listen", endpoint, "--agents", "0",
         "--jobs", "2", "--cache-dir", str(cache),
         "--journal", str(journal), "--spans", str(spans)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    first = second = None
    try:
        # Agent one joins and blocks on unit 0 (its batch holds 0 and 1).
        first = start_agent(endpoint, env=env)
        wait_for(lambda: (tmp_path / "barrier.ready").exists(),
                 120, "the barrier unit to start on agent one")

        def done_units():
            if not journal.is_file():
                return 0
            return sum(
                1 for line in journal.read_text().splitlines()
                if '"kind": "done"' in line or '"kind":"done"' in line
            )

        before = done_units()
        # Agent two dials into the running campaign and must drain the
        # queue the blocked agent cannot touch.
        second = start_agent(endpoint, env=env)
        wait_for(lambda: done_units() >= total - 2,
                 120, "the late joiner to steal and finish the queue")
        assert done_units() > before
        (tmp_path / "barrier.go").touch()
        stdout, stderr = coordinator.communicate(timeout=120)
    finally:
        for proc in (coordinator, first, second):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.communicate()

    assert coordinator.returncode == 0, f"stdout:\n{stdout}\nstderr:\n{stderr}"

    # The span log attributes units to host-qualified worker identities:
    # both agents must have executed work.
    executing_workers = set()
    open_workers = {}
    for line in spans.read_text().splitlines():
        record = json.loads(line)
        if (record.get("kind") == "span_open"
                and record.get("span") == "unit-attempt"):
            attrs = record.get("attrs", {})
            if not attrs.get("cached"):
                open_workers[record["id"]] = attrs.get("worker")
        elif (record.get("kind") == "span_close"
                and record.get("id") in open_workers
                and record.get("status") == "ok"):
            executing_workers.add(open_workers[record["id"]])
    host = socket.gethostname()
    assert len(executing_workers) == 2, executing_workers
    assert all(w.startswith(f"{host}:") for w in executing_workers)


def test_cluster_sigterm_resume_matches_uninterrupted_single_host(tmp_path):
    """SIGTERM mid-campaign with two agent processes: drain, exit 3 with a
    resumable journal, no orphan agents — and the resumed cluster
    campaign lands on the uninterrupted in-process fingerprint."""
    import re

    base_args = [
        "--variants", "newreno", "--hops", "2", "3", "--replications", "2",
        "--time", "0.5", "--window", "4", "--seed", "7", "--quiet",
    ]

    def fingerprint(stdout):
        match = re.search(r"campaign fingerprint: (\S+)", stdout)
        assert match, f"no fingerprint in output:\n{stdout}"
        return match.group(1)

    reference = subprocess.run(
        [sys.executable, "-m", "repro.cli", "campaign", *base_args,
         "--jobs", "1",
         "--cache-dir", str(tmp_path / "refcache")],
        env=agent_env(), capture_output=True, text=True, timeout=300,
    )
    assert reference.returncode == 0, reference.stderr

    cache = tmp_path / "cache"
    journal = tmp_path / "run.journal"
    barrier = tmp_path / "barrier"
    port = free_port()
    cluster_args = [
        sys.executable, "-m", "repro.cli", "campaign", *base_args,
        "--pool-mode", "cluster", "--listen", f"127.0.0.1:{port}",
        "--jobs", "2", "--cache-dir", str(cache),
        "--journal", str(journal), "--drain-timeout", "2.0",
    ]
    proc = subprocess.Popen(
        cluster_args, env=agent_env(**{BARRIER_ENV: f"{barrier}:0"}),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        wait_for(lambda: (tmp_path / "barrier.ready").exists(),
                 120, "the barrier unit to start")
        wait_for(
            lambda: journal.is_file() and any(
                '"done"' in line for line in journal.read_text().splitlines()
            ),
            120, "a journaled completion",
        )
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    assert proc.returncode == 3, f"stdout:\n{stdout}\nstderr:\n{stderr}"
    assert "interrupted by SIGTERM" in stdout

    # The coordinator's close() reaps its self-spawned agents: nothing is
    # left dialing this campaign's endpoint.
    def agents_alive():
        token = f"127.0.0.1:{port}".encode()
        for entry in Path("/proc").iterdir():
            if not entry.name.isdigit():
                continue
            try:
                if token in (entry / "cmdline").read_bytes():
                    return True
            except OSError:
                continue
        return False

    wait_for(lambda: not agents_alive(), 10, "agent subprocesses to exit")

    from repro.experiments import replay_journal

    replay = replay_journal(journal)
    assert replay.interrupted
    assert 0 < len(replay.completed) < 4

    resumed = subprocess.run(
        [*cluster_args[:-4], "--resume", str(journal)],
        env=agent_env(), capture_output=True, text=True, timeout=300,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert fingerprint(resumed.stdout) == fingerprint(reference.stdout)

    final = replay_journal(journal)
    assert final.generations == 2
    assert not final.interrupted
