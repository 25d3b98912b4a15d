"""Deterministic tests of the one supervisor loop, ``campaign._run_pool``.

Every branch of the loop's failure handling — charged crash, un-charged
disconnect and its cap, innocent batch-mates, watchdog, backoff,
quarantine, late-joiner steal, drain/abort, failed send, recycling — is
driven through a :class:`ScriptedTransport` whose links die, hang and join
on a script.  No process is forked and no unit is simulated, so the whole
file runs in well under a second; the real-process suites
(``test_campaign_robustness.py``, ``test_pool_modes.py``,
``test_signal_resume.py``, ``test_cluster.py``) keep proving that real
pipes, forks and sockets honour the same contract.
"""

import pytest

from repro.experiments import (
    GracefulShutdown,
    RetryPolicy,
    ScenarioConfig,
    TcpTransport,
    chain_grid,
    plan_campaign,
    run_campaign,
)
from repro.experiments.campaign import _run_pool

from .scripted_transport import (
    DIE,
    ERR,
    HANG,
    LIE,
    RecordingTelemetry,
    ScriptedTransport,
    TWICE,
)

#: Fast enough to keep the file instant, long enough to order events.
BACKOFF = 0.02


def units(n):
    grid = chain_grid(["newreno"], [2], config=ScenarioConfig(sim_time=0.5))
    return plan_campaign(grid, replications=n)


class Outcome:
    """What ``_run_pool`` reported through its callbacks."""

    def __init__(self):
        self.stored = []       # unit indices, completion order
        self.quarantined = []  # FailedRun
        self.telemetry = RecordingTelemetry()


def run_pool(transport, n, *, jobs=1, policy=None, shutdown=None,
             on_store=None):
    outcome = Outcome()

    def store(run, metrics, manifest):
        assert metrics == {"unit": run.index}  # replies reach the right unit
        outcome.stored.append(run.index)
        if on_store is not None:
            on_store(run.index)

    try:
        _run_pool(
            transport, units(n), jobs,
            policy or RetryPolicy(max_retries=2, backoff=BACKOFF),
            store, outcome.quarantined.append, outcome.telemetry, shutdown,
        )
    finally:
        transport.close()
    # Whatever happened, the loop let go of every worker exactly once.
    assert all(link.fate is not None for link in transport.links)
    return outcome


def test_clean_run_stores_everything_and_stops_its_workers():
    transport = ScriptedTransport(prefetch=2)
    outcome = run_pool(transport, 6, jobs=2)
    assert sorted(outcome.stored) == list(range(6))
    assert outcome.quarantined == []
    assert [link.fate for link in transport.links] == ["stop", "stop"]
    tel = outcome.telemetry
    assert [args[0] for args, _ in tel.named("worker_spawned")] == ["w1", "w2"]
    assert tel.exit_reasons() == ["stop", "stop"]
    assert tel.replacements() == 0
    assert len(tel.unit_attempts()) == 6


# -- crash vs disconnect ------------------------------------------------------


def test_local_crash_is_charged_and_the_worker_replaced():
    transport = ScriptedTransport(script={0: [DIE]})
    outcome = run_pool(transport, 2)
    assert sorted(outcome.stored) == [0, 1]
    tel = outcome.telemetry
    assert (0, 1, "crash") in tel.unit_attempts()
    assert (0, 2, "ok") in tel.unit_attempts()  # the retry is attempt 2
    ((index, attempt, delay, error), _), = tel.named("retry_scheduled")
    assert (index, attempt, delay) == (0, 1, BACKOFF)
    assert error == "worker crashed (exit code -9)"
    assert tel.exit_reasons() == ["crash", "stop"]
    assert tel.replacements() == 1
    assert [link.fate for link in transport.links] == ["reap", "stop"]


def test_remote_disconnect_requeues_the_unit_uncharged():
    transport = ScriptedTransport(
        script={0: [DIE]}, spawns=False,
        joiners=[(0, {"remote": True, "host": "nodeb"}),
                 (0, {"remote": True, "host": "nodec"})],
    )
    outcome = run_pool(transport, 2, jobs=2)
    assert sorted(outcome.stored) == [0, 1]
    tel = outcome.telemetry
    # No crash span, no retry: the wire died, the unit is still on attempt 1.
    assert sorted(tel.unit_attempts()) == [(0, 1, "ok"), (1, 1, "ok")]
    assert tel.named("retry_scheduled") == []
    assert sorted(tel.exit_reasons()) == ["disconnect", "stop"]
    assert {args[0] for args, _ in tel.named("worker_spawned")} == {
        "nodeb:w1", "nodec:w2"}


def test_unit_that_keeps_killing_its_connection_is_eventually_charged():
    """``max_retries + 1`` disconnects ride free; the next one is a charged
    failure, so a poison unit cannot bounce between agents forever."""
    policy = RetryPolicy(max_retries=1, backoff=BACKOFF)
    free = policy.max_retries + 1
    transport = ScriptedTransport(
        script={0: [DIE] * (free + 2)}, spawns=False,
        joiners=[(0, {"remote": True, "host": "n"})] * (free + 2),
    )
    outcome = run_pool(transport, 1, policy=policy)
    assert outcome.stored == []
    failure, = outcome.quarantined
    # 2 free disconnects, then attempt 1 and attempt 2 are both charged.
    assert failure.attempts == 2
    assert failure.error.startswith(f"connection lost mid-unit {free + 2} times")
    assert outcome.telemetry.unit_attempts() == [(0, 1, "crash"), (0, 2, "crash")]
    assert len(transport.links) == free + 2


# -- replies that are not for the head unit -----------------------------------


def test_remote_reply_for_another_unit_severs_the_link_and_stores_nothing():
    """Before the loop looked at a reply's index, unit 1000's "result" was
    stored (and cached, and journaled) as unit 0's."""
    transport = ScriptedTransport(
        script={0: [LIE]}, spawns=False,
        joiners=[(0, {"remote": True, "host": "nodeb"}),
                 (0, {"remote": True, "host": "nodec"})],
    )
    outcome = run_pool(transport, 2, jobs=2)
    assert sorted(outcome.stored) == [0, 1]
    tel = outcome.telemetry
    # Handled as a disconnect: requeued un-charged, finished elsewhere.
    assert sorted(tel.unit_attempts()) == [(0, 1, "ok"), (1, 1, "ok")]
    assert tel.named("retry_scheduled") == []
    assert sorted(tel.exit_reasons()) == ["disconnect", "stop"]
    assert sorted(link.fate for link in transport.links) == ["kill", "stop"]


def test_agent_that_lies_about_every_unit_cannot_loop_forever():
    policy = RetryPolicy(max_retries=1, backoff=BACKOFF)
    lies = policy.max_retries + 1 + 2  # the free disconnects, then 2 charged
    transport = ScriptedTransport(
        script={0: [LIE] * lies}, spawns=False,
        joiners=[(0, {"remote": True, "host": "n"})] * lies,
    )
    outcome = run_pool(transport, 1, policy=policy)
    assert outcome.stored == []
    failure, = outcome.quarantined
    assert failure.error.startswith("connection lost mid-unit")
    assert [link.fate for link in transport.links] == ["kill"] * lies


def test_local_reply_for_another_unit_is_a_charged_crash():
    transport = ScriptedTransport(script={0: [LIE]})
    outcome = run_pool(transport, 2)
    assert sorted(outcome.stored) == [0, 1]
    tel = outcome.telemetry
    assert (0, 1, "crash") in tel.unit_attempts()
    assert (0, 2, "ok") in tel.unit_attempts()
    assert [link.fate for link in transport.links] == ["kill", "stop"]


def test_unasked_second_reply_is_not_taken_for_the_next_units_result():
    """The echo arrives when its link is idle or already on unit 1: either
    way it answers nothing the link was asked."""
    transport = ScriptedTransport(script={0: [TWICE]})
    outcome = run_pool(transport, 3)
    assert sorted(outcome.stored) == [0, 1, 2]
    assert outcome.quarantined == []
    assert transport.links[0].fate == "kill"
    assert transport.links[0].units[0] == 0


def test_batch_mates_behind_a_crash_are_requeued_uncharged():
    transport = ScriptedTransport(script={1: [DIE]}, prefetch=3)
    outcome = run_pool(transport, 3)
    assert sorted(outcome.stored) == [0, 1, 2]
    assert transport.links[0].units == [0, 1, 2]  # one batch, crash mid-way
    attempts = {(i, a): s for i, a, s in outcome.telemetry.unit_attempts()}
    assert attempts == {(0, 1): "ok", (1, 1): "crash", (1, 2): "ok",
                        (2, 1): "ok"}  # unit 2 never ran, never charged


def test_send_failure_requeues_the_whole_batch_uncharged():
    transport = ScriptedTransport(prefetch=2,
                                  link_kwargs=[{"send_fails": True}, {}])
    outcome = run_pool(transport, 2)
    assert sorted(outcome.stored) == [0, 1]
    tel = outcome.telemetry
    assert sorted(tel.unit_attempts()) == [(0, 1, "ok"), (1, 1, "ok")]
    assert tel.named("retry_scheduled") == []
    assert tel.exit_reasons() == ["crash", "stop"]  # the corpse, then w2
    assert [link.fate for link in transport.links] == ["reap", "stop"]


# -- watchdog -----------------------------------------------------------------


def test_watchdog_kills_a_hung_worker_and_replaces_it():
    transport = ScriptedTransport(script={0: [HANG]}, prefetch=2)
    policy = RetryPolicy(task_timeout=0.05, max_retries=1, backoff=BACKOFF)
    outcome = run_pool(transport, 2, policy=policy)
    assert sorted(outcome.stored) == [0, 1]
    tel = outcome.telemetry
    assert tel.unit_attempts()[0] == (0, 1, "timeout")
    ((_, _, _, error), _), = tel.named("retry_scheduled")
    assert error == "timed out after 0.05s wall clock"
    assert tel.exit_reasons() == ["timeout", "stop"]
    assert tel.replacements() == 1
    assert [link.fate for link in transport.links] == ["kill", "stop"]
    # Unit 1 sat behind the hang in the same batch: requeued un-charged.
    assert (1, 1, "ok") in tel.unit_attempts()


# -- retry, backoff, quarantine ----------------------------------------------


def test_retries_wait_out_an_exponential_backoff_without_blocking_others():
    transport = ScriptedTransport(script={0: [ERR, ERR]})
    outcome = run_pool(transport, 3)
    assert sorted(outcome.stored) == [0, 1, 2]
    tel = outcome.telemetry
    assert [(args[1], args[2]) for args, _ in tel.named("retry_scheduled")] \
        == [(1, BACKOFF), (2, 2 * BACKOFF)]
    link, = transport.links
    # The waiting retry never blocked the worker: units 1 and 2 ran first.
    assert link.units == [0, 1, 2, 0, 0]
    sent = [t for t, batch in link.batches if batch == [0]]
    assert sent[1] - sent[0] >= BACKOFF
    assert sent[2] - sent[1] >= 2 * BACKOFF


def test_unit_out_of_retries_is_quarantined_and_the_rest_complete():
    transport = ScriptedTransport(script={1: [ERR, ERR, ERR]})
    outcome = run_pool(transport, 3)
    assert sorted(outcome.stored) == [0, 2]
    failure, = outcome.quarantined
    assert (failure.run.index, failure.attempts) == (1, 3)
    assert failure.error == "ScriptedError: unit 1"
    assert [s for i, _, s in outcome.telemetry.unit_attempts() if i == 1] \
        == ["error"] * 3
    assert outcome.telemetry.exit_reasons() == ["stop"]  # errors kill nobody


# -- joining and leaving ------------------------------------------------------


def test_late_joiner_steals_from_the_shared_queue():
    transport = ScriptedTransport(
        spawns=False,
        joiners=[(0, {"remote": True, "host": "early"}),
                 (2, {"remote": True, "host": "late"})],
    )
    outcome = run_pool(transport, 6, jobs=2)
    assert sorted(outcome.stored) == list(range(6))
    early, late = transport.links
    assert early.units[:2] == [0, 1]   # alone until two replies were in
    assert late.units                   # then the joiner took its share
    assert sorted(early.units + late.units) == list(range(6))


def test_single_use_links_are_recycled_not_replaced():
    transport = ScriptedTransport(link_kwargs=[{"single_use": True}])
    outcome = run_pool(transport, 3)
    assert outcome.stored == [0, 1, 2]
    assert [link.units for link in transport.links] == [[0], [1], [2]]
    assert [link.fate for link in transport.links] == ["stop"] * 3
    tel = outcome.telemetry
    assert tel.exit_reasons() == ["stop"] * 3
    assert tel.replacements() == 0


def test_drain_waits_for_in_flight_work_then_aborts_at_the_deadline():
    shutdown = GracefulShutdown(drain_timeout=0.05)
    transport = ScriptedTransport(script={0: [HANG]})
    outcome = run_pool(
        transport, 4, jobs=2, shutdown=shutdown,
        on_store=lambda index: shutdown.request(),
    )
    # w1 hangs on unit 0; w2 finishes unit 1, which requests the shutdown.
    assert outcome.stored == [1]
    assert outcome.quarantined == []  # the remainder is not a failure
    assert shutdown.abort             # left through the deadline
    hung, finished = transport.links
    assert (hung.units, finished.units) == ([0], [1])  # 2, 3 never dispatched
    assert [hung.fate, finished.fate] == ["stop", "stop"]
    assert outcome.telemetry.exit_reasons() == ["stop", "stop"]


def test_drain_leaves_at_once_when_nothing_is_in_flight():
    shutdown = GracefulShutdown(drain_timeout=60.0)
    transport = ScriptedTransport()
    outcome = run_pool(transport, 3, shutdown=shutdown,
                       on_store=lambda index: shutdown.request())
    assert outcome.stored == [0]
    assert not shutdown.abort
    assert transport.links[0].units == [0]


# -- run_campaign's transport argument ---------------------------------------


@pytest.mark.parametrize("pool_mode", ["warm", "per-attempt", "inproc"])
def test_transport_with_a_local_pool_mode_is_a_conflict(pool_mode):
    transport = TcpTransport(spawn_agents=False)
    grid = chain_grid(["newreno"], [2], config=ScenarioConfig(sim_time=0.5))
    with pytest.raises(ValueError, match=f"transport= conflicts.*{pool_mode}"):
        run_campaign(grid, pool_mode=pool_mode, transport=transport)
    assert transport.endpoint is None  # rejected before anything was opened
