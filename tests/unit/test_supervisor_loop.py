"""Deterministic tests of the one supervisor loop, ``campaign._run_pool``.

Every branch of the loop's failure handling — charged crash, a reply for
the wrong unit, innocent batch-mates, watchdog, backoff, quarantine,
drain/abort, failed send — is driven through a :class:`ScriptedTransport`
whose links die, hang and lie on a script.  No process is forked and no
unit is simulated, so the whole file runs in well under a second; the
real-process suites (``test_campaign_robustness.py``,
``test_pool_modes.py``, ``test_signal_resume.py``) keep proving that real
pipes and forks honour the same contract.
"""

import pytest

from repro.experiments import (
    GracefulShutdown,
    RetryPolicy,
    ScenarioConfig,
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

    _run_pool(
        transport, units(n), jobs,
        policy or RetryPolicy(max_retries=2, backoff=BACKOFF),
        store, outcome.quarantined.append, outcome.telemetry, shutdown,
    )
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


# -- crash --------------------------------------------------------------------


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


# -- replies that are not for the head unit -----------------------------------


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


# -- drain --------------------------------------------------------------------


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


# -- run_campaign's pool_mode argument ----------------------------------------


@pytest.mark.parametrize("pool_mode", ["per-attempt", "inproc", "cluster"])
def test_a_removed_pool_mode_is_a_value_error(pool_mode):
    grid = chain_grid(["newreno"], [2], config=ScenarioConfig(sim_time=0.5))
    with pytest.raises(ValueError, match=rf"{pool_mode}.*\('warm',\)"):
        run_campaign(grid, pool_mode=pool_mode)
