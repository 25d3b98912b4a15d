"""Self-healing behaviour of the campaign engine: corrupted cache entries,
crashed workers, hung workers, and quarantine of units that exhaust their
retry budget.

Worker-fault injection monkeypatches ``campaign._execute_unit``; the
supervisor forks its workers, so children inherit the patch.  Cross-process
"fail only once" coordination uses sentinel files on disk."""

import json
import os
import time
from pathlib import Path

import pytest

import repro.experiments.campaign as campaign
from repro.experiments import (
    CacheCorruptionWarning,
    CampaignCache,
    RetryPolicy,
    ScenarioConfig,
    chain_grid,
    run_campaign,
)


def tiny_grid(n_scenarios=1):
    config = ScenarioConfig(sim_time=0.5, window=4)
    return chain_grid(["newreno"], [2, 3][:n_scenarios], config=config)


def cache_files(root):
    return sorted(root.glob("*/*.json"))


# ---------------------------------------------------------------------------
# Cache corruption detection


def test_truncated_cache_entry_is_evicted_and_recomputed(tmp_path):
    cache = CampaignCache(tmp_path / "cache")
    baseline = run_campaign(tiny_grid(), jobs=1, cache=cache)
    assert baseline.executed == 1

    entry = cache_files(cache.root)[0]
    entry.write_text(entry.read_text()[: entry.stat().st_size // 2])

    with pytest.warns(CacheCorruptionWarning, match="invalid JSON"):
        again = run_campaign(tiny_grid(), jobs=1, cache=cache)
    assert again.executed == 1  # recomputed, not served from the bad entry
    assert again.cache_hits == 0
    assert cache.evictions == 1
    assert again.fingerprint() == baseline.fingerprint()

    # the rewritten entry is valid again
    third = run_campaign(tiny_grid(), jobs=1, cache=cache)
    assert third.cache_hits == 1 and third.executed == 0


def test_bit_flipped_cache_entry_fails_its_checksum(tmp_path):
    cache = CampaignCache(tmp_path / "cache")
    baseline = run_campaign(tiny_grid(), jobs=1, cache=cache)

    entry = cache_files(cache.root)[0]
    payload = json.loads(entry.read_text())
    payload["result"]["mac_drops"] = payload["result"]["mac_drops"] + 7
    entry.write_text(json.dumps(payload))  # valid JSON, corrupted content

    with pytest.warns(CacheCorruptionWarning, match="checksum mismatch"):
        again = run_campaign(tiny_grid(), jobs=1, cache=cache)
    assert again.executed == 1
    assert not entry.exists() or again.fingerprint() == baseline.fingerprint()
    assert again.fingerprint() == baseline.fingerprint()


def test_envelope_without_checksum_is_rejected(tmp_path):
    cache = CampaignCache(tmp_path / "cache")
    run_campaign(tiny_grid(), jobs=1, cache=cache)
    entry = cache_files(cache.root)[0]
    payload = json.loads(entry.read_text())
    del payload["checksum"]
    entry.write_text(json.dumps(payload))

    with pytest.warns(CacheCorruptionWarning, match="malformed envelope"):
        assert cache.get(entry.stem) is None
    assert not entry.exists()


# ---------------------------------------------------------------------------
# Worker crash / hang injection helpers


def _fail_once_then_delegate(sentinel, index, failure):
    """An ``_execute_unit`` stand-in that fails unit ``index`` exactly once."""
    real = campaign._execute_unit

    def patched(args):
        idx, spec = args
        if idx == index and not sentinel.exists():
            sentinel.touch()
            failure()
        return real(args)

    return patched


@pytest.mark.parametrize("pool_mode", ["warm"])
def test_crashed_worker_is_retried_and_campaign_completes(
    tmp_path, monkeypatch, pool_mode
):
    sentinel = tmp_path / "crashed"
    monkeypatch.setattr(
        campaign, "_execute_unit",
        _fail_once_then_delegate(sentinel, 0, lambda: os._exit(17)),
    )
    result = run_campaign(
        tiny_grid(2), jobs=2, pool_mode=pool_mode,
        policy=RetryPolicy(max_retries=2, backoff=0.01),
    )
    assert sentinel.exists()
    assert result.complete
    assert [r.run.index for r in result.records] == [0, 1]


def test_warm_worker_crash_mid_batch_replacement_finishes_the_batch(
    tmp_path, monkeypatch
):
    """A warm worker dying partway through its batch must not lose the
    batch-mates queued behind the crash: they are requeued un-charged and a
    replacement worker (plus the retry of the crashed unit) finishes them."""
    sentinel = tmp_path / "mid-batch"
    # 2 scenarios x 4 replications = 8 units; with jobs=2 the first worker
    # is handed units 0-3 as one batch.  Unit 1 crashes after unit 0 has
    # already streamed its result back.
    monkeypatch.setattr(
        campaign, "_execute_unit",
        _fail_once_then_delegate(sentinel, 1, lambda: os._exit(31)),
    )
    result = run_campaign(
        tiny_grid(2), replications=4, jobs=2, pool_mode="warm",
        policy=RetryPolicy(max_retries=2, backoff=0.01),
    )
    assert sentinel.exists()
    assert result.complete
    assert [r.run.index for r in result.records] == list(range(8))


def test_persistent_crash_is_quarantined_not_fatal(tmp_path, monkeypatch):
    def patched(args):
        idx, spec = args
        if idx == 0:
            os._exit(23)
        return campaign.__dict__["__real_execute"](args)

    monkeypatch.setitem(campaign.__dict__, "__real_execute", campaign._execute_unit)
    monkeypatch.setattr(campaign, "_execute_unit", patched)
    result = run_campaign(
        tiny_grid(2), jobs=2,
        policy=RetryPolicy(max_retries=1, backoff=0.01),
    )
    assert not result.complete
    assert len(result.failed) == 1
    failure = result.failed[0]
    assert failure.run.index == 0
    assert failure.attempts == 2  # first try + one retry
    assert "exit code 23" in failure.error
    assert failure.to_dict()["error"] == failure.error
    # the healthy unit still produced its record
    assert [r.run.index for r in result.records] == [1]


@pytest.mark.parametrize("pool_mode", ["warm"])
def test_hung_worker_hits_the_watchdog_then_retry_succeeds(
    tmp_path, monkeypatch, pool_mode
):
    sentinel = tmp_path / "hung"
    monkeypatch.setattr(
        campaign, "_execute_unit",
        _fail_once_then_delegate(sentinel, 0, lambda: time.sleep(3600)),
    )
    result = run_campaign(
        tiny_grid(), jobs=2, pool_mode=pool_mode,
        policy=RetryPolicy(task_timeout=1.0, max_retries=1, backoff=0.01),
    )
    assert sentinel.exists()
    assert result.complete


def test_permanent_hang_is_quarantined_with_a_timeout_error(monkeypatch):
    def patched(args):
        time.sleep(3600)

    monkeypatch.setattr(campaign, "_execute_unit", patched)
    result = run_campaign(
        tiny_grid(), jobs=2,
        policy=RetryPolicy(task_timeout=0.5, max_retries=0, backoff=0.01),
    )
    assert len(result.failed) == 1
    assert "timed out" in result.failed[0].error
    assert result.failed[0].attempts == 1
    assert result.records == []


def test_in_process_exception_is_quarantined(monkeypatch):
    def patched(args):
        raise RuntimeError("simulated defect")

    monkeypatch.setattr(campaign, "_execute_unit", patched)
    result = run_campaign(tiny_grid(), jobs=1,
                          policy=RetryPolicy(max_retries=1))
    assert len(result.failed) == 1
    assert "simulated defect" in result.failed[0].error
    assert result.failed[0].attempts == 2


def test_worker_exception_message_survives_the_pipe(monkeypatch):
    def patched(args):
        raise ValueError("broke in the child")

    monkeypatch.setattr(campaign, "_execute_unit", patched)
    result = run_campaign(
        tiny_grid(), jobs=2,
        policy=RetryPolicy(max_retries=0, backoff=0.01),
    )
    assert len(result.failed) == 1
    assert "ValueError: broke in the child" in result.failed[0].error


@pytest.mark.parametrize("pool_mode", ["warm"])
def test_crash_once_env_hook(tmp_path, monkeypatch, pool_mode):
    sentinel = tmp_path / "env-crash"
    monkeypatch.setenv(campaign.CRASH_ONCE_ENV, f"{sentinel}:0")
    result = run_campaign(
        tiny_grid(), jobs=2, pool_mode=pool_mode,
        policy=RetryPolicy(max_retries=2, backoff=0.01),
    )
    assert sentinel.exists()  # the crash really happened...
    assert result.complete    # ...and the retry healed it


@pytest.mark.parametrize("task_timeout", [None, 60.0],
                         ids=["no-watchdog", "watchdog"])
def test_one_job_runs_in_process_unless_a_watchdog_needs_a_worker(
    tmp_path, monkeypatch, task_timeout
):
    """``jobs=1`` executes in the coordinator; a watchdog can only kill a
    process, so ``jobs=1`` with a ``task_timeout`` gets one forked worker."""
    real = campaign._execute_unit

    def recording(args):
        (tmp_path / f"pid-{os.getpid()}").touch()
        return real(args)

    monkeypatch.setattr(campaign, "_execute_unit", recording)
    result = run_campaign(tiny_grid(2), jobs=1,
                          policy=RetryPolicy(task_timeout=task_timeout))
    assert result.complete and result.executed == 2
    pids = {int(path.name[len("pid-"):]) for path in tmp_path.glob("pid-*")}
    if task_timeout is None:
        assert pids == {os.getpid()}
    else:
        assert len(pids) == 1 and os.getpid() not in pids


# ---------------------------------------------------------------------------
# Cache hits must short-circuit before worker dispatch


@pytest.mark.parametrize("placement", ["warm", "inproc"])
def test_fully_cached_campaign_never_dispatches_a_worker(
    tmp_path, monkeypatch, placement
):
    """Cache hits are resolved in the coordinator, before any dispatch.

    With every unit cached, ``_execute_unit`` must never run — in a warm
    pool or in this process (``jobs=1``) — so a campaign against a hot
    cache completes even when executing a unit would blow up.
    """
    cache = CampaignCache(tmp_path / "cache")
    cold = run_campaign(tiny_grid(2), jobs=1, cache=cache)
    assert cold.complete and cold.executed == 2

    def poisoned(args):
        raise AssertionError("cache hit must not reach _execute_unit")

    monkeypatch.setattr(campaign, "_execute_unit", poisoned)
    hot = run_campaign(tiny_grid(2), jobs=1 if placement == "inproc" else 2,
                       cache=cache)
    assert hot.complete
    assert hot.executed == 0
    assert hot.cache_hits == 2
    assert hot.fingerprint() == cold.fingerprint()


def test_quarantined_units_do_not_poison_the_cache(tmp_path, monkeypatch):
    def patched(args):
        raise RuntimeError("never completes")

    monkeypatch.setattr(campaign, "_execute_unit", patched)
    cache = CampaignCache(tmp_path / "cache")
    result = run_campaign(tiny_grid(), jobs=1, cache=cache,
                          policy=RetryPolicy(max_retries=0))
    assert len(result.failed) == 1
    assert len(cache_files(cache.root)) == 0

    # with the defect gone, the same campaign runs clean and caches
    monkeypatch.undo()
    healed = run_campaign(tiny_grid(), jobs=1, cache=cache)
    assert healed.complete and healed.executed == 1


# ---------------------------------------------------------------------------
# Durable cache writes (crash-safe put) and the mutation lock


def test_cache_put_fsyncs_the_tmp_file_and_its_directory(tmp_path, monkeypatch):
    """``put`` must fsync the tmp file before the rename and the directory
    after it — otherwise a power cut can leave a zero-length "committed"
    entry (the classic rename-without-fsync hole)."""
    synced_fds = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced_fds.append(os.fstat(fd).st_mode)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    cache = CampaignCache(tmp_path / "cache")
    cache.put("ab" + "0" * 14, {"result": {"x": 1}, "manifest": None})

    import stat
    kinds = [stat.S_ISDIR(mode) for mode in synced_fds]
    assert False in kinds, "the entry file itself was never fsynced"
    assert True in kinds, "the shard directory was never fsynced"
    assert kinds.index(False) < kinds.index(True), \
        "file must be durable before the rename is"


def test_cache_put_is_write_fsync_replace_fsync_under_the_lock(tmp_path,
                                                              monkeypatch):
    """The whole durability sequence, pinned step by step, so a faster
    ``put`` cannot get there by dropping one: the complete envelope is in
    the tmp file before ``fsync(file)``, that comes before ``os.replace``,
    ``fsync(dir)`` comes after it — exactly two fsyncs — and the cache
    ``flock`` is held throughout."""
    import fcntl
    import stat
    from repro.experiments.cachestore import encode_envelope

    digest = "ab" + "0" * 14
    payload = {"result": {"x": 1}, "manifest": None}
    body, result_digest = encode_envelope(payload["result"], None)
    cache = CampaignCache(tmp_path / "cache")
    final = cache._path(digest)
    steps = []
    real_fsync, real_replace = os.fsync, os.replace

    def lock_is_held():
        fd = os.open(cache.lock_path, os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            return True
        finally:
            os.close(fd)
        return False

    def recording_fsync(fd):
        info = os.fstat(fd)
        is_dir = stat.S_ISDIR(info.st_mode)
        steps.append(("fsync-dir" if is_dir else "fsync-file",
                      None if is_dir else info.st_size,
                      final.exists(), lock_is_held()))
        real_fsync(fd)

    def recording_replace(src, dst):
        steps.append(("replace", Path(src).read_bytes(), Path(dst) == final,
                      lock_is_held()))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    assert cache.put(digest, payload) == result_digest
    monkeypatch.undo()

    assert steps == [
        ("fsync-file", len(body), False, True),  # all bytes written, not yet visible
        ("replace", body, True, True),
        ("fsync-dir", None, True, True),
    ]
    assert final.read_bytes() == body
    assert not lock_is_held()


def test_cache_put_failing_mid_write_leaves_no_tmp_and_no_entry(tmp_path,
                                                                monkeypatch):
    cache = CampaignCache(tmp_path / "cache")

    def exploding_fsync(fd):
        raise OSError("I/O error")

    monkeypatch.setattr(os, "fsync", exploding_fsync)
    with pytest.raises(OSError, match="I/O error"):
        cache.put("cd" + "0" * 14, {"result": {"x": 1}, "manifest": None})
    monkeypatch.undo()
    assert list(cache.root.glob("*/*.tmp")) == []
    assert list(cache.root.glob("*/*.json")) == []


def test_a_unit_is_journaled_done_only_after_its_put_returned(tmp_path):
    """``done`` implies the cache holds the result (resume relies on it),
    and carries the digest ``put`` computed — not a second encoding."""
    from repro.experiments.journal import CampaignJournal
    from repro.obs.provenance import stable_digest

    events = []

    class RecordingCache(CampaignCache):
        def put(self, digest, payload):
            result_digest = super().put(digest, payload)
            assert self._path(digest).exists()
            events.append(("put", digest, result_digest))
            return result_digest

    class RecordingJournal(CampaignJournal):
        def done(self, run, result_digest, cached):
            events.append(("done", run.digest, result_digest))
            super().done(run, result_digest, cached)

    with RecordingJournal(tmp_path / "journal.ndjson") as journal:
        result = run_campaign(tiny_grid(2), replications=2, jobs=1,
                              cache=RecordingCache(tmp_path / "cache"),
                              journal=journal)
    assert result.executed == 4
    expected = []
    for record in result.records:
        result_digest = stable_digest(record.metrics)
        expected += [("put", record.run.digest, result_digest),
                     ("done", record.run.digest, result_digest)]
    assert events == expected


def test_truncated_at_rename_entry_is_evicted_and_recomputed(tmp_path):
    """A zero-length committed entry — what rename-before-fsync used to
    allow after a power cut — must read as a miss and heal on rerun."""
    cache = CampaignCache(tmp_path / "cache")
    baseline = run_campaign(tiny_grid(), jobs=1, cache=cache)
    entry = cache_files(cache.root)[0]
    entry.write_text("")  # truncated to nothing at the rename point

    with pytest.warns(CacheCorruptionWarning, match="invalid JSON"):
        again = run_campaign(tiny_grid(), jobs=1, cache=cache)
    assert again.executed == 1 and again.cache_hits == 0
    assert again.fingerprint() == baseline.fingerprint()
    assert json.loads(entry.read_text())["result"]  # healed on disk


def test_cache_put_leaves_no_tmp_debris_and_creates_the_lock(tmp_path):
    cache = CampaignCache(tmp_path / "cache")
    run_campaign(tiny_grid(), jobs=1, cache=cache)
    assert list(cache.root.glob("*/*.tmp")) == []
    assert cache.lock_path.exists()  # the flock sidecar


def test_cache_put_failure_cleans_up_its_tmp_file(tmp_path, monkeypatch):
    cache = CampaignCache(tmp_path / "cache")

    def exploding_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(campaign.os, "replace", exploding_replace)
    with pytest.raises(OSError, match="disk full"):
        cache.put("cd" + "0" * 14, {"result": {"x": 1}, "manifest": None})
    monkeypatch.undo()
    assert list(cache.root.glob("*/*.tmp")) == []
    assert list(cache.root.glob("*/*.json")) == []


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(task_timeout=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff=-0.1)
    assert RetryPolicy(backoff=0.25).retry_delay(3) == 1.0
