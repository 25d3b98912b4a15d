"""Parallel, cached, self-healing experiment campaigns.

The paper's evaluation is a grid — TCP variant × hop count × loss model ×
replication — of mutually independent simulation runs.  This module turns
that grid into a batch workload:

* :func:`run_campaign` fans :class:`repro.experiments.runner.RunSpec` units
  out over supervised workers (``jobs`` at a time, default
  ``os.cpu_count()``);
* every run's master seed is derived from its ``(scenario, replication)``
  key via :func:`repro.sim.rng.derive_run_seed`, so metrics are
  bit-identical whatever the worker count, batching, or execution order;
* completed runs are memoised in a :class:`CampaignCache` — an on-disk
  content-addressed store keyed by the hash of the run's full configuration
  plus the code schema version — so re-running a campaign only executes
  scenarios whose parameters (or the simulator itself) changed.

One loop, one local pool.  :func:`_run_pool` is the only supervisor: it
alone knows how attempts are retried, backed off, quarantined, timed out,
drained and reported.  It talks to its workers through a
:mod:`~repro.experiments.transport`:
:class:`~repro.experiments.transport.PipeTransport`'s long-lived workers,
each forked once, pull batches of up to ``PipeTransport.prefetch`` units
over a duplex pipe and stream one result back per unit, so interpreter
startup and module import are amortised over the whole campaign.  With
``jobs == 1`` and no watchdog there is no pool at all:
:class:`~repro.experiments.transport.InlineTransport` executes each unit
in the coordinating process when the loop dispatches it — the debugging
path (breakpoints and monkeypatches apply directly; Ctrl-C propagates).

Because the policy lives in one place, both report the same way: workers
are ``w<n>``, each attempt is one ``unit-attempt`` span, and a failed
attempt waits :meth:`RetryPolicy.retry_delay` before its retry —
in-process included.

Self-healing: each attempt runs under the supervisor with an optional
wall-clock watchdog (:class:`RetryPolicy.task_timeout`).  A worker that
crashes, is killed, or hangs past its deadline is terminated and
transparently replaced by a fresh one, while the unit is retried with
exponential backoff up to :class:`RetryPolicy.max_retries` times; a unit
that exhausts its retries is *quarantined* — recorded in
``CampaignResult.failed`` — and the rest of the campaign completes
normally.  Units that were merely queued behind a crashed/hung unit on the
same worker are requeued without being charged an attempt.  Cache
entries carry a content checksum; a truncated or bit-flipped entry is
detected on read, reported via :class:`~repro.experiments.cachestore.
CacheCorruptionWarning`, evicted, and transparently recomputed.  Cache
hits short-circuit before dispatch: a fully cached campaign never starts
a worker at all.

Determinism contract: ``run_campaign(grid)`` is a pure function of the grid
and the campaign seed — worker count included.  Per-unit seeds are derived in
:func:`plan_campaign` before any dispatch, so which worker executes a
unit (and in which batch) is invisible in the results.  The property tests
in ``tests/props/test_campaign_determinism.py`` and the pool
byte-identity tests in ``tests/integration/test_pool_modes.py`` hold this
module to it.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing.connection
import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from ..obs.engine import CampaignTelemetry
from ..obs.provenance import canonical_json
from ..sim.rng import derive_run_seed
from .cachestore import CacheStore
from .config import CACHE_SCHEMA_VERSION, ScenarioConfig, stable_digest
from .journal import CampaignJournal, JournalReplay
from .runner import RunResult, RunSpec, execute_run
from .transport import InlineTransport, PipeTransport, Transport

PathLike = Union[str, Path]

#: Fault-injection hook for CI/testing: ``"<sentinel-path>:<index>"`` makes
#: the worker executing unit ``index`` hard-exit (``os._exit``) once — the
#: sentinel file marks the crash as spent so the retry succeeds.
CRASH_ONCE_ENV = "REPRO_CAMPAIGN_CRASH_ONCE"

#: Rendezvous hook for CI/testing: ``"<path>:<index>"`` makes the worker
#: executing unit ``index`` touch ``<path>.ready`` and block until
#: ``<path>.go`` appears — a deterministic mid-flight moment for the
#: signal/interruption tests to deliver SIGTERM at.  One-shot: once
#: ``<path>.ready`` exists the hook is spent, so retries and resumed
#: campaigns run through unimpeded.
BARRIER_ENV = "REPRO_CAMPAIGN_BARRIER"

#: The ``pool_mode`` values :func:`run_campaign` accepts: its one local
#: pool of forked workers.
POOL_MODES = ("warm",)


class GracefulShutdown:
    """Cooperative SIGINT/SIGTERM handling for a running campaign.

    The first signal sets :attr:`requested`: the coordinator stops
    dispatching new units, drains in-flight work for up to
    ``drain_timeout`` seconds, checkpoints the journal, and terminates its
    workers cleanly (TERM, escalating to KILL).  A second signal sets
    :attr:`force` — the drain is abandoned immediately — and uninstalls the
    handlers, so a third signal kills the process outright via the default
    disposition.  ``request()`` drives the same state machine without a
    signal, which is what the in-process tests use.
    """

    SIGNAL_NAMES = ("SIGINT", "SIGTERM")

    def __init__(self, drain_timeout: float = 5.0) -> None:
        if drain_timeout < 0:
            raise ValueError(
                f"drain_timeout must be >= 0, got {drain_timeout}"
            )
        self.drain_timeout = drain_timeout
        self.requested = False
        self.force = False
        self.signal_name: Optional[str] = None
        self._deadline: Optional[float] = None
        self._previous: Dict[int, Any] = {}

    def request(self, signal_name: str = "manual") -> None:
        """First call starts the drain; a second call forces the abort."""
        if self.requested:
            self.force = True
        else:
            self.requested = True
            self.signal_name = signal_name
            self._deadline = time.monotonic() + self.drain_timeout

    @property
    def abort(self) -> bool:
        """True once draining must stop: forced, or past the deadline."""
        return self.force or (
            self._deadline is not None and time.monotonic() >= self._deadline
        )

    def _handler(self, signum: int, frame: Any) -> None:
        already = self.requested
        self.request(signal.Signals(signum).name)
        if already:
            self.uninstall()  # third signal → default disposition → death

    def install(self) -> "GracefulShutdown":
        """Route SIGINT/SIGTERM through this object (main thread only)."""
        for name in self.SIGNAL_NAMES:
            signum = getattr(signal, name, None)
            if signum is None:  # pragma: no cover - exotic platforms
                continue
            try:
                self._previous[signum] = signal.signal(signum, self._handler)
            except ValueError:  # pragma: no cover - not the main thread
                pass
        return self

    def uninstall(self) -> None:
        for signum, previous in list(self._previous.items()):
            try:
                signal.signal(signum, previous)
            except ValueError:  # pragma: no cover - not the main thread
                pass
        self._previous.clear()

    def __enter__(self) -> "GracefulShutdown":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()


# ---------------------------------------------------------------------------
# Scenario identity and cache keys


def scenario_key(spec: RunSpec) -> str:
    """Stable identity of a scenario *shape*, independent of its seed.

    Two specs that differ only in ``config.seed`` are the same scenario:
    replications of it draw their seeds from this key, so adding a scenario
    to a grid can never perturb another scenario's randomness.
    """
    payload = spec.to_dict()
    payload["config"].pop("seed")
    return stable_digest(payload)


def run_digest(spec: RunSpec) -> str:
    """Content-address of one fully-seeded run, including the code schema.

    This is the cache key: it covers every parameter the simulation result
    depends on, plus :data:`CACHE_SCHEMA_VERSION` so bumping that constant
    invalidates all previously cached results at once.
    """
    return stable_digest(
        {"schema": CACHE_SCHEMA_VERSION, "spec": spec.to_dict()}
    )


# ---------------------------------------------------------------------------
# Campaign plan and results


@dataclass(frozen=True)
class CampaignRun:
    """One schedulable unit: a seeded spec plus its identity/cache keys."""

    index: int
    scenario: str  # scenario_key(spec) — seed-independent identity
    replication: int
    seed: int
    spec: RunSpec  # spec.config.seed == seed
    digest: str  # run_digest(spec) — the cache key


@dataclass
class RunRecord:
    """Outcome of one campaign run.

    ``metrics`` is the run's canonical plain data and the sole input to
    fingerprints; ``manifest`` is the run's provenance document (wall time,
    platform, spec, result digest) — attached for attribution, excluded from
    every determinism comparison by construction.
    """

    run: CampaignRun
    metrics: Dict[str, Any]  # RunResult.to_dict() — canonical plain data
    cached: bool
    manifest: Optional[Dict[str, Any]] = None

    @property
    def result(self) -> RunResult:
        res = RunResult.from_dict(self.metrics)
        res.manifest = self.manifest
        return res

    def metrics_bytes(self) -> bytes:
        """Canonical byte serialization, for bit-identity comparisons."""
        return canonical_json(self.metrics).encode("utf-8")


@dataclass
class FailedRun:
    """A unit quarantined after exhausting its retries."""

    run: CampaignRun
    error: str
    attempts: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.run.index,
            "scenario": self.run.scenario,
            "replication": self.run.replication,
            "seed": self.run.seed,
            "digest": self.run.digest,
            "error": self.error,
            "attempts": self.attempts,
        }


@dataclass
class CampaignResult:
    """All records of a campaign, in the order the grid listed them.

    ``failed`` holds the quarantined units — present only when workers
    crashed or hung past their retry budget.  ``records`` then covers the
    surviving subset, still in grid order, so a partially failed campaign
    yields partial (explicitly attributed) results instead of nothing.
    """

    records: List[RunRecord] = field(default_factory=list)
    failed: List[FailedRun] = field(default_factory=list)
    #: Corrupt cache entries evicted (and recomputed) during this campaign —
    #: the delta of :attr:`CampaignCache.evictions` across the run.  An
    #: environment fact: eviction forces recomputation, never different bytes.
    cache_evictions: int = 0
    #: Graceful shutdown stopped the campaign before every planned unit
    #: resolved.  The journal (if one was attached) is resumable.
    interrupted: bool = False
    #: How many units the campaign planned (0 when constructed by hand).
    planned: int = 0

    @property
    def complete(self) -> bool:
        return not self.failed and not self.interrupted

    @property
    def remaining(self) -> int:
        """Planned units neither recorded nor quarantined (interruption)."""
        return max(0, self.planned - len(self.records) - len(self.failed))

    @property
    def executed(self) -> int:
        return sum(1 for r in self.records if not r.cached)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.cached)

    def results(self) -> List[RunResult]:
        return [record.result for record in self.records]

    def fingerprint(self) -> str:
        """Digest of every run's metrics, keyed by (scenario, replication).

        Keying by identity rather than grid position makes fingerprints of
        reordered-but-equal campaigns compare equal — the determinism
        property the tests assert.  Equal to ``stable_digest`` of the
        ``{key: metrics}`` dict, streamed: canonical JSON sorts keys, so
        each record's bytes are hashed in key order without materialising
        the JSON of the whole campaign.
        """
        by_key = {
            f"{r.run.scenario}:{r.run.replication}": r for r in self.records
        }
        digest = hashlib.sha256(b"{")
        for n, key in enumerate(sorted(by_key)):
            digest.update(
                (b"," if n else b"") + canonical_json(key).encode("utf-8") + b":"
            )
            digest.update(by_key[key].metrics_bytes())
        digest.update(b"}")
        return digest.hexdigest()


# ---------------------------------------------------------------------------
# Grid construction helpers


def chain_grid(
    variants: Sequence[str],
    hops_list: Sequence[int],
    config: Optional[ScenarioConfig] = None,
    record_dynamics: bool = False,
) -> List[RunSpec]:
    """The paper's staple grid: every (variant, hops) single-flow chain."""
    config = config or ScenarioConfig()
    return [
        RunSpec(kind="chain", hops=hops, variants=(variant,), config=config,
                record_dynamics=record_dynamics)
        for variant in variants
        for hops in hops_list
    ]


def plan_campaign(
    grid: Sequence[RunSpec],
    replications: int = 1,
    base_seed: int = 1,
) -> List[CampaignRun]:
    """Expand a scenario grid into seeded, cache-addressed run units.

    A scenario the grid names more than once is planned once, at its first
    position: its replications would be the same keys, seeds and digests.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    runs: List[CampaignRun] = []
    planned = set()
    for spec in grid:
        key = scenario_key(spec)
        if key in planned:
            continue
        planned.add(key)
        for replication in range(replications):
            seed = derive_run_seed(base_seed, key, replication)
            seeded = spec.with_seed(seed)
            runs.append(
                CampaignRun(
                    index=len(runs),
                    scenario=key,
                    replication=replication,
                    seed=seed,
                    spec=seeded,
                    digest=run_digest(seeded),
                )
            )
    return runs


# ---------------------------------------------------------------------------
# Execution


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor treats crashed or hung workers.

    ``task_timeout`` is a wall-clock deadline per attempt in seconds (None
    disables the watchdog).  A failed attempt is retried up to
    ``max_retries`` times — attempt ``n``'s retry waits
    ``backoff * 2**(n-1)`` seconds first — after which the unit is
    quarantined into ``CampaignResult.failed``.
    """

    task_timeout: Optional[float] = None
    max_retries: int = 2
    backoff: float = 0.25

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {self.task_timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")

    def retry_delay(self, attempt: int) -> float:
        """Backoff before the retry that follows failed attempt ``attempt``."""
        return self.backoff * (2 ** (attempt - 1))


def _maybe_injected_crash(index: int) -> None:
    """Honour the :data:`CRASH_ONCE_ENV` chaos hook (no-op when unset)."""
    spec = os.environ.get(CRASH_ONCE_ENV)
    if not spec:
        return
    sentinel, _, target = spec.rpartition(":")
    if not sentinel or not target or int(target) != index:
        return
    path = Path(sentinel)
    if path.exists():
        return  # the one allowed crash already happened
    path.touch()
    os._exit(13)


def _maybe_barrier(index: int) -> None:
    """Honour the :data:`BARRIER_ENV` rendezvous hook (no-op when unset)."""
    spec = os.environ.get(BARRIER_ENV)
    if not spec:
        return
    base, _, target = spec.rpartition(":")
    if not base or not target or int(target) != index:
        return
    ready = Path(base + ".ready")
    if ready.exists():
        return  # the barrier already fired (retry or resumed campaign)
    ready.touch()
    go = Path(base + ".go")
    while not go.exists():
        time.sleep(0.02)


def _execute_unit(
    args: Tuple[int, RunSpec]
) -> Tuple[int, Dict[str, Any], Optional[Dict[str, Any]]]:
    """Worker entry point: run one spec, return (index, metrics, manifest)."""
    index, spec = args
    _maybe_injected_crash(index)
    _maybe_barrier(index)
    result = execute_run(spec)
    return index, result.to_dict(), result.manifest


# ---------------------------------------------------------------------------
# The supervisor loop


@dataclass
class _PoolWorker:
    """Supervisor bookkeeping for one worker (any transport).

    ``batch`` lists the (run, attempt) pairs currently dispatched to the
    worker, in execution order: the head is the unit executing right now,
    the tail is queued behind it in the worker's loop.  ``deadline`` is the
    head unit's watchdog cutoff (reset every time a result arrives).
    """

    link: Any  # transport.WorkerLink
    wid: str = ""  # telemetry worker id ("w<n>")
    batch: List[Tuple[CampaignRun, int]] = field(default_factory=list)
    deadline: Optional[float] = None

    @property
    def idle(self) -> bool:
        return not self.batch


def _run_pool(
    transport: Transport,
    pending: Sequence[CampaignRun],
    jobs: int,
    policy: RetryPolicy,
    store: Callable[[CampaignRun, Dict[str, Any], Optional[Dict[str, Any]]], None],
    quarantine: Callable[[FailedRun], None],
    telemetry: Optional[CampaignTelemetry] = None,
    shutdown: Optional[GracefulShutdown] = None,
) -> None:
    """Run ``pending`` on a work-stealing pool of supervised workers.

    ``transport`` provides the :class:`~repro.experiments.transport.
    WorkerLink` objects — the coordinating process itself
    (``InlineTransport``) or forked pipe workers (``PipeTransport``) —
    and idle workers pull from one shared ready-queue.  The retry,
    quarantine, watchdog, drain and telemetry policy lives here and
    nowhere else:

    * a worker that dies (crash, ``os._exit``, kill) is detected via pipe
      EOF; the unit it was executing is charged a failed attempt, the rest
      of its batch is requeued un-charged, and a fresh worker is spawned to
      keep the pool at strength;
    * a reply that is not for its worker's head unit is never stored: the
      link is severed and handled as a crash;
    * a worker whose head unit overstays ``policy.task_timeout`` is
      killed by the watchdog and replaced the same way;
    * failed attempts retry with exponential backoff (the backoff clock
      lives in the ready-queue, so a waiting retry never blocks a worker);
    * units that exhaust their retries are quarantined and the campaign
      completes without them.

    ``shutdown.requested`` turns the loop into a drain: no new spawns or
    dispatches, in-flight batches are awaited until ``shutdown.abort``
    (force or deadline), then every worker is stopped — TERM escalating to
    KILL for any that ignore it.  Units never dispatched (or requeued by
    retries during the drain) stay unexecuted and unjournaled: they are the
    remainder a resume picks up.
    """
    target_workers = max(1, min(jobs, len(pending)))
    #: The shared work queue: (run, attempt) pairs any idle worker may take.
    ready: Deque[Tuple[CampaignRun, int]] = deque((run, 1) for run in pending)
    #: Retries waiting out their backoff: (monotonic ready_time, run, attempt).
    backoff: List[Tuple[float, CampaignRun, int]] = []
    workers: Dict[Any, _PoolWorker] = {}  # link -> worker
    worker_serial = itertools.count(1)
    #: Workers lost to a crash or the watchdog and not yet replaced.
    lost = 0

    def spawn() -> None:
        nonlocal lost
        link = transport.spawn()
        wid = f"w{next(worker_serial)}"
        workers[link] = _PoolWorker(link=link, wid=wid)
        if telemetry is not None:
            telemetry.worker_spawned(wid, link.pid, replacement=lost > 0)
        lost = max(0, lost - 1)

    def fail(worker: _PoolWorker, run: CampaignRun, attempt: int,
             status: str, error: str) -> None:
        """One charged failed attempt: its span, then retry or quarantine."""
        if telemetry is not None:
            telemetry.unit_result(
                worker.wid, run.index, attempt, status,
                scenario=run.scenario[:12], replication=run.replication,
                error=error,
            )
        if attempt <= policy.max_retries:
            delay = policy.retry_delay(attempt)
            if telemetry is not None:
                telemetry.retry_scheduled(run.index, attempt, delay, error)
            backoff.append((time.monotonic() + delay, run, attempt + 1))
        else:
            quarantine(FailedRun(run=run, error=error, attempts=attempt))

    def requeue_innocent(worker: _PoolWorker) -> None:
        """Units queued behind a failed head unit go back un-charged."""
        ready.extend(worker.batch)
        worker.batch = []

    def retire(worker: _PoolWorker, kill: bool) -> None:
        nonlocal lost
        lost += 1
        workers.pop(worker.link)
        if kill:
            worker.link.kill()
        else:
            worker.link.reap()

    def stop(worker: _PoolWorker) -> None:
        """Orderly exit: the worker is done, it did not fail."""
        workers.pop(worker.link)
        worker.link.stop()
        if telemetry is not None:
            telemetry.worker_exited(
                worker.wid, "stop", exitcode=worker.link.exitcode
            )

    def on_worker_death(worker: _PoolWorker, kill: bool = False) -> None:
        retire(worker, kill)
        code = worker.link.exitcode
        if worker.batch:
            run, attempt = worker.batch.pop(0)
            fail(worker, run, attempt, "crash",
                 f"worker crashed (exit code {code})")
            requeue_innocent(worker)
        if telemetry is not None:
            telemetry.worker_exited(worker.wid, "crash", exitcode=code)

    def on_worker_timeout(worker: _PoolWorker) -> None:
        retire(worker, kill=True)
        run, attempt = worker.batch.pop(0)
        fail(worker, run, attempt, "timeout",
             f"timed out after {policy.task_timeout:g}s wall clock")
        requeue_innocent(worker)
        if telemetry is not None:
            telemetry.worker_exited(
                worker.wid, "timeout", exitcode=worker.link.exitcode
            )

    def on_message(worker: _PoolWorker, message: Tuple[Any, ...]) -> None:
        run, attempt = worker.batch.pop(0)
        now = time.monotonic()
        worker.deadline = (
            now + policy.task_timeout
            if worker.batch and policy.task_timeout is not None
            else None
        )
        if message[0] == "ok":
            if telemetry is not None:
                telemetry.unit_result(
                    worker.wid, run.index, attempt, "ok",
                    scenario=run.scenario[:12], replication=run.replication,
                    manifest=message[3],
                )
            store(run, message[2], message[3])
        else:
            fail(worker, run, attempt, "error", message[2])

    def dispatch() -> None:
        """Hand ready units to idle workers, ``transport.prefetch`` each.

        This *is* the work-stealing: the queue is shared, idle workers
        pull from it, and the per-worker grain shrinks as the queue does,
        so the tail of a campaign spreads over every worker.
        """
        idle = [w for w in workers.values() if w.idle]
        if not idle:
            return
        now = time.monotonic()
        due = [entry for entry in backoff if entry[0] <= now]
        if due:  # expired retries go to the head of the line, oldest first
            backoff[:] = [entry for entry in backoff if entry[0] > now]
            ready.extendleft((run, attempt) for _, run, attempt in reversed(due))
        per = max(1, min(transport.prefetch, -(-len(ready) // len(idle))))
        for worker in idle:
            chunk = [ready.popleft() for _ in range(min(per, len(ready)))]
            if not chunk:
                break
            worker.batch = chunk
            worker.deadline = (
                now + policy.task_timeout if policy.task_timeout is not None else None
            )
            # Announced before the send: an inline link executes the
            # batch inside ``send_batch``, and its spans must start here.
            if telemetry is not None:
                telemetry.batch_dispatched(
                    worker.wid, [run.index for run, _ in chunk]
                )
            try:
                worker.link.send_batch(
                    [(run.index, run.spec, run.digest) for run, _ in chunk]
                )
            except (BrokenPipeError, OSError):
                # Death noticed mid-send: the worker never received the
                # batch, so nothing was executing — requeue the whole chunk
                # un-charged and let the wait loop reap the (now idle)
                # corpse without blaming the head unit; its exit closes the
                # announced batch span as aborted.
                requeue_innocent(worker)

    try:
        while ready or backoff or any(not w.idle for w in workers.values()):
            draining = shutdown is not None and shutdown.requested
            if draining:
                # Drain: no new spawns or dispatches; leave once every
                # in-flight batch has resolved or the deadline/force hits.
                if shutdown.abort or all(w.idle for w in workers.values()):
                    break
            else:
                # Bring the pool to strength and keep it there: crashed
                # workers are succeeded as long as there is (or will
                # be) work for them.
                while transport.can_spawn and (
                    len(workers) < target_workers
                ) and (
                    ready or backoff
                    or any(not w.idle for w in workers.values())
                ):
                    spawn()
                dispatch()
            if telemetry is not None:
                telemetry.tick()
            now = time.monotonic()
            timeout = 0.5
            deadlines = [
                w.deadline for w in workers.values() if w.deadline is not None
            ]
            if deadlines:
                timeout = min(timeout, max(0.0, min(deadlines) - now))
            # Only FUTURE backoff expiries bound the wait: ready-now units
            # (and retries already due) are picked up by ``dispatch()`` as
            # soon as a worker goes idle, which always coincides with its
            # connection becoming readable.  Letting them clamp the
            # timeout to zero would busy-spin the coordinator and starve
            # the workers of CPU while every worker is mid-batch.
            future_ready = [at for at, _, _ in backoff if at > now]
            if future_ready:
                timeout = min(timeout, max(0.0, min(future_ready) - now))
            for link in multiprocessing.connection.wait(
                list(workers), timeout=timeout
            ):
                worker = workers[link]
                try:
                    message = worker.link.recv()
                except (EOFError, OSError):
                    on_worker_death(worker)
                    continue
                if worker.batch and message[1] == worker.batch[0][0].index:
                    on_message(worker, message)
                else:
                    # A reply is only ever for the head unit.  Anything else
                    # (a confused worker) would be stored as the head unit's
                    # result: sever the link instead.
                    on_worker_death(worker, kill=True)
            now = time.monotonic()
            for worker in [
                w for w in workers.values()
                if w.deadline is not None and now >= w.deadline
            ]:
                on_worker_timeout(worker)
    finally:
        for worker in list(workers.values()):
            stop(worker)


ProgressFn = Callable[[RunRecord, int, int], None]


def run_campaign(
    grid: Sequence[RunSpec],
    replications: int = 1,
    base_seed: int = 1,
    jobs: Optional[int] = None,
    cache: Optional[CacheStore] = None,
    progress: Optional[ProgressFn] = None,
    policy: Optional[RetryPolicy] = None,
    pool_mode: str = "warm",
    telemetry: Optional[CampaignTelemetry] = None,
    journal: Optional[CampaignJournal] = None,
    resume: Optional[JournalReplay] = None,
    shutdown: Optional[GracefulShutdown] = None,
) -> CampaignResult:
    """Run every ``(spec, replication)`` in ``grid``; return ordered records.

    ``jobs`` is the worker-process count (default ``os.cpu_count()``; ``1``
    with no watchdog executes in-process).  ``cache`` (a
    :class:`~repro.experiments.cachestore.CacheStore`) enables the memo:
    hits skip execution entirely —
    they are resolved before any worker is dispatched, so a fully cached
    campaign never starts a pool.
    ``progress`` is invoked once per finished run — from the coordinating
    process, in completion order — with ``(record, done_count,
    total_count)``.  ``policy`` configures the self-healing supervisor
    (watchdog timeout, retries, backoff); units that exhaust their retries
    land in ``CampaignResult.failed`` and the campaign still completes.

    ``pool_mode`` accepts only ``"warm"`` (persistent workers forked from
    this process; see the module docstring) and is recorded in the journal
    and the telemetry.  ``jobs == 1`` with no watchdog runs the units in
    this process instead — a single-slot pool buys nothing over running
    them directly.

    ``telemetry`` (a :class:`repro.obs.engine.CampaignTelemetry`) streams
    spans, coordinator events, worker heartbeats and progress over NDJSON as
    the campaign runs.  It observes the coordinator only — nothing telemetry
    does can reach a worker or a result, so metrics and fingerprints are
    byte-identical with telemetry on or off.

    Crash safety: ``journal`` (a :class:`~repro.experiments.journal.
    CampaignJournal`) write-ahead-records the plan before any dispatch and
    every completion/quarantine after it.  ``resume`` (a
    :class:`~repro.experiments.journal.JournalReplay`) replays a previous
    generation: it requires a ``cache``, verifies the plan digest matches,
    re-verifies every journaled completion against the cache (drifted or
    missing entries re-execute), and dispatches only the remainder.
    ``shutdown`` (a :class:`GracefulShutdown`) lets SIGINT/SIGTERM stop the
    campaign cooperatively — the result comes back with
    ``interrupted=True`` and the journal closes resumable.

    The returned records are always in grid order, and their metrics are
    byte-identical for any ``jobs`` value — resumed or not: seeds come from
    :func:`plan_campaign`, never from scheduling.
    """
    if pool_mode not in POOL_MODES:
        raise ValueError(
            f"unknown pool_mode {pool_mode!r}; expected one of {POOL_MODES}"
        )
    runs = plan_campaign(grid, replications=replications, base_seed=base_seed)
    jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    policy = policy if policy is not None else RetryPolicy()
    if resume is not None:
        if cache is None:
            raise ValueError(
                "resume requires a cache: journaled completions are "
                "re-verified against (and their results read from) the "
                "content-addressed cache"
            )
        resume.verify_plan(runs)

    records: Dict[int, RunRecord] = {}
    failed: List[FailedRun] = []
    done = 0
    evictions_before = cache.evictions if cache is not None else 0

    if telemetry is not None:
        telemetry.begin_campaign(
            len(runs), pool_mode, jobs,
            base_seed=base_seed, replications=replications,
        )
    if journal is not None:
        journal.begin(
            runs, pool_mode=pool_mode, base_seed=base_seed,
            replications=replications, resumed=resume is not None,
        )
        if resume is not None and len(resume.planned) < len(runs):
            # The first generation was killed inside its write-ahead step.
            journal.plan([r for r in runs if r.index not in resume.planned])

    def finish(record: RunRecord) -> None:
        nonlocal done
        records[record.run.index] = record
        done += 1
        if telemetry is not None:
            telemetry.progress(done, len(runs), len(failed))
        if progress is not None:
            progress(record, done, len(runs))

    def quarantine(failure: FailedRun) -> None:
        nonlocal done
        failed.append(failure)
        done += 1
        if journal is not None:
            journal.failed(failure.run, failure.error, failure.attempts)
        if telemetry is not None:
            telemetry.quarantined(
                failure.run.index, failure.attempts, failure.error
            )
            telemetry.progress(done, len(runs), len(failed))

    pending: List[CampaignRun] = []
    verified = drift = 0
    for run in runs:
        if shutdown is not None and shutdown.requested:
            # Interrupted during cache resolution: everything not yet
            # resolved stays pending-and-undispatched → the remainder.
            pending = []
            break
        loaded = None
        if cache is not None:
            seen_evictions = cache.evictions
            loaded = cache.load(run.digest)
            if telemetry is not None and cache.evictions > seen_evictions:
                telemetry.cache_evicted(run.index, run.digest)
        if resume is not None and run.index in resume.completed:
            # Re-verify the journaled completion against the cache: the
            # entry must exist, pass its checksum (cache.load), and hash to
            # the journaled result digest.  Anything else is drift — the
            # unit re-executes.
            if loaded is not None and loaded[1] == resume.completed[run.index]:
                verified += 1
            else:
                drift += 1
                loaded = None
        if loaded is not None:
            payload, result_digest = loaded
            if telemetry is not None:
                telemetry.cache_hit(run.index, run.digest)
                # Cached units get a span too (consumers see every unit),
                # but no manifest: its timings/engine facts describe the
                # original execution, not this campaign.
                telemetry.unit_result(
                    "cache", run.index, 0, "ok", cached=True,
                    scenario=run.scenario[:12], replication=run.replication,
                )
            if journal is not None:
                journal.done(run, result_digest, cached=True)
            finish(RunRecord(run=run, metrics=payload["result"], cached=True,
                             manifest=payload.get("manifest")))
        else:
            if telemetry is not None and cache is not None:
                telemetry.cache_miss(run.index, run.digest)
            pending.append(run)

    if resume is not None and telemetry is not None:
        telemetry.campaign_resumed(
            str(resume.path), verified=verified, drift=drift,
            remainder=len(pending),
        )

    def store(run: CampaignRun, metrics: Dict[str, Any],
              manifest: Optional[Dict[str, Any]]) -> None:
        # The store hashes the result while it encodes it; only a
        # cacheless journal has to encode for the digest alone.
        if cache is not None:
            result_digest = cache.put(
                run.digest, {"result": metrics, "manifest": manifest}
            )
        elif journal is not None:
            result_digest = stable_digest(metrics)
        if journal is not None:
            # Journaled after cache.put: a done record implies the cache
            # holds the result, which is what resume verification assumes.
            journal.done(run, result_digest, cached=False)
        finish(RunRecord(run=run, metrics=metrics, cached=False,
                         manifest=manifest))

    if pending:
        if jobs == 1 and policy.task_timeout is None:
            # A single-slot pool with no watchdog buys nothing over
            # running the units right here.
            pool: Transport = InlineTransport(_execute_unit)
        else:
            pool = PipeTransport(_execute_unit)
        _run_pool(pool, pending, jobs, policy, store, quarantine,
                  telemetry, shutdown)

    failed.sort(key=lambda f: f.run.index)
    evictions = (cache.evictions - evictions_before) if cache is not None else 0
    remaining = len(runs) - len(records) - len(failed)
    # A signal that lands after the last unit resolves is not an
    # interruption: nothing is missing, the campaign simply completed.
    interrupted = (
        shutdown is not None and shutdown.requested and remaining > 0
    )
    result = CampaignResult(
        records=[records[i] for i in sorted(records)],
        failed=failed,
        cache_evictions=evictions,
        interrupted=interrupted,
        planned=len(runs),
    )
    if telemetry is not None:
        if interrupted:
            telemetry.campaign_interrupted(
                shutdown.signal_name or "manual",
                done=done, total=len(runs),
            )
        telemetry.end_campaign(
            executed=result.executed,
            cache_hits=result.cache_hits,
            cache_evictions=evictions,
            failed=len(failed),
            interrupted=interrupted,
            remaining=remaining,
        )
    if journal is not None:
        if interrupted:
            status = "interrupted"
        elif failed:
            status = "partial"
        else:
            status = "ok"
        journal.end(
            status=status,
            # No fingerprint for an interrupted generation: the digest of a
            # partial record set would collide meaninglessly with nothing.
            fingerprint=None if interrupted else result.fingerprint(),
            executed=result.executed,
            cache_hits=result.cache_hits,
            quarantined=len(failed),
            remaining=remaining,
        )
    return result
