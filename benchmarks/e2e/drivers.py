"""Layer drivers: timed calls into one layer's public functions.

Each driver isolates a layer the workload it is listed under leans on, so
a change to that layer shows here first and in the workload's end-to-end
number second.  They run in the traced run, after the passes, untraced.
A driver reports the median of ``repeats`` short timing loops.
"""

from __future__ import annotations

import itertools
import json
import socket
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.experiments import (
    CampaignCache,
    CampaignJournal,
    ScenarioConfig,
    execute_run,
    export_multi_series_csv,
    plan_campaign,
    read_multi_series_csv,
    replay_journal,
    run_chain,
)
from repro.experiments.transport import recv_frame, send_frame
from repro.obs.metrics import collect_network_metrics
from repro.phy import Position, WirelessChannel
from repro.phy.radio import Radio
from repro.sim import EventScheduler, Simulator
from repro.topology import grid_positions

Work = Callable[[], Tuple[int, float]]


class Timer:
    """Medians over ``repeats`` runs of a piece of work, which returns
    ``(operations, seconds)``."""

    def __init__(self, repeats: int) -> None:
        self.repeats = repeats

    def rate(self, work: Work) -> float:
        """Median operations per second."""
        return statistics.median(
            ops / seconds
            for ops, seconds in (work() for _ in range(self.repeats))
        )

    def us(self, work: Work) -> float:
        """Median microseconds per operation."""
        return 1e6 / self.rate(work)


def timed(n: int, call: Callable[[], Any]) -> Tuple[int, float]:
    t0 = time.perf_counter()
    for _ in range(n):
        call()
    return n, time.perf_counter() - t0


# -- sim -----------------------------------------------------------------------


def sched_events(n: int = 50_000) -> Tuple[int, float]:
    """Schedule-and-run ``n`` plain timer events."""
    sched = EventScheduler()
    fired = [0]

    def tick() -> None:
        fired[0] += 1

    t0 = time.perf_counter()
    for i in range(n):
        sched.schedule(i * 1e-5, tick)
    sched.run()
    elapsed = time.perf_counter() - t0
    if fired[0] != n:
        raise AssertionError(f"scheduler fired {fired[0]} of {n} events")
    return n, elapsed


def sched_churn(n: int = 20_000) -> Tuple[int, float]:
    """The MAC backoff pattern: schedule, cancel, reschedule, run one."""
    sched = EventScheduler()

    def tick() -> None:
        pass

    t0 = time.perf_counter()
    now = 0.0
    for _ in range(n):
        sched.cancel(sched.schedule(now + 1.0, tick))
        sched.schedule(now + 1e-5, tick)
        sched.run(max_events=1)
        now = sched.now
    return 3 * n, time.perf_counter() - t0


# -- phy -----------------------------------------------------------------------


class _Frame:
    size_bytes = 1460


def fanout(positions: List[Position], source: int,
           n_tx: int) -> Tuple[int, float]:
    """Transmit ``n_tx`` frames from one radio and run the fanned-out
    signal events to completion."""
    sim = Simulator(seed=1)
    channel = WirelessChannel(sim)
    radios = [Radio(sim, i) for i in range(len(positions))]
    for radio, position in zip(radios, positions):
        channel.register(radio, position)
    frame = _Frame()
    channel.transmit(radios[source], frame, 1e-4)  # builds the fan-out cache
    sim.run(until=sim.now + 1e-3)
    t0 = time.perf_counter()
    for _ in range(n_tx):
        channel.transmit(radios[source], frame, 1e-4)
        sim.run(until=sim.now + 1e-3)
    return n_tx, time.perf_counter() - t0


def chain_fanout() -> Tuple[int, float]:
    """The paper's topologies: 8 radios 200 m apart, fan-out about 4."""
    return fanout([Position(200.0 * i, 0.0) for i in range(8)], 3, 2_000)


def dense_fanout() -> Tuple[int, float]:
    """The dense grid's 49 radios, fan-out 48 (the wide numpy path)."""
    return fanout(grid_positions(7, 7, 50.0), 24, 500)


# -- obs / exp.runner / exp.export ------------------------------------------------


def sample_run() -> Tuple[Any, Any, Any]:
    """A short real run and the network it ran on."""
    seen: List[Any] = []
    result = run_chain(
        4, ["muzha"], config=ScenarioConfig(sim_time=1.0, seed=1),
        instrument=lambda network, flows: seen.append((network, flows)),
    )
    network, flows = seen[0]
    return result, network, flows


def csv_round_trip(path: Path) -> Tuple[int, float]:
    series = {
        f"flow{k}": [(0.01 * i, float((i * 7 + k) % 32)) for i in range(2_000)]
        for k in range(4)
    }
    rows = sum(len(s) for s in series.values())
    t0 = time.perf_counter()
    export_multi_series_csv(series, path)
    loaded = read_multi_series_csv(path)
    elapsed = time.perf_counter() - t0
    if sum(len(s) for s in loaded.values()) != rows:
        raise AssertionError("csv round trip lost rows")
    return rows, elapsed


# -- the drivers of each workload --------------------------------------------------


def paper_figures(workload: Any, timer: Timer) -> Dict[str, float]:
    result, network, flows = sample_run()
    path = workload.workdir / "driver.csv"
    return {
        "sim.sched_events_per_s": timer.rate(sched_events),
        "sim.sched_churn_ops_per_s": timer.rate(sched_churn),
        "phy.chain_tx_per_s": timer.rate(chain_fanout),
        "obs.collect_us": timer.us(lambda: timed(
            50, lambda: collect_network_metrics(network, flows).snapshot())),
        "exp.runner.result_digest_us": timer.us(
            lambda: timed(50, result.result_digest)),
        "exp.export.csv_rows_per_s": timer.rate(lambda: csv_round_trip(path)),
    }


def dense_grid(workload: Any, timer: Timer) -> Dict[str, float]:
    return {"phy.dense_tx_per_s": timer.rate(dense_fanout)}


def campaign_cold(workload: Any, timer: Timer) -> Dict[str, float]:
    runs = plan_campaign(workload.grid, workload.replications, workload.seed)
    sample = runs[:50]
    result = execute_run(runs[0].spec)
    payload = {"result": result.to_dict(), "manifest": result.manifest}
    message = {"kind": "result", "index": 0, "metrics": payload["result"],
               "manifest": payload["manifest"]}
    digest = result.result_digest()
    fresh = itertools.count()  # a new directory / journal per repeat

    def plan() -> Tuple[int, float]:
        t0 = time.perf_counter()
        planned = plan_campaign(workload.grid, workload.replications,
                                workload.seed)
        return len(planned), time.perf_counter() - t0

    def put() -> Tuple[int, float]:
        cache = CampaignCache(workload.workdir / f"driver-put-{next(fresh)}")
        t0 = time.perf_counter()
        for run in sample:
            cache.put(run.digest, payload)
        return len(sample), time.perf_counter() - t0

    def frame() -> Tuple[int, float]:
        left, right = socket.socketpair()
        try:
            t0 = time.perf_counter()
            for _ in range(200):
                send_frame(left, message)
                recv_frame(right)
            return 200, time.perf_counter() - t0
        finally:
            left.close()
            right.close()

    def append() -> Tuple[int, float]:
        path = workload.workdir / f"driver-journal-{next(fresh)}.ndjson"
        with CampaignJournal(path) as journal:
            t0 = time.perf_counter()
            for run in sample:
                journal.done(run, digest, cached=False)
                journal.checkpoint()
            return len(sample), time.perf_counter() - t0

    body = json.dumps(message, sort_keys=True, separators=(",", ":"))
    return {
        "exp.campaign.plan_units_per_s": timer.rate(plan),
        "exp.cachestore.put_us": timer.us(put),
        "exp.transport.frame_us": timer.us(frame),
        "exp.transport.frame_bytes": 4 + len(body.encode("utf-8")),
        "exp.journal.append_us": timer.us(append),
    }


def campaign_cached(workload: Any, timer: Timer) -> Dict[str, float]:
    runs = plan_campaign(workload.grid, workload.replications, workload.seed)

    def get() -> Tuple[int, float]:
        t0 = time.perf_counter()
        hits = sum(workload.cache.get(run.digest) is not None for run in runs)
        elapsed = time.perf_counter() - t0
        if hits != len(runs):
            raise AssertionError(f"only {hits} of {len(runs)} entries cached")
        return len(runs), elapsed

    def replay() -> Tuple[int, float]:
        t0 = time.perf_counter()
        replayed = replay_journal(workload.prefill_journal)
        return len(replayed.completed), time.perf_counter() - t0

    return {
        "exp.cachestore.get_us": timer.us(get),
        "exp.journal.replay_units_per_s": timer.rate(replay),
    }


DRIVERS: Dict[str, Callable[[Any, Timer], Dict[str, float]]] = {
    "paper_figures": paper_figures,
    "dense_grid": dense_grid,
    "campaign_cold": campaign_cold,
    "campaign_cached": campaign_cached,
}
