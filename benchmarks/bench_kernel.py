"""Microbenchmarks of the simulation substrate itself.

Not a paper figure — these track the cost of the hot paths so substrate
regressions are visible next to the figure campaigns.  End-to-end
packets/sec is ``exp.runner.packets_per_s`` of ``benchmarks/e2e``; here are
only the micro rates it does not measure:

* ``scheduler_events_per_sec`` — schedule-and-run cost of plain timer events;
* ``scheduler_churn_ops_per_sec`` — the MAC backoff pattern
  (schedule -> cancel -> reschedule), which exercises lazy deletion and the
  event freelist;
* ``channel_fanout_tx_per_sec`` — per-transmission fan-out cost on an 8-radio
  chain (Signal construction + 2 events per carrier-sense neighbour);
* ``phy_fanout_reference_tx_per_sec`` / ``phy_fanout_production_tx_per_sec``
  — transmit-side fan-out cost proper (event execution excluded) on a dense
  48-radio cluster with an active error model, once through
  ``WirelessChannel.transmit_reference`` (one ``schedule()`` per event) and
  once through the production ``transmit`` (one bulk heap insertion); their
  ratio is the ``lane_speedup`` floor ``--check`` enforces.

Two entry points:

* ``python benchmarks/bench_kernel.py`` — the ``harness`` CLI: prints a
  table, writes ``results/BENCH_kernel.json``, and with ``--check`` applies
  the one regression gate plus the transmit floor;
* ``pytest benchmarks/bench_kernel.py`` — the same measurements as
  pytest-benchmark cases, marked ``perf`` and excluded from the tier-1 run.
"""

from __future__ import annotations

import sys
import time
from functools import partial

import pytest

from harness import Suite, main, rate

pytestmark = pytest.mark.perf

#: ``--check`` floor: production transmit over the reference on the
#: width-47 fan-out bench.
MIN_PRODUCTION_OVER_REFERENCE = 1.5


# -- measurement cores (shared by pytest and the standalone runner) ----------


def run_scheduler_throughput(n: int = 50_000) -> int:
    """Schedule-and-run ``n`` timer events; returns the fired count."""
    from repro.sim import EventScheduler

    sched = EventScheduler()
    counter = [0]

    def tick():
        counter[0] += 1

    for i in range(n):
        sched.schedule(i * 1e-5, tick)
    sched.run()
    return counter[0]


def run_scheduler_churn(n: int = 20_000) -> int:
    """The MAC backoff pattern: schedule -> cancel -> reschedule, n times.

    Returns the number of scheduler operations performed (3 per round).
    """
    from repro.sim import EventScheduler

    sched = EventScheduler()
    fired = [0]

    def tick():
        fired[0] += 1

    t = 0.0
    for _ in range(n):
        doomed = sched.schedule(t + 1.0, tick)
        sched.cancel(doomed)
        sched.schedule(t + 1e-5, tick)
        sched.run(max_events=1)
        t = sched.now
    assert fired[0] == n
    return 3 * n


def run_channel_fanout(n_tx: int = 2_000) -> int:
    """Fan ``n_tx`` frames out from the middle of an 8-radio chain."""
    from repro.phy import Position, WirelessChannel
    from repro.phy.radio import Radio
    from repro.sim import Simulator

    sim = Simulator(seed=1)
    channel = WirelessChannel(sim)
    radios = [Radio(sim, i) for i in range(8)]
    for i, radio in enumerate(radios):
        channel.register(radio, Position(200.0 * i, 0.0))

    class Frame:
        size_bytes = 1000

    frame = Frame()
    for _ in range(n_tx):
        channel.transmit(radios[3], frame, 1e-4)
        sim.run(until=sim.now + 1e-3)
    return n_tx


def use_reference_transmit(channel) -> None:
    """Shadow ``channel.transmit`` with the reference implementation — the
    seam the equivalence tests use; nothing selects it at run time."""
    channel.transmit = channel.transmit_reference


def run_phy_fanout_lane(path: str, n_tx: int = 1_500, chunk: int = 50):
    """Transmit-side fan-out cost on a dense cluster, for one transmit path
    (``"reference"`` or ``"production"``).

    48 radios at 10 m spacing put every radio inside every other's
    carrier-sense range (fan-out width 47 — comparable to the dense
    cross-topology centre) with a live ``UniformBitError`` medium, so the
    departure trampoline is armed exactly as in lossy experiment runs.  Only
    the ``transmit()`` calls are timed — the ~2/3 of wall time spent
    *executing* the fanned-out events is identical machinery for both paths
    and would dilute the comparison to uselessness.

    Noise control: the *ratio* gates CI, and both paths do fixed
    identical-shape work per transmit, so the honest clean-machine estimate
    is the **fastest chunk** of ``chunk`` transmits rather than the run
    mean — an accumulated mean lets one scheduler preemption land in a
    single path's timed sections and swing the ratio by 1.5x on shared
    runners (observed), while min-of-chunks is stable to ~2%.  Returns
    ``(chunk, best_chunk_seconds)``.
    """
    from repro.phy import Position, UniformBitError, WirelessChannel
    from repro.phy.radio import Radio
    from repro.sim import Simulator

    sim = Simulator(seed=1)
    channel = WirelessChannel(sim, error_model=UniformBitError(1e-5))
    if path == "reference":
        use_reference_transmit(channel)
    radios = [Radio(sim, i) for i in range(48)]
    for i, radio in enumerate(radios):
        channel.register(radio, Position(10.0 * i, 0.0))

    class Frame:
        size_bytes = 1460

    frame = Frame()
    src = radios[24]
    transmit = channel.transmit
    perf_counter = time.perf_counter
    # Warm the fan-out caches outside the timed sections.
    transmit(src, frame, 1e-4)
    sim.run(until=sim.now + 1e-3)
    best = float("inf")
    done = 0
    while done < n_tx:
        total = 0.0
        for _ in range(chunk):
            t0 = perf_counter()
            transmit(src, frame, 1e-4)
            total += perf_counter() - t0
            sim.run(until=sim.now + 1e-3)  # drain, untimed
        done += chunk
        best = min(best, total)
    return chunk, best


#: Metric -> (measurement core, repetitions, repetitions with ``--fast``).
#: The fan-out pair stays adjacent: its *ratio* is a ``--check`` floor, and
#: adjacency keeps slow container drift out of it.
METRICS = {
    "scheduler_events_per_sec": (run_scheduler_throughput, 5, 2),
    "scheduler_churn_ops_per_sec": (run_scheduler_churn, 5, 2),
    "channel_fanout_tx_per_sec": (run_channel_fanout, 3, 2),
    "phy_fanout_reference_tx_per_sec": (partial(run_phy_fanout_lane, "reference"), 3, 2),
    "phy_fanout_production_tx_per_sec": (partial(run_phy_fanout_lane, "production"), 3, 2),
}


def measure_all(fast=False, names=None):
    """Metric-name -> ops/sec for ``names`` (default: the whole suite)."""
    return {
        name: rate(work, fast_reps if fast else reps)
        for name, (work, reps, fast_reps) in METRICS.items()
        if names is None or name in names
    }


# -- pytest-benchmark cases --------------------------------------------------


def test_scheduler_event_throughput(benchmark):
    """Schedule-and-run cost of 50k timer events."""
    assert benchmark(run_scheduler_throughput) == 50_000


def test_scheduler_churn(benchmark):
    """Lazy-deletion + freelist cost of the MAC backoff pattern."""
    assert benchmark.pedantic(run_scheduler_churn, rounds=3, iterations=1) == 60_000


def test_channel_fanout(benchmark):
    """Per-transmission fan-out cost on an 8-radio chain."""
    assert benchmark.pedantic(run_channel_fanout, rounds=3, iterations=1) == 2_000


def test_mac_exchange_rate(benchmark):
    """Saturated one-hop 802.11 exchange rate (RTS/CTS/DATA/ACK each)."""
    from repro.routing import install_static_routing
    from repro.topology import build_chain
    from repro.traffic import start_ftp

    def campaign():
        net = build_chain(1, seed=1)
        install_static_routing(net.nodes, net.channel)
        flow = start_ftp(net.sim, net.nodes[0], net.nodes[1], variant="newreno", window=8)
        net.sim.run(until=5.0)
        return flow.sink.delivered_packets

    delivered = benchmark.pedantic(campaign, rounds=1, iterations=1)
    assert delivered > 200  # ~ >40 packets/s over one hop


@pytest.mark.parametrize("path", ["reference", "production"])
def test_phy_fanout(benchmark, path):
    """Transmit-side fan-out cost, reference and production transmit."""
    ops, _ = benchmark.pedantic(
        lambda: run_phy_fanout_lane(path, n_tx=500), rounds=2, iterations=1
    )
    assert ops == 50  # one chunk


# -- suite declaration -------------------------------------------------------


def _lane_speedup(current):
    return {"lane_speedup": round(
        current["phy_fanout_production_tx_per_sec"]
        / current["phy_fanout_reference_tx_per_sec"], 2)}


SUITE = Suite("bench_kernel", measure_all, derived=_lane_speedup,
              floors={"lane_speedup": MIN_PRODUCTION_OVER_REFERENCE},
              together=[("phy_fanout_reference_tx_per_sec",
                         "phy_fanout_production_tx_per_sec")])

if __name__ == "__main__":
    sys.exit(main(SUITE))
