"""Microbenchmarks of the simulation substrate itself.

Not a paper figure — these track the cost of the hot paths so substrate
regressions are visible next to the figure campaigns.  Four metrics:

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
  ratio is the speedup the ``--check`` gate enforces (production >=
  --lane-ratio x reference);
* ``full_chain_packets_per_sec`` — end-to-end packets/sec of the standard
  4-hop, 10 s Muzha run.

Two entry points:

* ``python benchmarks/bench_kernel.py`` — runs the suite, prints a table,
  writes ``results/BENCH_kernel.json`` (current numbers next to the committed
  before/after baseline), and with ``--check`` exits non-zero on a >30%
  events/sec regression against the committed post-overhaul baseline, a
  production transmit slower than ``--lane-ratio`` x the reference, or an
  identity violation (the two must produce byte-identical run digests);
* ``pytest benchmarks/bench_kernel.py`` — the same measurements as
  pytest-benchmark cases, marked ``perf`` and excluded from the tier-1 run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict

import pytest

BASELINE_PATH = Path(__file__).resolve().parent / "baselines" / "bench_kernel_baseline.json"
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "results" / "BENCH_kernel.json"

pytestmark = pytest.mark.perf


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


def lane_identity_digests() -> Dict[str, str]:
    """Result digest of a short lossy full-stack run, per transmit path.

    The byte-identity contract reduced to one number per path: equal
    digests mean equal event orders, RNG draw sequences and result bytes.
    """
    from repro.experiments import ScenarioConfig, run_chain
    from repro.experiments.config import stable_digest

    config = ScenarioConfig(
        sim_time=2.0, seed=7, window=4, packet_error_rate=0.05
    )
    instruments = {
        "reference": lambda network, flows: use_reference_transmit(network.channel),
        "production": None,
    }
    return {
        path: stable_digest(
            run_chain(3, ["muzha"], config=config, instrument=instrument).to_dict()
        )
        for path, instrument in instruments.items()
    }


def run_full_chain() -> int:
    """The standard 4-hop, 10 s Muzha experiment; returns delivered packets."""
    from repro.experiments import ScenarioConfig, run_chain

    result = run_chain(4, ["muzha"], config=ScenarioConfig(sim_time=10.0, seed=1))
    return result.flows[0].delivered_packets


def run_calibration(n: int = 200_000) -> int:
    """Machine-speed reference: pure-stdlib heap churn, independent of repro.

    The observability-overhead gate runs on whatever container CI lands on,
    and container throughput drifts >10% minute-to-minute under neighbour
    load.  This workload (heap push/pop + tuple allocation, the same shape
    as the scheduler hot path) tracks that drift, so ``--check-obs`` can
    compare metric/calibration *ratios* instead of absolute rates.
    """
    import heapq

    heap: list = []
    push = heapq.heappush
    pop = heapq.heappop
    acc = 0
    for i in range(n):
        push(heap, ((i * 2654435761) % 1000003, i))
        if i & 1:
            acc += pop(heap)[1]
    while heap:
        acc += pop(heap)[1]
    assert acc > 0
    return n


def _rate(work: Callable[[], int], reps: int) -> float:
    """Best observed ops/sec over ``reps`` repetitions."""
    best = 0.0
    for _ in range(reps):
        t0 = time.perf_counter()
        ops = work()
        dt = time.perf_counter() - t0
        best = max(best, ops / dt)
    return best


def _rate_self_timed(work: Callable[[], tuple], reps: int) -> float:
    """Best ops/sec for workloads that time their own hot section.

    ``work`` returns ``(ops, seconds)`` with ``seconds`` covering only the
    code under measurement (the fan-out pair excludes event execution).
    """
    best = 0.0
    for _ in range(reps):
        ops, dt = work()
        best = max(best, ops / dt)
    return best


def measure_all(fast: bool = False) -> Dict[str, float]:
    """Run the whole suite; returns metric-name -> ops/sec.

    Imports are pulled in and the GC permanent generation frozen before any
    timing starts: the allocation-heavy microbenches otherwise charge every
    collection pass for the size of the imported package, so growing the
    codebase would read as a (phantom) kernel regression.
    """
    import gc

    import repro.experiments  # noqa: F401 — warm the full import graph

    reps = 2 if fast else 5
    lane_reps = 2 if fast else 3
    gc.freeze()
    try:
        metrics = {
            "calibration_ops_per_sec": _rate(run_calibration, reps),
            "scheduler_events_per_sec": _rate(run_scheduler_throughput, reps),
            "scheduler_churn_ops_per_sec": _rate(run_scheduler_churn, reps),
            "channel_fanout_tx_per_sec": _rate(run_channel_fanout, max(2, reps - 2)),
            "full_chain_packets_per_sec": _rate(run_full_chain, 1 if fast else 2),
        }
        # The fan-out pair runs back-to-back (not split across the suite):
        # its *ratio* is a CI gate, and adjacency keeps slow container drift
        # out of it.
        for path in ("reference", "production"):
            metrics[f"phy_fanout_{path}_tx_per_sec"] = _rate_self_timed(
                lambda: run_phy_fanout_lane(path), lane_reps)
        return metrics
    finally:
        gc.unfreeze()


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


def test_full_stack_chain_run(benchmark):
    """End-to-end cost of a standard 4-hop, 10 s Muzha experiment."""
    delivered = benchmark.pedantic(run_full_chain, rounds=1, iterations=1)
    assert delivered > 100


# -- standalone runner -------------------------------------------------------


def load_baseline() -> dict:
    with open(BASELINE_PATH) as handle:
        return json.load(handle)


def build_report(current: Dict[str, float], baseline: dict) -> dict:
    """Current numbers alongside the committed before/after baseline."""
    committed_metrics = baseline.get("metrics", {})

    # Machine-speed factor: how fast this box is running *right now* relative
    # to the box/moment the pre_obs column was captured on.  Dividing the
    # pre_obs ratios by it cancels container drift, which routinely exceeds
    # the 5% observability-overhead tolerance.
    speed_factor = None
    cal_committed = committed_metrics.get("calibration_ops_per_sec", {}).get("pre_obs")
    cal_current = current.get("calibration_ops_per_sec")
    if cal_committed and cal_current:
        speed_factor = cal_current / cal_committed

    metrics = {}
    for name, rate in current.items():
        entry = {"current": round(rate, 1)}
        committed = committed_metrics.get(name, {})
        if "pre" in committed and "post" in committed:
            entry["baseline_pre"] = committed["pre"]
            entry["baseline_post"] = committed["post"]
            entry["speedup_vs_pre"] = round(rate / committed["pre"], 2)
            entry["ratio_vs_post"] = round(rate / committed["post"], 2)
            if speed_factor:
                entry["ratio_vs_post_normalized"] = round(
                    rate / committed["post"] / speed_factor, 3)
        pre_obs = committed.get("pre_obs")
        if pre_obs:
            entry["baseline_pre_obs"] = pre_obs
            entry["ratio_vs_pre_obs"] = round(rate / pre_obs, 3)
            if speed_factor and name != "calibration_ops_per_sec":
                entry["ratio_vs_pre_obs_normalized"] = round(
                    rate / pre_obs / speed_factor, 3)
        metrics[name] = entry
    report = {
        "suite": "bench_kernel",
        "baseline_machine": baseline.get("machine", "unknown"),
        "metrics": metrics,
    }
    if speed_factor is not None:
        report["machine_speed_factor"] = round(speed_factor, 3)
    return report


def check_regression(report: dict, tolerance: float, against: str = "post") -> list:
    """Metric names whose events/sec dropped >``tolerance`` vs the committed
    ``post`` (cross-machine, generous tolerance) or ``pre_obs``
    (observability-overhead gate) baseline column.

    The pre_obs comparison uses the calibration-normalized ratio when one is
    available, so the tight 5% gate measures code overhead rather than how
    loaded the container happens to be.
    """
    failures = []
    for name, entry in report["metrics"].items():
        if name == "calibration_ops_per_sec":
            continue
        ratio = entry.get(f"ratio_vs_{against}_normalized",
                          entry.get(f"ratio_vs_{against}"))
        if ratio is not None and ratio < 1.0 - tolerance:
            failures.append(name)
    return failures


def check_lanes(report: dict, lane_ratio: float) -> list:
    """The transmit-path gates: production speedup over the reference and
    production/reference byte-identity.

    Returns a list of human-readable failure strings (empty = pass).
    """
    failures = []
    metrics = report["metrics"]
    reference = metrics["phy_fanout_reference_tx_per_sec"]["current"]
    production = metrics["phy_fanout_production_tx_per_sec"]["current"]
    ratio = production / reference
    report["lane_speedup"] = round(ratio, 2)
    if ratio < lane_ratio:
        failures.append(
            f"production transmit only {ratio:.2f}x the reference on the "
            f"fan-out bench (gate: >= {lane_ratio:.2f}x)"
        )
    digests = lane_identity_digests()
    report["lane_identity"] = digests
    if digests["reference"] != digests["production"]:
        failures.append(
            "IDENTITY VIOLATION: reference and production transmit produced "
            f"different run digests ({digests['reference'][:12]}… vs "
            f"{digests['production'][:12]}…)"
        )
    return failures


#: Metric -> (measurement fn, repetitions) for targeted re-measurement.
_BENCH_FNS = {
    "scheduler_events_per_sec": (run_scheduler_throughput, 5),
    "scheduler_churn_ops_per_sec": (run_scheduler_churn, 5),
    "channel_fanout_tx_per_sec": (run_channel_fanout, 3),
    "full_chain_packets_per_sec": (run_full_chain, 2),
}


def check_obs_with_retry(report: dict, baseline: dict, tolerance: float,
                         retries: int = 3) -> list:
    """The observability-overhead gate with noise-rejecting retries.

    Container throughput jumps several percent between back-to-back runs even
    after calibration normalization, so a failing metric is re-measured (with
    a fresh calibration anchor) up to ``retries`` times and passes if any
    attempt clears the tolerance.  Genuine overhead fails every attempt;
    scheduler noise does not.
    """
    import gc

    failures = check_regression(report, tolerance, against="pre_obs")
    committed = baseline.get("metrics", {})
    pre_obs_cal = committed.get("calibration_ops_per_sec", {}).get("pre_obs")
    for _ in range(retries):
        if not failures:
            break
        gc.freeze()
        try:
            speed = 1.0
            if pre_obs_cal:
                speed = _rate(run_calibration, 5) / pre_obs_cal
            still = []
            for name in failures:
                fn, reps = _BENCH_FNS[name]
                pre_obs = committed.get(name, {}).get("pre_obs")
                if not pre_obs:
                    continue
                ratio = _rate(fn, reps) / pre_obs / speed
                entry = report["metrics"][name]
                entry.setdefault("obs_retry_ratios", []).append(round(ratio, 3))
                if ratio < 1.0 - tolerance:
                    still.append(name)
            failures = still
        finally:
            gc.unfreeze()
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kernel microbenchmark suite")
    parser.add_argument("--json", default=str(DEFAULT_OUTPUT), metavar="PATH",
                        help="where to write BENCH_kernel.json")
    parser.add_argument("--fast", action="store_true",
                        help="fewer repetitions (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on events/sec regression vs the baseline")
    parser.add_argument("--check-obs", action="store_true",
                        help="exit 1 if an untraced run is more than "
                             "--obs-tolerance below the committed pre-"
                             "observability (same-machine) baseline — the "
                             "<5%% observability-overhead gate")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression with --check")
    parser.add_argument("--lane-ratio", type=float, default=1.5,
                        help="minimum production/reference fan-out speedup "
                             "required by --check")
    parser.add_argument("--obs-tolerance", type=float, default=0.05,
                        help="allowed fractional regression with --check-obs")
    args = parser.parse_args(argv)

    baseline = load_baseline()
    current = measure_all(fast=args.fast)
    report = build_report(current, baseline)

    width = max(len(name) for name in report["metrics"])
    for name, entry in report["metrics"].items():
        line = f"{name:<{width}}  {entry['current']:>12,.0f}/s"
        if "speedup_vs_pre" in entry:
            line += (f"  ({entry['speedup_vs_pre']:.2f}x vs pre-overhaul, "
                     f"{entry['ratio_vs_post']:.2f}x vs committed)")
        print(line)

    out = Path(args.json)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"\nreport written to {out}")

    if args.check:
        failures = check_regression(report, args.tolerance)
        if failures:
            print(f"PERF REGRESSION (> {args.tolerance:.0%} below committed "
                  f"baseline): {', '.join(failures)}", file=sys.stderr)
            return 1
        print(f"perf check ok (all metrics within {args.tolerance:.0%} "
              "of the committed baseline)")
        lane_failures = check_lanes(report, args.lane_ratio)
        with open(out, "w") as handle:  # include the speedup + digests
            json.dump(report, handle, indent=2)
            handle.write("\n")
        if lane_failures:
            for failure in lane_failures:
                print(f"LANE CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print(f"lane check ok (production {report['lane_speedup']:.2f}x "
              f"reference, identical run digests)")
    if args.check_obs:
        failures = check_obs_with_retry(report, baseline, args.obs_tolerance)
        with open(out, "w") as handle:  # include any retry ratios
            json.dump(report, handle, indent=2)
            handle.write("\n")
        if failures:
            print(f"OBSERVABILITY OVERHEAD (> {args.obs_tolerance:.0%} below "
                  f"the pre-observability baseline, calibration-normalized, "
                  f"after retries): {', '.join(failures)}",
                  file=sys.stderr)
            return 1
        print(f"observability-overhead check ok (all metrics within "
              f"{args.obs_tolerance:.0%} of the pre-observability baseline, "
              f"calibration-normalized)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
