"""The one harness behind ``bench_kernel`` / ``bench_campaign`` / ``bench_cluster``.

A suite module keeps its measurement cores and pytest ``perf`` cases and
declares a :class:`Suite`; everything else lives here, once: the best-of-N
rate loop, the machine-speed calibration, the ``gc.freeze()`` bracket,
baseline load, report build, the regression gate and the CLI.

One baseline column: ``benchmarks/baselines/<suite>_baseline.json`` is
``{"machine", "commit", "method", "metrics": {name: number}}`` and every
metric of a report is ``{baseline, current, ratio, normalised_ratio}``.

One gate (``--check``)::

    normalised_ratio = (current / baseline)
                       / (calibration_now / calibration_baseline) >= 1 - TOLERANCE

Container throughput drifts 10-40 % for minutes at a time, so absolute
rates are never compared: the calibration slice measured in the same
process cancels the drift, and a metric still under the bound is
re-measured alone (the inputs of a floored ratio: together), with a fresh
calibration anchor, up to ``RETRIES`` times.  Genuine regressions fail
every attempt; scheduler noise does not.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR.parent / "results"

#: Allowed fractional drop of a calibration-normalised rate below baseline.
TOLERANCE = 0.30
#: Re-measurements a metric under the bound gets before it fails the gate.
RETRIES = 3
#: The machine-speed anchor every suite measures first; never gated.
CALIBRATION = "calibration_ops_per_sec"


@dataclass(frozen=True)
class Suite:
    """What a ``bench_*.py`` declares.

    ``measure_all(fast, names)`` returns metric -> ops/sec for the named
    metrics (all of them when ``names`` is None) and raises on an identity
    violation; ``derived(current)`` returns the suite's extra top-level
    report numbers; ``floors`` maps some of those to the minimum ``--check``
    accepts.
    """

    name: str
    measure_all: Callable[[bool, Optional[Iterable[str]]], Dict[str, float]]
    derived: Callable[[Dict[str, float]], Dict[str, Any]] = lambda current: {}
    floors: Mapping[str, float] = field(default_factory=dict)
    #: Groups of metrics the gate re-measures together when any member is
    #: under the bound: the inputs of a floored ratio, so a retry never
    #: pairs one fresh rate with one stale one.
    together: Sequence[Sequence[str]] = ()
    #: Default: ``benchmarks/baselines/<name>_baseline.json``.
    baseline: Optional[Path] = None


def run_calibration(n: int = 200_000) -> int:
    """Machine-speed reference: pure-stdlib heap churn, independent of repro.

    Heap push/pop + tuple allocation is the shape of the scheduler hot
    path, so this tracks how fast the box runs *that kind of code* right
    now; nothing the program does can move it.
    """
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


def rate(work: Callable[[], Any], reps: int) -> float:
    """Best observed ops/sec over ``reps`` repetitions.

    ``work`` returns its op count and is timed here, or returns
    ``(ops, seconds)`` when it times its own hot section (the fan-out pair
    excludes event execution, the cluster rungs exclude agent start-up).
    """
    best = 0.0
    for _ in range(reps):
        t0 = time.perf_counter()
        ops = work()
        seconds = time.perf_counter() - t0
        if isinstance(ops, tuple):
            ops, seconds = ops
        best = max(best, ops / seconds)
    return best


def measure(suite: Suite, fast: bool = False,
            names: Optional[Iterable[str]] = None) -> Dict[str, float]:
    """A calibration anchor, then the suite's (named) metrics.

    Imports are pulled in and the GC permanent generation frozen before any
    timing starts: the allocation-heavy benches otherwise charge every
    collection pass for the size of the imported package, so growing the
    codebase would read as a (phantom) regression.
    """
    import repro.experiments  # noqa: F401 — warm the full import graph

    gc.freeze()
    try:
        calibration = rate(run_calibration, 2 if fast else 5)
        return {CALIBRATION: calibration, **suite.measure_all(fast, names)}
    finally:
        gc.unfreeze()


def load_baseline(suite: Suite) -> Dict[str, Any]:
    path = suite.baseline or BENCH_DIR / "baselines" / f"{suite.name}_baseline.json"
    with open(path) as handle:
        return json.load(handle)


def _entry(current: float, baseline: float, speed: float) -> Dict[str, float]:
    ratio = current / baseline
    return {
        "baseline": baseline,
        "current": round(current, 1),
        "ratio": round(ratio, 3),
        "normalised_ratio": round(ratio / speed, 3),
    }


def _speed(current: Dict[str, float], baseline: Dict[str, Any]) -> float:
    """How fast this box runs right now relative to the baseline capture."""
    return current[CALIBRATION] / baseline["metrics"][CALIBRATION]


def build_report(suite: Suite, current: Dict[str, float],
                 baseline: Dict[str, Any]) -> Dict[str, Any]:
    """Current numbers next to the committed baseline, drift-normalised."""
    speed = _speed(current, baseline)
    report = {
        "suite": suite.name,
        "baseline_machine": baseline["machine"],
        "baseline_commit": baseline["commit"],
        "machine_speed_factor": round(speed, 3),
        "metrics": {
            name: _entry(value, baseline["metrics"][name], speed)
            for name, value in current.items()
        },
    }
    _derive(suite, report)
    return report


def _derive(suite: Suite, report: Dict[str, Any]) -> None:
    """(Re)compute the suite's derived numbers from the reported rates."""
    report.update(suite.derived(
        {name: entry["current"] for name, entry in report["metrics"].items()}))


def check(suite: Suite, report: Dict[str, Any], baseline: Dict[str, Any],
          fast: bool = False) -> List[str]:
    """The gate: names of metrics under the bound on every attempt, then
    the suite's own floor failures.  A metric under the bound is
    re-measured alone — or with the rest of its ``suite.together`` group —
    and the re-measurement replaces the report entries and the derived
    numbers follow, so the report shows what the gate last saw."""
    floor = 1.0 - TOLERANCE
    metrics = report["metrics"]
    gated = [name for name in metrics if name != CALIBRATION]
    settled: set = set()
    for name in gated:
        if name in settled:
            continue
        unit = next((list(group) for group in suite.together if name in group),
                    [name])
        settled.update(unit)
        for _ in range(RETRIES):
            if all(metrics[member]["normalised_ratio"] >= floor for member in unit):
                break
            again = measure(suite, fast, unit)
            speed = _speed(again, baseline)
            for member in unit:
                metrics[member].update(
                    _entry(again[member], baseline["metrics"][member], speed))
    _derive(suite, report)
    return [name for name in gated if metrics[name]["normalised_ratio"] < floor] + [
        f"{name} {report[name]} < {minimum}"
        for name, minimum in suite.floors.items() if report[name] < minimum
    ]


def main(suite: Suite, argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=f"{suite.name} benchmark suite")
    parser.add_argument(
        "--json", metavar="PATH", help="where to write the report",
        default=str(RESULTS_DIR / f"BENCH_{suite.name.removeprefix('bench_')}.json"))
    parser.add_argument("--fast", action="store_true",
                        help="fewer repetitions (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if a calibration-normalised rate stays "
                             "more than TOLERANCE below the committed baseline "
                             "through RETRIES re-measurements, or a suite "
                             "floor fails")
    args = parser.parse_args(argv)

    baseline = load_baseline(suite)
    report = build_report(suite, measure(suite, args.fast), baseline)
    failures = check(suite, report, baseline, args.fast) if args.check else []

    width = max(len(name) for name in report["metrics"])
    for name, entry in report["metrics"].items():
        print(f"{name:<{width}}  {entry['current']:>12,.1f}/s  "
              f"({entry['ratio']:.2f}x baseline, "
              f"{entry['normalised_ratio']:.2f}x normalised)")
    for name, value in report.items():
        if not isinstance(value, dict):
            print(f"{name}: {value}")

    out = Path(args.json)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"report written to {out}")

    if failures:
        print(f"PERF CHECK FAILED: {'; '.join(failures)}", file=sys.stderr)
        return 1
    if args.check:
        print(f"perf check ok (every metric within {TOLERANCE:.0%} of the "
              "committed baseline, calibration-normalised; suite floors hold)")
    return 0
