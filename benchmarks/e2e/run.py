"""The repository's end-to-end benchmark: five workloads, one command.

One workload, as the benchmark driver runs it (fresh process per run)::

    python3 benchmarks/e2e/run.py --workload paper_figures --seed 1 \\
        --seconds 12 --trace 0        # end-to-end metrics
    python3 benchmarks/e2e/run.py --workload paper_figures --seed 1 \\
        --seconds 12 --trace 1        # per-layer metrics (traced run)

Every metric is printed by name with its unit; the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

The whole set (each workload untraced and traced, each in its own
subprocess) into one report, and the comparison of two reports::

    python3 benchmarks/e2e/run.py --json benchmarks/e2e/out/report.json
    python3 benchmarks/e2e/run.py --compare A.json B.json

``--smoke`` shrinks every workload to a fraction of a second (self-tests).
See README.md in this directory for what each metric and workload means.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from the first statement

import argparse
import cProfile
import gc
import heapq
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
MANIFEST = ROOT / "BENCHMARK.json"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

#: Spelled out here (and checked against BENCHMARK.json) because importing
#: ``workloads`` imports the program, which is part of the timed set-up.
SIM_WORKLOADS = ("paper_figures", "lossy_faulted", "dense_grid")
CAMPAIGN_WORKLOADS = ("campaign_cold", "campaign_cached")
WORKLOAD_NAMES = SIM_WORKLOADS + CAMPAIGN_WORKLOADS

#: Timed passes never fall below this, however slow the host.
MIN_PASSES = 3
#: Scale of ``--smoke`` runs relative to the real workloads.
SMOKE_SCALE = 0.1
#: Length of one calibration slice (about 0.13 s on the reference host).
CALIBRATION_OPS = 100_000
#: Timings are reported as on a host that does this many calibration
#: operations per second (a quiet 2-core sandbox does 0.8-0.9 M).
REFERENCE_SPEED = 1_000_000.0
#: Per-unit exact counts kept in a traced report: what ``separation`` needs
#: to compare the error path with the clean single-flow runs.
SEPARATION_COUNTS = ("routing.control_tx", "transport.timeouts",
                     "transport.delivered_packets")
#: ``setup_s`` may also worsen by this many seconds before ``--compare``
#: calls it a regression (interpreter start-up jitter on a small base).
SETUP_FLOOR_S = 0.05


def load_manifest() -> Dict[str, Any]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of ``values`` (one value: all equal)."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def sampled(values: Sequence[float]) -> Dict[str, Any]:
    """A metric measured once per timed pass: its median and quartiles, and
    the per-pass values ``--compare`` judges noise and overlap from."""
    return dict(quartiles(values), samples=list(values))


def host_speed(n: int = CALIBRATION_OPS) -> float:
    """How fast this host is right now, in calibration operations per
    second: one slice of stdlib heap churn, the scheduler's shape (the loop
    of ``bench_kernel.run_calibration``)."""
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    acc = 0
    t0 = time.perf_counter()
    for i in range(n):
        push(heap, ((i * 2654435761) % 1000003, i))
        if i & 1:
            acc += pop(heap)[1]
    while heap:
        acc += pop(heap)[1]
    return n / (time.perf_counter() - t0)


def reference_seconds(seconds: float, speed: float) -> float:
    """``seconds`` measured on a host doing ``speed`` calibration ops/s, as
    they would read on a host of ``REFERENCE_SPEED``."""
    return seconds * speed / REFERENCE_SPEED


def peak_rss_mb(with_children: bool) -> float:
    """Peak resident set of this process in MiB; ``with_children`` adds that
    of its largest child — for the campaign workloads, whose workers are
    part of the footprint.  A simulation workload's only child is the
    ``uname`` that ``platform.platform()`` forks for the run manifest, as
    large as the parent was at that moment: adding it would halve what a
    rise of the workload's own memory shows."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0  # Linux reports KiB


def _drop_inherited_profiler() -> None:
    # Forked campaign workers inherit the coordinator's profiler hook; their
    # profile is never read, so all it would do is slow them down and
    # inflate the coordinator's wait time.
    sys.setprofile(None)


# ---------------------------------------------------------------------------
# One workload, one process


def prepare(name: str, seed: int, smoke: bool, workdir: Path) -> Any:
    """Set-up: import the program, freeze the GC's permanent generation,
    make the inputs from the seed (and prefill the cache, where a workload
    has one).  Everything here is what ``setup_s`` times."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, SMOKE_SCALE if smoke else 1.0, workdir)
    workload.setup()
    gc.collect()
    gc.freeze()
    return workload


def compare_digests(reference: Dict[str, str], outcome: Any,
                    label: str) -> None:
    """Count the units of ``outcome`` whose output differs from the first
    pass of this run (every pass gets the same inputs)."""
    differing = [unit for unit in reference
                 if outcome.digests.get(unit) != reference[unit]]
    if differing and not outcome.failed:
        outcome.fail(len(differing),
                     f"{label}: output digest differs from the first pass "
                     f"for {differing[:3]}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, t0: Optional[float] = None) -> Dict[str, Any]:
    """Run one workload in this process and return its report."""
    t0 = time.perf_counter() if t0 is None else t0
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        workload = prepare(name, seed, smoke, workdir)
        setup_raw = time.perf_counter() - t0
        from drivers import DRIVERS, Timer
        from ledger import Spans, build_ledger
        from workloads import Region

        slice_ops = CALIBRATION_OPS // 10 if smoke else CALIBRATION_OPS
        setup_speed = host_speed(slice_ops)
        spans = Spans(enabled=trace)
        timed: List[Any] = []
        traced = ledger = None
        with spans.span("workload", workload=name, seed=seed):
            with spans.span("pass", kind="warm-up"):
                warmup = workload.count_pass(Region(), spans)
            # One calibration slice before the first timed pass and one
            # after every pass: a pass is normalised by the two around it.
            speeds = [host_speed(slice_ops)]
            started = time.perf_counter()
            while True:
                gc.collect()
                with spans.span("pass", kind="timed"):
                    timed.append(workload.timed_pass(Region(), spans))
                speeds.append(host_speed(slice_ops))
                if trace or smoke or (
                    len(timed) >= MIN_PASSES
                    and time.perf_counter() - started >= seconds
                ):
                    break
            if trace:
                profiler = cProfile.Profile()
                gc.collect()
                with spans.span("pass", kind="traced"):
                    traced = workload.timed_pass(Region(profiler), spans)
                ledger = build_ledger(pstats.Stats(profiler).stats)
        outcomes = [warmup] + timed + ([traced] if traced else [])
        for i, outcome in enumerate(outcomes[1:], start=1):
            compare_digests(warmup.digests, outcome, f"pass {i}")

        walls = [outcome.wall_s for outcome in timed]
        wall = quartiles(walls)
        units = timed[0].units
        attempted = sum(outcome.units for outcome in outcomes)
        failed = sum(outcome.failed for outcome in outcomes)
        errors = [e for outcome in outcomes for e in outcome.errors]
        context: Dict[str, Any] = {
            "passes": len(timed),
            "units_per_pass": units,
            "wall_raw_s": wall,
            "calibration_ops_per_s": statistics.median(speeds),
            "setup_raw_s": setup_raw,
            "setup_s": reference_seconds(setup_raw, setup_speed),
        }
        values: Dict[str, Any] = {}
        if not trace:
            # A pass is normalised by the two calibration slices around it.
            ref_walls = [
                reference_seconds(w, (before + after) / 2)
                for w, before, after in zip(walls, speeds, speeds[1:])
            ]
            values["wall_s"] = sampled(ref_walls)
            values["units_per_s"] = sampled([units / w for w in ref_walls])
            values["peak_rss_mb"] = {
                "value": peak_rss_mb(with_children=workload.kind == "campaign")}
            values["setup_s"] = {"value": context["setup_s"]}
        else:
            values.update(ledger.metrics())
            values.update(workload.counts)
            events = workload.counts["sim.events"]
            values["sim.us_per_event"] = (
                1e6 * wall["value"] / events if events else 0.0)
            values["exp.runner.packets_per_s"] = (
                workload.counts["transport.delivered_packets"] / wall["value"])
            values.update(timed[0].extras)
            if name in DRIVERS:
                values.update(DRIVERS[name](workload, Timer(1 if smoke else 3)))
            closure = ledger.total_s / traced.wall_s
            context["trace_overhead_ratio"] = traced.wall_s / wall["value"]
            context["traced_wall_s"] = traced.wall_s
            context["ledger_closure"] = closure
            context["ledger_shares"] = {
                layer: ledger.share(layer) for layer in ledger.self_s}
            context["unit_counts"] = {
                label: {key: counts[key] for key in SEPARATION_COUNTS}
                for label, counts in workload.unit_counts.items()}
            if abs(closure - 1.0) > 0.02:
                failed += 1
                errors.append(f"ledger does not close: sum of self times is "
                              f"{closure:.4f} of the traced wall time")
            spans.write(OUT / f"{name}.trace.json")
        context["failed_share"] = failed / attempted
        return {
            "workload": name, "seed": seed, "trace": int(trace),
            "smoke": smoke, "correct": failed == 0, "attempted": attempted,
            "failed": failed, "errors": errors,
            "result_digest": digest_of(warmup.digests),
            "values": values, "context": context,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def digest_of(reference: Dict[str, str]) -> str:
    """One digest for the run: the campaign fingerprint where every unit
    reports the same one, a hash of the per-unit digests otherwise."""
    distinct = set(reference.values())
    if len(distinct) == 1:
        return distinct.pop()
    from repro.experiments import stable_digest

    return stable_digest(reference)


def contract_metrics(report: Dict[str, Any],
                     manifest: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The report's values under the names and units ``BENCHMARK.json``
    declares for this kind of run; a per-layer metric that this workload
    does not exercise reads 0."""
    declared = manifest["per_layer" if report["trace"] else "end_to_end"]
    values = report["values"]
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    out = {}
    for metric in declared:
        value = values.get(metric["name"], 0.0)
        if isinstance(value, dict):
            value = value["value"]
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def print_report(report: Dict[str, Any], metrics: Dict[str, Dict[str, Any]]) -> None:
    context = report["context"]
    print(f"# workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  passes {context['passes']}  "
          f"units per pass {context['units_per_pass']}")
    for name, metric in metrics.items():
        if name in report["values"]:
            print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")
    wall = context["wall_raw_s"]
    print(f"# wall_raw_s {wall['value']:.4f} (q1 {wall['q1']:.4f}, q3 "
          f"{wall['q3']:.4f}, n {wall['n']})  failed_share "
          f"{context['failed_share']:.4g}")
    print(f"# result_digest {report['result_digest']}")
    print(f"# calibration_ops_per_s {context['calibration_ops_per_s']:.0f}")
    if report["trace"]:
        print(f"# trace_overhead_ratio {context['trace_overhead_ratio']:.3f}  "
              f"ledger_closure {context['ledger_closure']:.4f}")
    for error in report["errors"]:
        print(f"# ERROR {error}")


def main_workload(args: argparse.Namespace) -> int:
    manifest = load_manifest()
    if args.trace:
        os.register_at_fork(after_in_child=_drop_inherited_profiler)
    report = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.smoke, t0=_T0)
    metrics = contract_metrics(report, manifest)
    print_report(report, metrics)
    if args.json:
        write_json(Path(args.json), report)
    print(json.dumps({
        "correct": report["correct"], "attempted": report["attempted"],
        "failed": report["failed"], "metrics": metrics,
    }))
    return 0 if report["correct"] else 1


def write_json(path: Path, payload: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


# ---------------------------------------------------------------------------
# The whole set


def environment() -> Dict[str, Any]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "calibration_ops_per_s": host_speed(),
    }


def main_set(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in a fresh subprocess."""
    declared = {w["name"] for w in load_manifest()["workloads"]}
    if declared != set(WORKLOAD_NAMES):
        raise SystemExit("BENCHMARK.json workloads differ from run.py's")
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    OUT.mkdir(exist_ok=True)
    report: Dict[str, Any] = {
        "environment": environment(), "seed": args.seed,
        "seconds": args.seconds, "smoke": args.smoke, "workloads": {},
    }
    status = 0
    for name in names:
        entry = report["workloads"][name] = {}
        for trace in (0, 1):
            path = OUT / f"{name}.{'traced' if trace else 'untraced'}.json"
            argv = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--json", str(path)]
            if args.smoke:
                argv.append("--smoke")
            done = subprocess.run(argv, capture_output=True, text=True)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0 or not path.exists():
                status = 1
                print(f"# FAILED {name} trace={trace} "
                      f"(exit {done.returncode})\n{done.stderr}")
                continue
            entry["traced" if trace else "untraced"] = json.loads(
                path.read_text(encoding="utf-8"))
        if len(entry) == 2 and \
                entry["traced"]["result_digest"] != entry["untraced"]["result_digest"]:
            status = 1
            print(f"# FAILED {name}: traced and untraced runs disagree on "
                  "result_digest")
    for line in separation(report["workloads"]):
        print(f"# separation {line}")
    target = Path(args.json) if args.json else OUT / "report.json"
    write_json(target, report)
    print(f"# report written to {target}")
    return status


def separation(workloads: Dict[str, Any]) -> List[str]:
    """How far apart the traced runs put the layers — the reason there are
    five workloads and not one.  Each criterion of ISSUE 11 is judged
    ``met`` or ``NOT MET`` from the measured numbers; the verdicts do not
    change the exit status (they describe the program, not this run)."""
    traced = {name: workloads[name]["traced"] for name in WORKLOAD_NAMES
              if "traced" in workloads.get(name, {})}
    lines = []
    for name, run in traced.items():
        shares = run["context"]["ledger_shares"]
        values = run["values"]
        total = sum(values[f"{layer}.self_s"] for layer in shares)
        picked = {
            "sim": shares["sim"], "phy": shares["phy"], "mac": shares["mac"],
            "phy.fanout": values["phy.fanout_s"] / total if total else 0.0,
            "core": shares["core"],
            "routing+transport+core+faults": sum(
                shares[k] for k in ("routing", "transport", "core", "faults")),
            "obs": shares["obs"],
            "exp.*": exp_share(run),
        }
        lines.append(f"{name}: ledger shares " + "  ".join(
            f"{key} {value:.3f}" for key, value in picked.items()))
        lines.append(
            f"{name}: sim.us_per_event {values['sim.us_per_event']:.2f}  "
            f"phy.numpy_fanout_share {values['phy.numpy_fanout_share']:.2f}  "
            f"exp.campaign.executed_units "
            f"{values.get('exp.campaign.executed_units', 0):.0f}")

    def verdict(met: bool) -> str:
        return "met" if met else "NOT MET"

    if set(SIM_WORKLOADS) <= set(traced):
        phy = {name: traced[name]["context"]["ledger_shares"]["phy"]
               for name in ("dense_grid", "paper_figures")}
        ratio = phy["dense_grid"] / phy["paper_figures"]
        lines.append(f"criterion phy share dense_grid / paper_figures >= 2: "
                     f"{ratio:.2f}  {verdict(ratio >= 2)}")
        lossy = traced["lossy_faulted"]["values"]
        paper = traced["paper_figures"]["values"]
        # The runs ISSUE 11 took its reference from (8 control frames, 0
        # timeouts a run): one flow over the 4-hop chain on a clean medium.
        clean = [counts for label, counts in
                 traced["paper_figures"]["context"]["unit_counts"].items()
                 if label.startswith("sweep/") and label.endswith("/4")]
        clean_sum = {key: sum(c[key] for c in clean) for key in SEPARATION_COUNTS}
        for metric in ("routing.control_tx", "transport.timeouts"):
            for label, base in (("paper_figures", paper),
                                ("its single-flow 4-hop runs", clean_sum)):
                text, met = per_packet(metric, lossy, label, base)
                lines.append(f"criterion {text} >= 10x  {verdict(met)}")
        for metric in ("transport.retransmits", "mac.drops_retry_limit",
                       "core.drai_samples"):
            lines.append(per_packet(metric, lossy, "paper_figures", paper)[0])
    if set(SIM_WORKLOADS + CAMPAIGN_WORKLOADS) <= set(traced):
        for name in CAMPAIGN_WORKLOADS:
            share = exp_share(traced[name])
            lines.append(f"criterion exp.* share of the coordinator on {name} "
                         f">= 0.5: {share:.3f}  {verdict(share >= 0.5)}")
        for name in SIM_WORKLOADS:
            share = exp_share(traced[name])
            lines.append(f"criterion exp.* share on {name} < 0.05: "
                         f"{share:.4f}  {verdict(share < 0.05)}")
        executed = traced["campaign_cached"]["values"]["exp.campaign.executed_units"]
        lines.append(f"criterion exp.campaign.executed_units on campaign_cached "
                     f"== 0: {executed:.0f}  {verdict(executed == 0)}")
    return lines


def exp_share(run: Dict[str, Any]) -> float:
    return sum(share for layer, share in run["context"]["ledger_shares"].items()
               if layer.startswith("exp."))


def per_packet(metric: str, lossy: Dict[str, float], label: str,
               base: Dict[str, float]) -> Tuple[str, bool]:
    """``metric`` per delivered packet on lossy_faulted against ``base``,
    as text, and whether it reaches ISSUE 11's factor of 10."""
    ours = lossy[metric] / lossy["transport.delivered_packets"]
    theirs = base[metric] / base["transport.delivered_packets"]
    if theirs:
        ratio, met = f"{ours / theirs:.1f}x", ours >= 10 * theirs
    else:
        ratio, met = "none there", ours > 0
    return (f"{metric} per delivered packet: lossy_faulted {ours:.4f}, "
            f"{label} {theirs:.4f} ({ratio})"), met


# ---------------------------------------------------------------------------
# Comparing two reports


def worsening(metric: Dict[str, Any], base: float, new: float) -> float:
    """By what share of ``base`` the metric got worse (negative: better)."""
    if base == 0:
        return 0.0
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def samples_of(entry: Dict[str, Any], metric: str) -> List[float]:
    """What a report holds of one workload's end-to-end metric: the
    per-pass values, or the one value of a metric measured once a run.
    The traced run does the same set-up as the untraced one and times it
    too, so ``setup_s`` has two samples in a full report."""
    value = entry["untraced"]["values"][metric]
    samples = list(value.get("samples") or [value["value"]])
    if metric == "setup_s" and "traced" in entry:
        samples.append(entry["traced"]["context"]["setup_s"])
    return samples


def pooled_noise(a: Sequence[float], b: Sequence[float]) -> Optional[float]:
    """Interquartile range of the samples of both sides, each taken as a
    share of its own side's median; None with too few samples to tell."""
    residuals = [x / statistics.median(side) - 1.0
                 for side in (a, b) if len(side) > 1 for x in side]
    if len(residuals) < 4:
        return None
    q1, _, q3 = statistics.quantiles(residuals, n=4)
    return q3 - q1


def judge(metric: Dict[str, Any], a: Sequence[float], b: Sequence[float],
          floor: float = 0.0) -> Dict[str, Any]:
    """Verdict on B against A for one metric of one workload.

    Noise comes first: when the passes spread wider than the bound and the
    two sides overlap, the medians decide nothing — ``unresolved``, whether
    B's median reads better or worse.  Otherwise B's median may be worse
    than A's by the bound (or by ``floor`` in the metric's unit, when that
    is larger) before it is a ``REGRESSION``."""
    base, new = statistics.median(a), statistics.median(b)
    bound = metric["bound"]
    noise = pooled_noise(a, b)
    lower = metric["better"] == "lower"
    b_all_better = max(b) < min(a) if lower else min(b) > max(a)
    a_all_better = max(a) < min(b) if lower else min(a) > max(b)
    worse = worsening(metric, base, new)
    if noise is not None and noise > bound and not (b_all_better or a_all_better):
        verdict = "unresolved"
    elif worse * base > max(bound * base, floor):
        verdict = "REGRESSION"
    else:
        verdict = "ok"
    return {"base": base, "new": new, "bound": bound, "noise": noise,
            "verdict": verdict}


def compare(path_a: Path, path_b: Path) -> int:
    """Print B against A per workload x end-to-end metric; non-zero exit on
    a regression beyond the metric's bound or any rise in failed_share."""
    manifest = load_manifest()
    a = json.loads(path_a.read_text(encoding="utf-8"))["workloads"]
    b = json.loads(path_b.read_text(encoding="utf-8"))["workloads"]
    status = 0
    print(f"# A = {path_a}\n# B = {path_b}")
    print(f"{'workload':16s} {'metric':13s} {'A':>11s} {'B':>11s} "
          f"{'B/A':>6s} {'bound':>5s} {'noise':>6s} {'n':>5s}  verdict")
    for name in WORKLOAD_NAMES:
        if name not in a or name not in b:
            continue
        run_a, run_b = a[name]["untraced"], b[name]["untraced"]
        for metric in manifest["end_to_end"]:
            sa = samples_of(a[name], metric["name"])
            sb = samples_of(b[name], metric["name"])
            floor = SETUP_FLOOR_S if metric["name"] == "setup_s" else 0.0
            row = judge(metric, sa, sb, floor)
            status |= row["verdict"] == "REGRESSION"
            noise = "-" if row["noise"] is None else f"{row['noise']:.3f}"
            print(f"{name:16s} {metric['name']:13s} {row['base']:11.5g} "
                  f"{row['new']:11.5g} {row['new'] / row['base']:6.3f} "
                  f"{row['bound']:5.2f} {noise:>6s} {len(sa):2d}+{len(sb):<2d}  "
                  f"{row['verdict']}")
        fa = run_a["context"]["failed_share"]
        fb = run_b["context"]["failed_share"]
        verdict = "ok" if fb <= fa else "REGRESSION"
        status |= fb > fa
        print(f"{name:16s} {'failed_share':13s} {fa:11.5g} {fb:11.5g} "
              f"{'':6s} {0:5.2f} {'':6s} {'':5s}  {verdict}")
        same = run_a["result_digest"] == run_b["result_digest"]
        moved = exact_counts_moved(name, a[name].get("traced"),
                                   b[name].get("traced"))
        print(f"{name:16s} result_digest {'identical' if same else 'DIFFERS'}; "
              f"exact counts {'identical' if not moved else 'DIFFER: ' + ', '.join(moved)}")
    return status


#: Ledger call counts that are not exact: how often the coordinator's
#: dispatch loop wakes and reads a frame depends on when worker results
#: arrive.  (With an empty cache only; against a warm one no worker runs.)
TIMING_DEPENDENT_CALLS = {
    "campaign_cold": ("exp.campaign.calls", "exp.transport.calls"),
}


def exact_counts_moved(workload: str, run_a: Optional[Dict[str, Any]],
                       run_b: Optional[Dict[str, Any]]) -> List[str]:
    """Names of the program-kept counters (and ledger call counts of
    deterministic layers) that differ between two traced runs; times and
    rates are not counts."""
    if not run_a or not run_b:
        return []
    units = {m["name"]: m["unit"] for m in load_manifest()["per_layer"]}
    skipped = TIMING_DEPENDENT_CALLS.get(workload, ())
    return [
        name for name, value in sorted(run_a["values"].items())
        if units.get(name) == "count" and name not in skipped
        and run_b["values"].get(name) != value
    ]


# ---------------------------------------------------------------------------


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: the traced run")
    parser.add_argument("--json", metavar="PATH", help="write the report here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale, one pass (self-tests)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(Path(args.compare[0]), Path(args.compare[1]))
    import repro.experiments  # noqa: F401 — fail here, loudly, without src/
    if args.seconds is None:
        args.seconds = float(load_manifest()["run_seconds"])
    if args.workload and args.trace is not None:
        return main_workload(args)
    return main_set(args)


if __name__ == "__main__":
    sys.exit(main())
