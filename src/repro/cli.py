"""Command-line interface: ``repro-muzha``.

Subcommands mirror the paper's three simulations plus the parameter tables:

* ``repro-muzha chain --hops 8 --variant muzha`` — single-flow chain run;
* ``repro-muzha sweep --window 8`` — Figs 5.8–5.13 series;
* ``repro-muzha cross --a newreno --b muzha`` — Simulation 3A coexistence;
* ``repro-muzha dynamics --variant muzha`` — Simulation 3B staggered flows;
* ``repro-muzha campaign --jobs 4`` — parallel cached scenario campaigns
  (``--journal run.journal`` write-ahead-journals every unit, with its
  timing and worker, so an interrupted campaign — Ctrl-C / SIGTERM exits
  with code 3 — resumes with ``--resume run.journal``, executing only the
  remainder);
* ``repro-muzha report run.journal`` — aggregate a campaign journal into a
  human-readable summary (throughput, worker utilization, cache hit ratio,
  retries/quarantine, slowest units);
* ``repro-muzha doctor --cache results/cache --journal run.journal`` —
  check artifacts (orphaned tmp files, corrupt cache envelopes, journal
  damage/drift, and with ``--trace``/``--manifest`` a traced run's output
  against the committed schemas); ``--repair`` fixes what it safely can;
* ``repro-muzha trace chain --out run.ndjson`` — traced run: NDJSON event
  trace + provenance manifest (+ optional flight-recorder dumps);
* ``repro-muzha stats chain`` — metrics snapshot of a run (rollup tables
  or the full JSON document);
* ``repro-muzha profile chain`` — cProfile a scenario's simulator hot spots;
* ``repro-muzha tables`` — Tables 5.1/5.2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import List, Optional

from .core.drai import DRAI_TABLE, apply_drai
from .experiments import (
    PAPER_VARIANTS,
    CampaignJournal,
    GracefulShutdown,
    JournalError,
    JournalPlanMismatch,
    RetryPolicy,
    RunSpec,
    SCENARIO_KINDS,
    ScenarioConfig,
    SweepConfig,
    Table51Parameters,
    ascii_series,
    chain_grid,
    export_campaign_csv,
    execute_run,
    fig_coexistence,
    format_coexistence,
    format_sweep,
    format_table,
    render_report,
    replay_journal,
    run_campaign,
    run_doctor,
    scenario_key,
    throughput_retransmit_sweep,
)
from .experiments.cachestore import CampaignCache, EnvelopeError
from .experiments.report import MAX_BUCKETS, CampaignLogError
from .faults import FaultPlan, FaultPlanError
from .obs import FlightRecorder, NdjsonTraceSink, attach_run_probe
from .obs.sinks import subscription
from .stats import jain_index, resample
from .topology.cross import check_cross_hops
from .transport import known_variants


def _number(parse, low, high=None, above=False):
    """argparse type: ``parse(text)`` (``int`` or ``float``) that is at least
    ``low`` — more than ``low`` with ``above`` — and at most ``high``."""
    what = "an integer" if parse is int else "a number"
    bounds = (f"in [{low}, {high}]" if high is not None
              else f"> {low}" if above else f">= {low}")

    def parse_number(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        if not math.isfinite(value):  # ``--time inf`` would never end
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        if not ((value > low if above else value >= low)
                and (high is None or value <= high)):
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {text}")
        return value

    return parse_number


def _cache_dir(text: str) -> str:
    """argparse type: a cache directory; a URL is refused at parse time."""
    if "://" in text:
        raise argparse.ArgumentTypeError(
            f"cache store {text!r}: only a directory path is supported")
    return text


class _Subscription(argparse.Action):
    """``--events``: the event list a trace sink accepts, refused at parse
    time by the sink's own rule (:func:`repro.obs.sinks.subscription`)."""

    def __call__(self, parser, namespace, values, option_string=None):
        try:
            setattr(namespace, self.dest, subscription(values))
        except ValueError as exc:
            parser.error(f"argument {option_string}: {exc}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1, help="master RNG seed")
    parser.add_argument("--time", type=_number(float, 0), default=30.0,
                        help="simulated seconds")
    parser.add_argument("--window", type=_number(int, 1), default=8,
                        help="advertised window")
    parser.add_argument(
        "--routing", choices=("aodv", "static"), default="aodv", help="routing protocol"
    )


def _fault_plan(path: str) -> FaultPlan:
    """argparse type: the fault plan at ``path``, parsed — a plan that
    cannot be read or parsed is a usage error, said in one line."""
    try:
        return FaultPlan.load(path)
    except FileNotFoundError:
        raise argparse.ArgumentTypeError(f"fault plan not found: {path}")
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot read fault plan {path}: {exc}")
    except FaultPlanError as exc:
        raise argparse.ArgumentTypeError(f"bad fault plan {path}: {exc}")


def _add_faults(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", type=_fault_plan, default=None, metavar="PLAN.json",
        help="fault-injection plan (crashes/blackouts/...) to run under",
    )


def _add_policy(parser: argparse.ArgumentParser) -> None:
    from .core import known_policies

    parser.add_argument(
        "--policy", choices=known_policies(), default=None,
        help="router-advice policy for Muzha runs (default: the paper's "
             "fuzzy quantiser)",
    )
    parser.add_argument(
        "--policy-params", default=None, metavar="JSON",
        help="JSON object of parameters for --policy, e.g. "
             "'{\"sustain_up\": 3}'",
    )


def _load_policy(args: argparse.Namespace):
    """(policy, policy_params) from the CLI flags; ``ScenarioConfig``
    validates the params."""
    policy = getattr(args, "policy", None)
    raw = getattr(args, "policy_params", None)
    if raw is None:
        return policy, None
    if policy is None:
        raise SystemExit("--policy-params requires --policy")
    try:
        return policy, json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"bad --policy-params JSON: {exc}")


def _scenario_config(args: argparse.Namespace) -> ScenarioConfig:
    """The ScenarioConfig a subcommand's flags describe, validated; a flag
    the subcommand does not have keeps its ScenarioConfig default."""
    policy, policy_params = _load_policy(args)
    faults = getattr(args, "faults", None)
    try:  # only the policy fields can make ScenarioConfig raise
        return ScenarioConfig(
            sim_time=args.time, seed=args.seed, window=args.window,
            routing=args.routing, packet_error_rate=getattr(args, "loss", 0.0),
            faults=faults, policy=policy, policy_params=policy_params,
        )
    except ValueError as exc:
        raise SystemExit(f"bad --policy-params for {policy!r}: {exc}")


def _spec_from_args(args: argparse.Namespace, shape: Optional[str] = None) -> RunSpec:
    """The RunSpec a run subcommand's flags describe.  ``shape`` (default:
    the ``scenario`` positional) is a ``RunSpec.kind`` or ``"dynamics"``,
    Simulation 3B's three same-variant flows entering a chain at 0/10/20 s."""
    shape = shape or args.scenario
    config = _scenario_config(args)
    if shape == "dynamics":
        return RunSpec("chain", args.hops, (args.variant,) * 3,
                       starts=(0.0, 10.0, 20.0), record_dynamics=True,
                       config=config)
    variants = (args.variant,)
    if shape == "cross":  # --variant runs left->right, --b top->bottom
        variants += (getattr(args, "b", "newreno"),)
        _refuse_bad_cross([args.hops])
    return RunSpec(shape, args.hops, variants, config=config)


def _refuse_bad_cross(hops_list) -> None:
    """Exit with the topology's one-line refusal of a cross of odd or too
    few hops, before anything runs."""
    for hops in hops_list:
        try:
            check_cross_hops(hops)
        except ValueError as exc:
            raise SystemExit(str(exc))


def _cmd_chain(args: argparse.Namespace) -> int:
    result = execute_run(_spec_from_args(args, "chain"))
    flow = result.flows[0]
    print(f"{args.variant} over a {args.hops}-hop chain ({args.time:g}s):")
    print(f"  goodput        : {flow.goodput_kbps:8.1f} kbps")
    print(f"  delivered      : {flow.delivered_packets} packets")
    print(f"  retransmissions: {flow.retransmits}")
    print(f"  timeouts       : {flow.timeouts}")
    if args.trace:  # --time 0 has no grid to sample: "(no data)"
        grid = (resample(flow.cwnd_trace, 0.0, args.time, args.time / 64)
                if args.time > 0 else [])
        print(ascii_series(grid, label="cwnd"))
    return 0


def _seeds(args: argparse.Namespace) -> tuple:
    """``--seeds`` consecutive seeds, the first of them ``--seed``."""
    return tuple(range(args.seed, args.seed + args.seeds))


def _cmd_sweep(args: argparse.Namespace) -> int:
    sweep_config = SweepConfig(
        hops=tuple(args.hops), seeds=_seeds(args), sim_time=args.time
    )
    sweep = throughput_retransmit_sweep(args.window, sweep=sweep_config,
                                        routing=args.routing)
    print(format_sweep(sweep, metric="goodput"))
    print()
    print(format_sweep(sweep, metric="retransmits"))
    return 0


def _cmd_cross(args: argparse.Namespace) -> int:
    _refuse_bad_cross(args.hops)
    points = fig_coexistence(
        args.a,
        args.b,
        hops_list=tuple(args.hops),
        sim_time=args.time,
        seeds=_seeds(args),
        window=args.window,
        routing=args.routing,
    )
    print(format_coexistence(points, args.a, args.b))
    return 0


def _cmd_dynamics(args: argparse.Namespace) -> int:
    result = execute_run(_spec_from_args(args, "dynamics"))
    for i, flow in enumerate(result.flows):
        print(ascii_series(flow.rate_series_kbps, label=f"flow {i} (kbps)"))
        print()
    tails = [
        [rate for t, rate in flow.rate_series_kbps if t >= args.time - 10.0]
        for flow in result.flows
    ]
    shares = [sum(r) / len(r) if r else 0.0 for r in tails]
    print(f"final shares: {[round(s, 1) for s in shares]} kbps; "
          f"Jain index {jain_index(shares):.3f}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    try:
        return _campaign(args)
    except EnvelopeError as exc:
        # A cache hit whose result bytes pass the checksum but do not
        # parse, found where its result is first read.
        raise SystemExit(f"campaign: {exc}; remove it with `repro-muzha "
                         f"doctor --cache {args.cache_dir} --repair`")


def _campaign(args: argparse.Namespace) -> int:
    config = _scenario_config(args)  # the seed is re-derived per unit
    if config.faults is not None:  # a chain of h hops has nodes 0..h
        for hops in sorted(set(args.hops)):
            config.faults.check_nodes(range(hops + 1))
    resume = None
    journal_path = args.journal
    if args.resume:
        if args.no_cache or args.clear_cache:
            raise SystemExit(
                "--resume requires the cache (drop --no-cache and "
                "--clear-cache): journaled completions are verified "
                "against — and read back from — the content-addressed cache"
            )
        try:
            resume = replay_journal(args.resume)
        except JournalError as exc:
            raise SystemExit(f"cannot resume: {exc}")
        journal_path = args.journal or args.resume
        print(
            f"resuming {args.resume}: {len(resume.completed)} journaled "
            f"completions, {len(resume.failed)} quarantined, "
            f"{resume.remaining} units remaining"
        )
    # Every flag has been checked; only now is the cache touched.
    cache = None
    if not args.no_cache:
        cache = CampaignCache(args.cache_dir)
        if args.clear_cache:
            removed = cache.clear()
            print(f"cache cleared: {removed} entries removed")
    # A cell named twice (``--hops 2 2``) is one scenario, listed once.
    cells = {}
    for spec in chain_grid(args.variants, args.hops, config=config):
        cells.setdefault(scenario_key(spec), spec)
    grid = list(cells.values())
    total_runs = len(grid) * args.replications

    # Each record's goodput, read once as it resolves — inside the
    # campaign, so a cached result that cannot be read stops it before its
    # journal is ended, with or without --quiet.
    goodputs = {}

    def report(record, done, total):
        run = record.run
        goodputs[run.index] = goodput = record.total_goodput_kbps
        if args.quiet:
            return
        flag = "cache" if record.cached else "ran  "
        print(
            f"[{done:3d}/{total}] {flag} {run.spec.kind} h={run.spec.hops:<2d} "
            f"{'+'.join(run.spec.variants):<10s} rep{run.replication} "
            f"{goodput:8.1f} kbps",
            flush=True,
        )

    print(
        f"campaign: {len(grid)} scenarios x {args.replications} replications "
        f"= {total_runs} runs, pool=warm workers={args.jobs}, "
        f"cache={'off' if cache is None else args.cache_dir}"
    )
    started = time.time()
    policy = RetryPolicy(
        task_timeout=args.task_timeout,
        max_retries=args.max_retries,
        backoff=args.retry_backoff,
    )
    shutdown = GracefulShutdown(drain_timeout=args.drain_timeout)
    # Everything that can refuse the command line has been parsed by now;
    # what follows opens files, and the finally closes them.
    journal = None
    try:
        if journal_path:
            try:
                journal = CampaignJournal(journal_path, resume=resume is not None)
            except JournalError as exc:
                raise SystemExit(str(exc))
        with shutdown:
            result = run_campaign(
                grid,
                replications=args.replications,
                base_seed=args.seed,
                jobs=args.jobs,
                cache=cache,
                progress=report,
                policy=policy,
                journal=journal,
                resume=resume,
                shutdown=shutdown,
            )
    except JournalPlanMismatch as exc:
        raise SystemExit(f"cannot resume: {exc}")
    finally:
        if journal is not None:
            journal.close()
    elapsed = time.time() - started

    by_cell = {}
    for record in result.records:
        by_cell.setdefault(record.run.scenario, []).append(
            goodputs[record.run.index])
    rows = []
    for key, spec in cells.items():
        cell = by_cell.get(key)
        if cell:
            rows.append(
                [spec.hops, "+".join(spec.variants),
                 f"{sum(cell) / len(cell):8.1f}", len(cell)]
            )
        else:  # every replication of this scenario was quarantined
            rows.append([spec.hops, "+".join(spec.variants), "   (failed)", 0])
    print()
    print(format_table(["hops", "variants", "goodput (kbps)", "runs"], rows,
                       title="campaign means"))
    print(
        f"\n{result.executed} simulated, {result.cache_hits} cache hits, "
        f"{len(result.failed)} failed, {result.cache_evictions} cache "
        f"evictions, {elapsed:.1f}s wall"
    )
    if not result.interrupted:
        print(f"campaign fingerprint: {result.fingerprint()}")
    if journal is not None:
        print(f"{journal.records_written} journal records written to "
              f"{journal_path} (summarise with `repro-muzha report "
              f"{journal_path}`)")
    if result.failed:
        print("\nquarantined runs (campaign results above are PARTIAL):")
        for failure in result.failed:
            run = failure.run
            print(
                f"  #{run.index} {run.spec.kind} h={run.spec.hops} "
                f"{'+'.join(run.spec.variants)} rep{run.replication} "
                f"seed={run.seed}: {failure.error} "
                f"({failure.attempts} attempts)"
            )
    if args.csv:
        path = export_campaign_csv(result, args.csv)
        print(f"per-run metrics written to {path}")
    if result.interrupted:
        print(
            f"\ninterrupted by {shutdown.signal_name or 'signal'}: "
            f"{len(result.records)} of {result.planned} units done, "
            f"{result.remaining} remaining"
        )
        if journal_path:
            print(f"resumable: re-run with --resume {journal_path}")
        else:
            print("not resumable: the campaign ran without --journal")
        return 3
    return 0 if result.complete else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    sink = NdjsonTraceSink(args.out, events=args.events)
    flight_holder = []

    def instrument(network, flows):
        sink.attach(network.sim.trace)
        if args.flight_dir:
            flight_holder.append(
                FlightRecorder(network.sim.trace, dump_dir=args.flight_dir)
            )
        if args.probe_interval > 0:
            attach_run_probe(network, flows, interval=args.probe_interval)

    with sink:
        result = execute_run(_spec_from_args(args), instrument)
    for recorder in flight_holder:
        recorder.detach()

    manifest_path = f"{args.out}.manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(result.manifest, handle, sort_keys=True, indent=2)
        handle.write("\n")

    print(f"{sink.records_written} trace records written to {args.out}")
    for event in sorted(sink.counts):
        print(f"  {event:<18s} {sink.counts[event]}")
    print(f"manifest written to {manifest_path}")
    if flight_holder:
        dumps = flight_holder[0].dumps
        print(f"{len(dumps)} anomaly dump(s) in {args.flight_dir}")
        for dump in dumps:
            print(f"  {dump.rule} node {dump.node} at t={dump.time:.3f}s "
                  f"({dump.records} records) -> {dump.path}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    result = execute_run(_spec_from_args(args))
    snapshot = result.metrics
    if args.json:
        json.dump(snapshot, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
        return 0
    rollups = snapshot["rollups"]
    rows = [[name, value] for name, value in rollups["global"].items()]
    print(format_table(["metric", "total"], rows, title="global counters"))
    names = sorted({n for by in rollups["per_node"].values() for n in by})
    if args.per_node and names:
        print()
        header = ["node"] + names
        node_rows = [
            [node] + [by.get(name, 0) for name in names]
            for node, by in rollups["per_node"].items()
        ]
        print(format_table(header, node_rows, title="per-node counters"))
    print()
    print(f"total goodput: {result.total_goodput_kbps:.1f} kbps; "
          f"manifest config digest {result.manifest['config_digest'][:12]}…")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import pstats

    spec = _spec_from_args(args)
    kept = []
    profiler = cProfile.Profile()
    profiler.enable()
    execute_run(spec, lambda network, flows: kept.append(network))
    profiler.disable()

    stats = pstats.Stats(profiler, stream=sys.stdout)
    # What one MAC frame cost in this run (EXPERIMENTS.md "What a frame
    # costs"; tests/unit/test_hot_path_budget.py pins the same ratios).
    network, calls = kept[0], stats.total_calls
    frames = network.channel.transmissions
    events = network.sim.scheduler.processed_events
    n = max(frames, 1)  # --time 0 sends nothing
    print(f"frames {frames}  events {events} ({events / n:.2f} per frame)"
          f"  calls {calls} ({calls / n:.1f} per frame)")
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.limit)
    if args.out:
        stats.dump_stats(args.out)
        print(f"profile data written to {args.out} "
              f"(inspect with `python -m pstats {args.out}`)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        print(render_report(args.log, as_json=args.json,
                            buckets=args.buckets, top_k=args.top))
    except FileNotFoundError:
        raise SystemExit(f"campaign log not found: {args.log}")
    except CampaignLogError as exc:
        raise SystemExit(f"bad campaign log {exc}")  # exc names the file
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    from .experiments.doctor import format_report as format_doctor_report

    if not (args.cache or args.journal or args.trace or args.manifest):
        raise SystemExit("nothing to check: pass --cache, --journal, "
                         "--trace and/or --manifest")
    try:
        checkup = run_doctor(
            cache=args.cache, journal=args.journal, repair=args.repair,
            trace=args.trace, manifest=args.manifest,
        )
    except ValueError as exc:  # load_schema: a committed schema is damaged
        raise SystemExit(f"doctor: {exc}")
    if args.json:
        json.dump(checkup.to_dict(), sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
    else:
        print(format_doctor_report(checkup))
    return 0 if checkup.healthy else 1


def _cmd_tables(args: argparse.Namespace) -> int:
    print(format_table(["Parameter", "Range"], Table51Parameters().rows(),
                       title="Table 5.1 — Simulation parameters"))
    print()
    rows = [
        (level, f"cwnd 8 -> {apply_drai(8.0, level):g}")
        for level in sorted(DRAI_TABLE, reverse=True)
    ]
    print(format_table(["DRAI", "effect"], rows, title="Table 5.2 — DRAI formula"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-muzha",
        description="TCP Muzha reproduction: run the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Every flag that takes a TCP variant accepts exactly the registry.
    variants = known_variants()

    chain = sub.add_parser("chain", help="single flow over an h-hop chain")
    _add_common(chain)
    chain.add_argument("--hops", type=_number(int, 1), default=4)
    chain.add_argument("--variant", choices=variants, default="muzha")
    chain.add_argument("--loss", type=_number(float, 0, 1), default=0.0,
                       help="per-frame random loss probability")
    chain.add_argument("--trace", action="store_true", help="print the cwnd trace")
    _add_faults(chain)
    _add_policy(chain)
    chain.set_defaults(func=_cmd_chain)

    sweep = sub.add_parser("sweep", help="Figs 5.8-5.13 hop sweep")
    _add_common(sweep)
    sweep.add_argument("--hops", type=_number(int, 1), nargs="+",
                       default=[4, 8, 16])
    sweep.add_argument("--seeds", type=_number(int, 1), default=3)
    sweep.set_defaults(func=_cmd_sweep)

    cross = sub.add_parser("cross", help="Simulation 3A coexistence on a cross")
    _add_common(cross)
    cross.add_argument("--a", choices=variants, default="newreno",
                       help="horizontal flow variant")
    cross.add_argument("--b", choices=variants, default="muzha",
                       help="vertical flow variant")
    cross.add_argument("--hops", type=_number(int, 1), nargs="+", default=[4])
    cross.add_argument("--seeds", type=_number(int, 1), default=3)
    cross.set_defaults(func=_cmd_cross)

    dynamics = sub.add_parser("dynamics", help="Simulation 3B staggered flows")
    _add_common(dynamics)
    dynamics.add_argument("--variant", choices=variants, default="muzha")
    dynamics.add_argument("--hops", type=_number(int, 1), default=4)
    dynamics.set_defaults(func=_cmd_dynamics)

    campaign = sub.add_parser(
        "campaign", help="parallel cached batch of chain scenarios"
    )
    _add_common(campaign)
    campaign.add_argument("--hops", type=_number(int, 1), nargs="+",
                          default=[4, 8, 16],
                          help="chain lengths in the grid")
    campaign.add_argument("--variants", nargs="+", choices=variants,
                          default=list(PAPER_VARIANTS),
                          help="TCP variants in the grid")
    campaign.add_argument("--replications", type=_number(int, 1), default=3,
                          help="independent replications per scenario")
    campaign.add_argument("--loss", type=_number(float, 0, 1), default=0.0,
                          help="per-frame random loss probability")
    campaign.add_argument("--jobs", type=_number(int, 1),
                          default=os.cpu_count(),
                          metavar="N",
                          help="worker pool size (1 = in-process serial)")
    campaign.add_argument("--cache-dir", type=_cache_dir,
                          default="results/cache",
                          help="result cache: an on-disk directory")
    campaign.add_argument("--no-cache", action="store_true",
                          help="always simulate; do not read or write the cache")
    campaign.add_argument("--clear-cache", action="store_true",
                          help="drop every cached result before running")
    campaign.add_argument("--csv", default=None, metavar="PATH",
                          help="also write per-run metrics to a CSV file")
    campaign.add_argument("--quiet", action="store_true",
                          help="suppress per-run progress lines")
    campaign.add_argument("--task-timeout", type=_number(float, 0, above=True),
                          default=None,
                          metavar="SECONDS",
                          help="wall-clock watchdog per run attempt "
                               "(default: no timeout)")
    campaign.add_argument("--max-retries", type=_number(int, 0), default=2,
                          help="retries before a crashed/hung run is "
                               "quarantined")
    campaign.add_argument("--retry-backoff", type=_number(float, 0),
                          default=0.25,
                          metavar="SECONDS",
                          help="base delay before a retry (doubles per "
                               "attempt)")
    campaign.add_argument("--journal", default=None, metavar="PATH",
                          help="write-ahead journal: the plan is recorded "
                               "before dispatch and every completion, retry "
                               "and worker event after it, so an interrupted "
                               "campaign (exit code 3) can be resumed with "
                               "--resume PATH; `report PATH` summarises it")
    campaign.add_argument("--resume", default=None, metavar="JOURNAL",
                          help="resume an interrupted campaign from its "
                               "journal: completed units are re-verified "
                               "against the cache and only the remainder "
                               "executes; grid, replications and --seed "
                               "must match the original run")
    campaign.add_argument("--drain-timeout", type=_number(float, 0),
                          default=10.0,
                          metavar="SECONDS",
                          help="on SIGINT/SIGTERM, wait this long for "
                               "in-flight units before terminating workers "
                               "(a second signal aborts the drain "
                               "immediately)")
    _add_faults(campaign)
    _add_policy(campaign)
    campaign.set_defaults(func=_cmd_campaign)

    def add_scenario_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("scenario", choices=(*SCENARIO_KINDS, "dynamics"),
                       help="which scenario shape to run")
        p.add_argument("--hops", type=_number(int, 1), default=4)
        p.add_argument("--variant", choices=variants, default="muzha",
                       help="flow variant (horizontal flow for cross)")
        p.add_argument("--b", choices=variants, default="newreno",
                       help="vertical flow variant (cross only)")

    trace = sub.add_parser(
        "trace", help="run a scenario with trace sinks + provenance manifest"
    )
    _add_common(trace)
    add_scenario_args(trace)
    trace.add_argument("--out", default="trace.ndjson", metavar="PATH",
                       help="trace output file")
    trace.add_argument("--events", nargs="+", action=_Subscription,
                       default=("*",), metavar="EVENT",
                       help="only record these event names (default: all)")
    trace.add_argument("--flight-dir", default=None, metavar="DIR",
                       help="arm the flight recorder; anomaly dumps go here")
    trace.add_argument("--probe-interval", type=_number(float, 0), default=0.5,
                       help="time-series probe period, seconds (0 disables)")
    _add_faults(trace)
    _add_policy(trace)
    trace.set_defaults(func=_cmd_trace)

    stats_p = sub.add_parser(
        "stats", help="run a scenario and print its metrics snapshot"
    )
    _add_common(stats_p)
    add_scenario_args(stats_p)
    stats_p.add_argument("--json", action="store_true",
                         help="dump the full snapshot as JSON")
    stats_p.add_argument("--per-node", action="store_true",
                         help="also print the per-node rollup table")
    _add_faults(stats_p)
    _add_policy(stats_p)
    stats_p.set_defaults(func=_cmd_stats)

    profile = sub.add_parser(
        "profile", help="cProfile a scenario to find simulator hot spots"
    )
    _add_common(profile)
    add_scenario_args(profile)
    profile.add_argument("--sort", choices=("tottime", "cumulative", "ncalls"),
                         default="tottime", help="stat ordering for the report")
    profile.add_argument("--limit", type=_number(int, 0), default=25,
                         help="number of rows to print")
    profile.add_argument("--out", default=None, metavar="PATH",
                         help="also dump raw pstats data to PATH")
    profile.set_defaults(func=_cmd_profile)

    report_p = sub.add_parser(
        "report", help="summarise a campaign journal"
    )
    report_p.add_argument("log", metavar="JOURNAL",
                          help="journal from `campaign --journal`")
    report_p.add_argument("--json", action="store_true",
                          help="emit the aggregate summary as JSON")
    report_p.add_argument("--top", type=_number(int, 0), default=10,
                          metavar="K",
                          help="slowest units to list")
    report_p.add_argument("--buckets", type=_number(int, 1, MAX_BUCKETS),
                          default=20, metavar="N",
                          help="throughput timeline resolution")
    report_p.set_defaults(func=_cmd_report)

    doctor = sub.add_parser(
        "doctor",
        help="fsck artifacts: cache, journal, trace, manifest"
    )
    doctor.add_argument("--cache", default=None, metavar="DIR",
                        help="campaign cache directory to check for orphaned "
                             "tmp files and corrupt envelopes")
    doctor.add_argument("--journal", default=None, metavar="PATH",
                        help="write-ahead journal to check (torn tail, "
                             "schema violations, drift against --cache)")
    doctor.add_argument("--trace", default=None, metavar="PATH",
                        help="NDJSON trace to check against the committed "
                             "schema (a blank file or torn tail is an error)")
    doctor.add_argument("--manifest", default=None, metavar="PATH",
                        help="run manifest to check against the committed "
                             "schema and its own config/spec digests")
    doctor.add_argument("--repair", action="store_true",
                        help="fix what can be fixed safely: delete orphaned "
                             "tmp files and corrupt/drifted cache entries, "
                             "truncate torn journal tails")
    doctor.add_argument("--json", action="store_true",
                        help="emit findings as JSON")
    doctor.set_defaults(func=_cmd_doctor)

    tables = sub.add_parser("tables", help="print Tables 5.1 and 5.2")
    tables.set_defaults(func=_cmd_tables)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FaultPlanError as exc:  # a plan that parsed but does not fit the scene
        print(f"{parser.prog} {args.command}: error: argument --faults: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
