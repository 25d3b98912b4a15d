"""The five workloads: inputs made from the seed, one pass, and its checks.

Every workload drives ``repro`` through public functions only, and the
program never learns which workload it is serving: the seed reaches it as
``ScenarioConfig.seed`` / ``base_seed`` and nothing else does.

A *pass* is the fixed amount of work a run repeats and takes the median
of.  Each pass returns per-unit output digests, so the harness can require
that every pass of a run — warm-up, timed, traced — produced the same
bytes.  The warm-up pass of a simulation workload doubles as the *count
pass*: it runs the same simulations through the ``instrument=`` hook to
read ``processed_events`` and folds the exact counters the program
already keeps (``RunResult.metrics`` rollups, ``lane_counters()``, the
manifest timings).
"""

from __future__ import annotations

import shutil
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.core.drai import install_drai
from repro.experiments import (
    PAPER_VARIANTS,
    CampaignCache,
    CampaignJournal,
    ScenarioConfig,
    SweepConfig,
    chain_grid,
    export_coexistence_csv,
    export_multi_series_csv,
    export_sweep_csv,
    fig_coexistence,
    fig_cwnd_traces,
    fig_dynamics,
    read_coexistence_csv,
    read_journal,
    read_multi_series_csv,
    read_sweep_csv,
    replay_journal,
    run_campaign,
    run_chain,
    run_cross,
    stable_digest,
    throughput_retransmit_sweep,
)
from repro.faults import FaultEvent, FaultPlan
from repro.obs.metrics import collect_network_metrics
from repro.phy import HAVE_NUMPY
from repro.routing import install_aodv_routing, install_static_routing
from repro.topology import build_grid, grid_node
from repro.traffic import start_ftp

from ledger import Spans

#: Campaign worker processes: the smallest count that does not
#: short-circuit ``run_campaign`` to in-process execution.
JOBS = 2

#: Exact-count metric → key in ``RunResult.metrics["rollups"]["global"]``.
ROLLUP_COUNTS = {
    "phy.rx_ok": "phy.rx_ok",
    "phy.collisions": "phy.collisions",
    "mac.rts_tx": "mac.rts_tx",
    "mac.data_tx": "mac.data_tx",
    "mac.retries": "mac.retries",
    "mac.drops_retry_limit": "mac.drops_retry_limit",
    "mac.backoff_slots": "mac.backoff_slots",
    "net.forwarded": "net.forwarded",
    "net.ifq_enqueued": "ifq.enqueued",
    "net.ifq_drops": "ifq.drops",
    "net.ifq_high_water": "ifq.high_water",
    "routing.control_tx": "routing.control_tx",
    "routing.discoveries": "aodv.discoveries",
    "routing.rerr_tx": "aodv.rerr_tx",
    "routing.link_failures": "routing.link_failures",
    "transport.data_sent": "tcp.data_sent",
    "transport.retransmits": "tcp.retransmits",
    "transport.timeouts": "tcp.timeouts",
    "transport.delivered_packets": "tcp.delivered_packets",
    "core.drai_samples": "drai.state_samples",
}

#: Manifest ``timings`` key → per-layer metric.
TIMING_METRICS = {
    "setup_s": "exp.runner.setup_s",
    "sim_s": "exp.runner.sim_s",
    "harvest_s": "obs.harvest_s",
    "serialize_s": "exp.runner.serialize_s",
}


class Region:
    """The measured stretch of one pass; profiled too when tracing."""

    def __init__(self, profiler: Any = None) -> None:
        self.profiler = profiler
        self.wall_s = 0.0

    def __enter__(self) -> "Region":
        if self.profiler is not None:
            self.profiler.enable()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.wall_s = time.perf_counter() - self._t0
        if self.profiler is not None:
            self.profiler.disable()


@contextmanager
def measured(region: Region, outcome: "PassResult", label: str) -> Iterator[None]:
    """The measured stretch of a pass that stands or falls as a whole: an
    exception inside it fails every unit of the pass."""
    try:
        with region:
            yield
    except Exception:
        outcome.fail(outcome.units,
                     f"{label}: " + traceback.format_exc(limit=3))
    finally:
        outcome.wall_s = region.wall_s


@dataclass
class Observed:
    """What one simulation run exposes to the benchmark."""

    rollups: Dict[str, int]
    engine: Dict[str, Any]  # WirelessChannel.lane_counters()
    timings: Dict[str, float]  # setup_s / sim_s / harvest_s / serialize_s
    events: int = 0  # scheduler.processed_events, count pass only


def observe(metrics: Dict[str, Any], manifest: Dict[str, Any],
            events: int = 0) -> Observed:
    return Observed(
        rollups=metrics["rollups"]["global"],
        engine=manifest["engine"],
        timings=manifest["timings"],
        events=events,
    )


def fold_counts(observed: Sequence[Observed]) -> Dict[str, float]:
    """Sum the per-run exact counters of one pass into per-layer metrics."""
    counts: Dict[str, float] = {
        name: sum(o.rollups.get(key, 0) for o in observed)
        for name, key in ROLLUP_COUNTS.items()
    }
    counts["sim.events"] = sum(o.events for o in observed)
    tx = sum(o.engine["transmissions"] for o in observed)
    numpy_frames = sum(o.engine["numpy_fanout_frames"] for o in observed)
    counts["phy.transmissions"] = tx
    counts["phy.numpy_fanout_share"] = numpy_frames / tx if tx else 0.0
    counts["mac.retry_share"] = (
        counts["mac.retries"] / counts["mac.rts_tx"]
        if counts["mac.rts_tx"] else 0.0
    )
    counts["transport.delivery_share"] = (
        counts["transport.delivered_packets"] / counts["transport.data_sent"]
        if counts["transport.data_sent"] else 0.0
    )
    for key, name in TIMING_METRICS.items():
        counts[name] = sum(o.timings[key] for o in observed)
    return counts


@dataclass
class PassResult:
    """Outcome of one pass: its measured wall time and what it produced."""

    wall_s: float
    units: int  # units attempted
    digests: Dict[str, str] = field(default_factory=dict)
    failed: int = 0  # raised, quarantined, incomplete, or wrongly executed
    errors: List[str] = field(default_factory=list)
    observed: List[Observed] = field(default_factory=list)
    extras: Dict[str, float] = field(default_factory=dict)

    def fail(self, units: int, message: str) -> None:
        self.failed = min(self.units, self.failed + units)
        self.errors.append(message)


# ---------------------------------------------------------------------------
# Simulation workloads


@dataclass(frozen=True)
class Unit:
    """One simulation run: ``run(instrument)`` returns a ``RunResult``."""

    label: str
    run: Callable[[Any], Any]


class SimWorkload:
    """Closed loop, in-process: a pass runs every unit once, in order.

    The work of a pass is fixed by the workload — these units, for these
    simulated seconds — so ``units_per_s`` has a numerator the program
    cannot change; how many events it simulates to get there is the
    per-layer count ``sim.events``."""

    kind = "sim"

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.units: List[Unit] = []
        self.counts: Dict[str, float] = {}
        #: Unit label -> its own exact counters (count pass).
        self.unit_counts: Dict[str, Dict[str, float]] = {}

    def setup(self) -> None:
        self.units = self.make_units()

    def make_units(self) -> List[Unit]:
        raise NotImplementedError

    def unit_digest(self, label: str, result: Any) -> str:
        return result.manifest["result_digest"]

    def check_unit(self, label: str, result: Any) -> Optional[str]:
        """An error message when ``result`` violates a workload invariant."""
        return None

    def run_units(self, region: Region, spans: Spans,
                  counting: bool) -> PassResult:
        outcome = PassResult(wall_s=0.0, units=len(self.units))
        results: Dict[str, Any] = {}
        events: Dict[str, int] = {}
        with region:
            for unit in self.units:
                seen: List[Any] = []
                hook = (lambda network, flows: seen.append(network)) \
                    if counting else None
                with spans.span("unit", label=unit.label):
                    try:
                        results[unit.label] = unit.run(hook)
                    except Exception:
                        outcome.fail(1, f"{unit.label}: "
                                     + traceback.format_exc(limit=3))
                        continue
                if seen:
                    events[unit.label] = seen[0].sim.scheduler.processed_events
        outcome.wall_s = region.wall_s
        for label, result in results.items():
            outcome.digests[label] = self.unit_digest(label, result)
            outcome.observed.append(observe(
                result.metrics, result.manifest, events.get(label, 0)))
            if counting:
                self.unit_counts[label] = fold_counts(outcome.observed[-1:])
            problem = self.check_unit(label, result)
            if problem:
                outcome.fail(1, f"{label}: {problem}")
        return outcome

    def count_pass(self, region: Region, spans: Spans) -> PassResult:
        outcome = self.run_units(region, spans, counting=True)
        self.counts = fold_counts(outcome.observed)
        return outcome

    def timed_pass(self, region: Region, spans: Spans) -> PassResult:
        return self.run_units(region, spans, counting=False)


class PaperFigures(SimWorkload):
    """The paper's own traffic at reduced scale: clean medium, AODV, the
    figure generators and their CSV writers — the figure-suite wall clock.

    Timed passes call ``fig_*`` exactly as the figure scripts do; those
    return aggregates, not ``RunResult``s, so the count pass runs the same
    simulations directly and both are reduced to the same per-unit
    digests (sweep point, coexistence point, dynamics run, cwnd trace).
    """

    HOPS = (4, 8, 16)
    SWEEP_WINDOW = 8
    COEX_HOPS = 4
    CWND_HOPS = 8
    CWND_WINDOW = 32

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        # 3 sim-s sweeps: at 2 sim-s one TCP timeout idles half of an
        # 8-hop run, and the events a pass simulates spread by 10 % over
        # ten seeds (IQR/median); at 3 sim-s by 5 %.
        self.sweep_time = 3.0 * scale
        self.coex_time = 6.0 * scale
        self.dyn_time = 9.0 * scale
        self.dyn_starts = (0.0, 3.0 * scale, 6.0 * scale)
        self.dyn_interval = 0.75 * scale
        self.cwnd_time = 3.0 * scale

    def make_units(self) -> List[Unit]:
        seed = self.seed
        units: List[Unit] = []
        for variant in PAPER_VARIANTS:
            for hops in self.HOPS:
                config = ScenarioConfig(sim_time=self.sweep_time, seed=seed,
                                        window=self.SWEEP_WINDOW)
                units.append(Unit(
                    f"sweep/{variant}/{hops}",
                    lambda hook, v=variant, h=hops, c=config:
                        run_chain(h, [v], config=c, instrument=hook),
                ))
        config = ScenarioConfig(sim_time=self.coex_time, seed=seed, window=4)
        units.append(Unit(
            "coexistence",
            lambda hook, c=config: run_cross(
                self.COEX_HOPS, "muzha", "newreno", config=c, instrument=hook),
        ))
        config = ScenarioConfig(sim_time=self.dyn_time, seed=seed, window=8,
                                sampler_interval=self.dyn_interval)
        units.append(Unit(
            "dynamics",
            lambda hook, c=config: run_chain(
                4, ["muzha"] * 3, config=c, starts=self.dyn_starts,
                record_dynamics=True, instrument=hook),
        ))
        for variant in PAPER_VARIANTS:
            config = ScenarioConfig(sim_time=self.cwnd_time, seed=seed,
                                    window=self.CWND_WINDOW)
            units.append(Unit(
                f"cwnd/{variant}",
                lambda hook, v=variant, c=config:
                    run_chain(self.CWND_HOPS, [v], config=c, instrument=hook),
            ))
        return units

    def unit_digest(self, label: str, result: Any) -> str:
        if label.startswith("sweep/"):
            flow = result.flows[0]
            return stable_digest([flow.goodput_kbps, float(flow.retransmits),
                                  float(flow.timeouts)])
        if label == "coexistence":
            return stable_digest([result.flows[0].goodput_kbps,
                                  result.flows[1].goodput_kbps,
                                  result.fairness])
        if label.startswith("cwnd/"):
            return stable_digest(result.flows[0].cwnd_trace)
        return result.manifest["result_digest"]

    def timed_pass(self, region: Region, spans: Spans) -> PassResult:
        outcome = PassResult(wall_s=0.0, units=len(self.units))
        out = self.workdir / "figures"
        seed = self.seed
        with measured(region, outcome, "figures"):
            with spans.span("figures"):
                sweep = throughput_retransmit_sweep(
                    self.SWEEP_WINDOW,
                    SweepConfig(hops=self.HOPS, seeds=(seed,),
                                sim_time=self.sweep_time),
                    PAPER_VARIANTS,
                )
                coex = fig_coexistence(
                    "muzha", "newreno", hops_list=(self.COEX_HOPS,),
                    sim_time=self.coex_time, seeds=(seed,),
                )
                dynamics = fig_dynamics(
                    "muzha", starts=self.dyn_starts,
                    sim_time=self.dyn_time, seed=seed,
                    sampler_interval=self.dyn_interval,
                )
                traces = fig_cwnd_traces(
                    self.CWND_HOPS, window=self.CWND_WINDOW,
                    sim_time=self.cwnd_time, seed=seed,
                )
            with spans.span("export"):
                rates = {f"flow{i}": flow.rate_series_kbps
                         for i, flow in enumerate(dynamics.flows)}
                export_sweep_csv(sweep, out / "sweep.csv")
                export_coexistence_csv(coex, "muzha", "newreno",
                                       out / "coexistence.csv")
                export_multi_series_csv(rates, out / "dynamics.csv")
                export_multi_series_csv(traces, out / "cwnd.csv")
        if outcome.failed:
            return outcome
        for (variant, hops), point in sweep.points.items():
            outcome.digests[f"sweep/{variant}/{hops}"] = stable_digest(
                [point.goodput_kbps, point.retransmits, point.timeouts])
        point = coex[0]
        outcome.digests["coexistence"] = stable_digest(
            [point.goodput_a_kbps, point.goodput_b_kbps, point.fairness])
        outcome.digests["dynamics"] = dynamics.manifest["result_digest"]
        for variant, trace in traces.items():
            outcome.digests[f"cwnd/{variant}"] = stable_digest(trace)
        try:
            self.check_csvs(out, sweep, coex, rates, traces)
        except Exception as exc:  # ExportError, or a mismatch raised below
            outcome.fail(1, f"csv round trip: {type(exc).__name__}: {exc}")
        return outcome

    @staticmethod
    def check_csvs(out: Path, sweep: Any, coex: Any,
                   rates: Dict[str, Any], traces: Dict[str, Any]) -> None:
        """Re-read every CSV with the program's readers and compare it to
        the in-memory figure (to the precision the writers keep)."""
        reread = read_sweep_csv(out / "sweep.csv")
        if set(reread.points) != set(sweep.points):
            raise ValueError("sweep.csv grid differs from the sweep")
        for key, point in sweep.points.items():
            if abs(reread.points[key].goodput_kbps - point.goodput_kbps) > 1e-3:
                raise ValueError(f"sweep.csv goodput differs at {key}")
        _, _, points = read_coexistence_csv(out / "coexistence.csv")
        if len(points) != len(coex) or any(
            abs(a.goodput_a_kbps - b.goodput_a_kbps) > 1e-3
            for a, b in zip(points, coex)
        ):
            raise ValueError("coexistence.csv differs from the figure")
        for name, series in (("dynamics.csv", rates), ("cwnd.csv", traces)):
            loaded = read_multi_series_csv(out / name)
            if {k: len(v) for k, v in loaded.items()} != \
                    {k: len(v) for k, v in series.items() if len(v)}:
                raise ValueError(f"{name} series lengths differ")


def fault_plan(sim_time: float, outage: float) -> FaultPlan:
    """Twice over: a crash (with restart) of node 2, a crash of node 4, a
    blackout of link 1-2, evenly spaced over the run.  Outages are short and
    frequent; long ones leave a flow in RTO back-off for the rest of its
    run, and then the seed decides how many events a pass simulates."""
    kinds = ("crash2", "crash4", "blackout") * 2
    step = sim_time / (len(kinds) + 1)
    events = []
    for i, kind in enumerate(kinds):
        at = step * (i + 0.7)
        if kind == "blackout":
            events.append(FaultEvent(time=at, kind="link_blackout", node=1,
                                     peer=2, duration=outage))
        else:
            events.append(FaultEvent(time=at, kind="node_crash",
                                     node=int(kind[-1]), duration=outage))
    return FaultPlan(events=tuple(events))


class LossyFaulted(SimWorkload):
    """Same layers, error path: 5 % frame loss under a fault plan, so AODV
    repair, TCP timeouts, MAC retry exhaustion, fault vetoes and the
    throughput samplers carry weight they do not carry on a clean medium.

    Each of the three scenarios runs under ``SUBSEEDS`` seeds derived from
    the workload seed, 8 sim-s each.  Whether a flow survives an outage or
    sits out a route repair and an RTO back-off is decided run by run: over
    seeds the events of one chain run vary by about 40 % (standard
    deviation) and of one cross run by 15 %, so a pass needs many runs
    before its wall time says more about the program than about the seed."""

    PER = 0.05
    SUBSEEDS = 6
    SIM_TIME = 8.0

    def make_units(self) -> List[Unit]:
        sim_time = self.SIM_TIME * self.scale
        plan = fault_plan(sim_time, outage=0.3 * self.scale)
        units: List[Unit] = []
        for k in range(max(1, round(self.SUBSEEDS * self.scale))):
            seed = self.seed * self.SUBSEEDS + k

            def config(policy: Optional[str] = None,
                       seed: int = seed) -> ScenarioConfig:
                return ScenarioConfig(sim_time=sim_time, seed=seed,
                                      packet_error_rate=self.PER, faults=plan,
                                      policy=policy)

            units += [
                Unit(f"chain6/fuzzy/{k}", lambda hook, c=config(): run_chain(
                    6, ["muzha", "sack"], config=c, record_dynamics=True,
                    instrument=hook)),
                Unit(f"chain6/hysteresis/{k}",
                     lambda hook, c=config("hysteresis"): run_chain(
                         6, ["muzha", "sack"], config=c, record_dynamics=True,
                         instrument=hook)),
                Unit(f"cross4/{k}", lambda hook, c=config(): run_cross(
                    4, "muzha", "vegas", config=c, instrument=hook)),
            ]
        return units


@dataclass
class GridRun:
    """A dense-grid run, shaped like the parts of ``RunResult`` we read."""

    metrics: Dict[str, Any]
    manifest: Dict[str, Any]


class DenseGrid(SimWorkload):
    """PHY fan-out dominated: a 7x7 grid packed so tightly that every radio
    carrier-senses every other (fan-out 48, above ``NUMPY_MIN_FANOUT``),
    assembled from the public topology/routing/traffic/core functions —
    the workload the batch lane's keep-or-delete decision is made on."""

    SIDE = 7
    SPACING = 50.0

    def make_units(self) -> List[Unit]:
        sim_time = 3.5 * self.scale
        return [
            Unit("static/muzha+newreno", lambda hook: self.run_grid(
                "static", ("muzha", "newreno"), sim_time, hook)),
            Unit("aodv/sack+vegas", lambda hook: self.run_grid(
                "aodv", ("sack", "vegas"), sim_time, hook)),
        ]

    def run_grid(self, routing: str, variants: Sequence[str],
                 sim_time: float, instrument: Any) -> GridRun:
        """Two crossing corner-to-corner flows; timed like the runner."""
        side = self.SIDE
        t0 = time.perf_counter()
        network = build_grid(side, side, seed=self.seed, spacing=self.SPACING)
        if routing == "static":
            install_static_routing(network.nodes, network.channel)
        else:
            install_aodv_routing(network.nodes, network.sim)
        if any(v.startswith("muzha") for v in variants):
            install_drai(network.nodes, network.sim)
        last = side - 1
        corners = [
            (grid_node(network, side, side, 0, 0),
             grid_node(network, side, side, last, last)),
            (grid_node(network, side, side, 0, last),
             grid_node(network, side, side, last, 0)),
        ]
        flows = [
            start_ftp(network.sim, src, dst, variant=variant, window=8,
                      sport=1000 + i, dport=2000 + i)
            for i, (variant, (src, dst)) in enumerate(zip(variants, corners))
        ]
        if instrument is not None:
            instrument(network, flows)
        t1 = time.perf_counter()
        network.sim.run(until=sim_time)
        t2 = time.perf_counter()
        metrics = collect_network_metrics(network, flows).snapshot()
        t3 = time.perf_counter()
        digest = stable_digest({
            "metrics": metrics,
            "delivered": [flow.sink.delivered_packets for flow in flows],
        })
        t4 = time.perf_counter()
        return GridRun(metrics=metrics, manifest={
            "result_digest": digest,
            "engine": network.channel.lane_counters(),
            "timings": {"setup_s": t1 - t0, "sim_s": t2 - t1,
                        "harvest_s": t3 - t2, "serialize_s": t4 - t3},
        })

    def check_unit(self, label: str, result: Any) -> Optional[str]:
        engine = result.manifest["engine"]
        if HAVE_NUMPY and engine["numpy_fanout_frames"] != engine["transmissions"]:
            return (f"only {engine['numpy_fanout_frames']} of "
                    f"{engine['transmissions']} transmissions took the wide "
                    "fan-out path")
        if engine["transmissions"] == 0:
            return "no transmissions"
        return None


# ---------------------------------------------------------------------------
# Campaign workloads


@dataclass(frozen=True)
class CampaignSummary:
    """The facts a pass checks about one ``CampaignResult`` — kept in place
    of the result so a pass does not hold six copies of 300 results."""

    complete: bool
    missing: int  # quarantined + never resolved
    executed: int
    cache_hits: int

    @classmethod
    def of(cls, result: Any) -> "CampaignSummary":
        return cls(result.complete, len(result.failed) + result.remaining,
                   result.executed, result.cache_hits)


class CampaignWorkload:
    """Closed loop, one coordinator + ``JOBS`` warm workers: 300 units of
    ~3 ms simulation each, so the engine — not the simulator — is measured."""

    kind = "campaign"
    VARIANTS = ("muzha", "newreno")
    HOPS = (2, 3, 4)

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.replications = max(2, round(50 * scale))
        self.grid = chain_grid(
            self.VARIANTS, self.HOPS,
            config=ScenarioConfig(sim_time=0.1, window=4),
        )
        self.planned = len(self.grid) * self.replications
        self.counts: Dict[str, float] = {}
        self.unit_counts: Dict[str, Dict[str, float]] = {}
        self.passes = 0

    def setup(self) -> None:
        pass

    def campaign(self, cache: CampaignCache, journal_path: Path,
                 resume: Any = None) -> Any:
        with CampaignJournal(journal_path, resume=resume is not None) as journal:
            return run_campaign(
                self.grid, replications=self.replications,
                base_seed=self.seed, jobs=JOBS, cache=cache,
                pool_mode="warm", journal=journal, resume=resume,
            )

    def check_campaign(self, outcome: PassResult, label: str,
                       summary: "CampaignSummary", end_record: Dict[str, Any],
                       executed: int) -> None:
        """Completeness, the expected executed count, and the fingerprint
        the engine itself journaled (no second hashing in the pass)."""
        if summary.missing or not summary.complete:
            outcome.fail(max(summary.missing, 1),
                         f"{label}: incomplete campaign ({summary.missing} "
                         "units quarantined or never resolved)")
        if summary.executed != executed:
            outcome.fail(abs(summary.executed - executed),
                         f"{label}: executed {summary.executed} units, "
                         f"expected {executed}")
        outcome.digests[label] = str(end_record.get("fingerprint"))

    def count_pass(self, region: Region, spans: Spans) -> PassResult:
        outcome = self.timed_pass(region, spans)
        self.counts = fold_counts(outcome.observed)
        return outcome

    def timed_pass(self, region: Region, spans: Spans) -> PassResult:
        raise NotImplementedError


def end_records(journal_path: Path) -> List[Dict[str, Any]]:
    """The ``end`` record of each generation in a campaign journal."""
    records, _ = read_journal(journal_path)
    return [record for record in records if record.get("kind") == "end"]


def observe_records(result: Any) -> List[Observed]:
    return [
        observe(record.metrics["metrics"], record.manifest)
        for record in result.records if record.manifest is not None
    ]


class CampaignCold(CampaignWorkload):
    """Engine write path: every pass starts from an empty cache and a new
    journal, so planning, dispatch + framing, result serialisation, the
    durable ``put`` and the journal fsync are the critical path."""

    def timed_pass(self, region: Region, spans: Spans) -> PassResult:
        outcome = PassResult(wall_s=0.0, units=self.planned)
        self.passes += 1
        root = self.workdir / f"cold-{self.passes}"
        journal_path = root / "journal.ndjson"
        with measured(region, outcome, "cold"), \
                spans.span("run_campaign", units=self.planned):
            result = self.campaign(CampaignCache(root / "cache"), journal_path)
        if outcome.failed:
            return outcome
        self.check_campaign(outcome, "cold", CampaignSummary.of(result),
                            end_records(journal_path)[-1],
                            executed=self.planned)
        outcome.observed = observe_records(result)
        busy = sum(r.manifest["wall_time_s"] for r in result.records)
        outcome.extras = {
            "exp.campaign.engine_share": 1.0 - busy / JOBS / outcome.wall_s,
            "exp.campaign.executed_units": result.executed,
            "exp.cachestore.hit_share": result.cache_hits / self.planned,
        }
        shutil.rmtree(root, ignore_errors=True)
        return outcome


class CampaignCached(CampaignWorkload):
    """Engine read path: the grid is executed once in set-up; a pass is
    ``RERUNS`` plain re-runs plus ``RERUNS`` journal-resumed re-runs against
    the warm cache and must execute nothing — plan + digest + ``get`` +
    checksum verify + journal replay are all of the work."""

    RERUNS = 3

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        self.cache = CampaignCache(workdir / "cache")
        self.prefill_journal = workdir / "prefill.ndjson"
        self.fingerprint = ""

    def setup(self) -> None:
        result = self.campaign(self.cache, self.prefill_journal)
        if not result.complete or result.executed != self.planned:
            raise RuntimeError("cache prefill did not execute the whole grid")
        self.fingerprint = result.fingerprint()

    def timed_pass(self, region: Region, spans: Spans) -> PassResult:
        # Every re-run resolves the whole grid: that many units per pass.
        outcome = PassResult(wall_s=0.0, units=self.planned * 2 * self.RERUNS)
        self.passes += 1
        root = self.workdir / f"cached-{self.passes}"
        reruns = []
        with measured(region, outcome, "cached"):
            for i in range(self.RERUNS):
                path = root / f"journal-{i}.ndjson"
                with spans.span("run_campaign", mode="plain"):
                    plain = self.campaign(self.cache, path)
                with spans.span("run_campaign", mode="resume"):
                    resumed = self.campaign(self.cache, path,
                                            resume=replay_journal(path))
                reruns.append((i, path, CampaignSummary.of(plain),
                               CampaignSummary.of(resumed)))
        if outcome.failed:
            return outcome
        hits = executed = 0
        for i, path, plain, resume in reruns:
            # One journal, two generations: the plain run's end record,
            # then the one its resume appended.
            ends = end_records(path)
            for label, summary, end in ((f"plain{i}", plain, ends[0]),
                                        (f"resume{i}", resume, ends[-1])):
                self.check_campaign(outcome, label, summary, end, executed=0)
                if outcome.digests[label] != self.fingerprint:
                    outcome.fail(self.planned, f"{label}: fingerprint differs "
                                 "from the cold execution in set-up")
                hits += summary.cache_hits
                executed += summary.executed
        outcome.observed = observe_records(resumed)
        outcome.extras = {
            "exp.campaign.engine_share": 1.0,
            "exp.campaign.executed_units": executed,
            "exp.cachestore.hit_share": hits / outcome.units,
        }
        shutil.rmtree(root, ignore_errors=True)
        return outcome


WORKLOADS = {
    "paper_figures": PaperFigures,
    "lossy_faulted": LossyFaulted,
    "dense_grid": DenseGrid,
    "campaign_cold": CampaignCold,
    "campaign_cached": CampaignCached,
}
