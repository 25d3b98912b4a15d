"""Per-figure data generators.

One function per paper artefact; each returns plain data structures (dicts /
lists of tuples) that the CLI prints, the golden-figure tests compare and
the examples plot as ASCII charts.  The paper-scale evidence for every
figure is the claims suite (``tests/claims/``), not these.  Figure
numbering follows the paper:

=================  =========================================================
fig_cwnd_traces    Figs 5.2–5.7 (cwnd vs time, chain, one flow per variant)
throughput_sweep   Figs 5.8–5.10 (goodput vs hops per advertised window)
retransmit_sweep   Figs 5.11–5.13 (retransmissions vs hops) — same runs
fig_coexistence    Figs 5.16–5.18 (two flows on a cross + Jain index)
fig_dynamics       Figs 5.19–5.22 (three staggered flows' rate series)
=================  =========================================================

How a figure executes: a generator first builds every run it needs as a
fully-seeded :class:`~repro.experiments.runner.RunSpec`, in a fixed order
(variant × hops × seed for the sweep, hops × seed for coexistence, one spec
per variant for the cwnd traces, one for the dynamics), then hands the list
to :func:`_run_specs`.  That runs them on the campaign engine's one
supervisor (:func:`repro.experiments.campaign._run_pool`): forked workers,
``os.cpu_count()`` of them, when there are two or more specs and cores, in
this process otherwise.  Results come back in spec order and are folded
exactly as a serial loop would fold them, so where a run executed never
shows in a figure.  Unlike :func:`~repro.experiments.campaign.run_campaign`
there is no cache, no journal and no per-unit seed derivation: every spec
keeps the seed the caller gave, which is what the golden figure CSVs were
produced with.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import campaign
from .cachestore import decode_envelope
from .config import PAPER_VARIANTS, ScenarioConfig, SweepConfig
from .runner import RunResult, RunSpec
from .transport import InlineTransport, PipeTransport


def _run_specs(specs: Sequence[RunSpec]) -> List[RunResult]:
    """Execute ``specs`` on the campaign supervisor; results in spec order.

    A simulation is deterministic, so a unit that fails once fails every
    time: it gets one attempt (``max_retries=0``), and a quarantined unit
    raises :class:`RuntimeError` naming its spec and carrying the worker's
    ``Type: message`` once the other units have finished.
    """
    runs = [
        campaign.CampaignRun(
            index=i, scenario=campaign.scenario_key(spec), replication=0,
            seed=spec.config.seed, spec=spec, digest=campaign.run_digest(spec))
        for i, spec in enumerate(specs)
    ]
    jobs = os.cpu_count() or 1
    # ``campaign.<name>`` is looked up per call, so a test's monkeypatch of
    # the unit function reaches the workers forked below.
    if len(runs) <= 1 or jobs == 1:
        transport = InlineTransport(campaign._execute_unit)
    else:
        transport = PipeTransport(campaign._execute_unit)
    results: Dict[int, RunResult] = {}
    failed: List[campaign.FailedRun] = []

    def store(run: campaign.CampaignRun, body: bytes, attempt: Any) -> None:
        payload, manifest, _ = decode_envelope(body)
        result = RunResult.from_dict(payload)
        result.manifest = manifest
        results[run.index] = result

    def quarantine(failure: campaign.FailedRun, attempt: Any,
                   status: str) -> None:
        failed.append(failure)

    campaign._run_pool(transport, runs, jobs,
                       campaign.RetryPolicy(max_retries=0), store, quarantine)
    if failed:
        first = min(failed, key=lambda failure: failure.run.index)
        spec = first.run.spec
        raise RuntimeError(
            f"{spec.kind} run hops={spec.hops} "
            f"variants={'+'.join(spec.variants)} seed={spec.config.seed} "
            f"failed: {first.error}"
        )
    return [results[run.index] for run in runs]


@dataclass
class SweepPoint:
    """Aggregated result at one (variant, hops) grid point."""

    goodput_kbps: float
    goodput_stdev: float
    retransmits: float
    timeouts: float
    samples: int


@dataclass
class SweepResult:
    """The full Figure 5.8–5.13 grid for one advertised window."""

    window: int
    hops: Sequence[int]
    variants: Sequence[str]
    points: Dict[Tuple[str, int], SweepPoint] = field(default_factory=dict)

    def goodput_series(self, variant: str) -> List[Tuple[int, float]]:
        return [(h, self.points[(variant, h)].goodput_kbps) for h in self.hops]

    def retransmit_series(self, variant: str) -> List[Tuple[int, float]]:
        return [(h, self.points[(variant, h)].retransmits) for h in self.hops]


def fig_cwnd_traces(
    hops: int,
    variants: Sequence[str] = PAPER_VARIANTS,
    window: int = 32,
    sim_time: float = 10.0,
    seed: int = 1,
    routing: str = "aodv",
) -> Dict[str, List[Tuple[float, float]]]:
    """Figs 5.2–5.7: one single-flow run per variant, returning cwnd traces."""
    config = ScenarioConfig(sim_time=sim_time, seed=seed, routing=routing,
                            window=window)
    runs = _run_specs([RunSpec("chain", hops, (variant,), config=config)
                       for variant in variants])
    return {variant: run.flows[0].cwnd_trace
            for variant, run in zip(variants, runs)}


def throughput_retransmit_sweep(
    window: int,
    sweep: Optional[SweepConfig] = None,
    variants: Sequence[str] = PAPER_VARIANTS,
    routing: str = "aodv",
) -> SweepResult:
    """Figs 5.8–5.13: goodput and retransmissions vs hop count.

    Each grid point averages over ``sweep.seeds`` independent runs.
    """
    sweep = sweep or SweepConfig()
    result = SweepResult(window=window, hops=tuple(sweep.hops), variants=tuple(variants))
    runs = iter(_run_specs([
        RunSpec("chain", hops, (variant,), config=ScenarioConfig(
            sim_time=sweep.sim_time, seed=seed, routing=routing, window=window))
        for variant in variants for hops in sweep.hops for seed in sweep.seeds
    ]))
    for variant in variants:
        for hops in sweep.hops:
            flows = [next(runs).flows[0] for _ in sweep.seeds]
            goodputs = [flow.goodput_kbps for flow in flows]
            result.points[(variant, hops)] = SweepPoint(
                goodput_kbps=statistics.mean(goodputs),
                goodput_stdev=statistics.stdev(goodputs) if len(goodputs) > 1 else 0.0,
                retransmits=statistics.mean(float(f.retransmits) for f in flows),
                timeouts=statistics.mean(float(f.timeouts) for f in flows),
                samples=len(goodputs),
            )
    return result


@dataclass
class CoexistencePoint:
    """One cross-topology contest at a given hop count."""

    hops: int
    goodput_a_kbps: float
    goodput_b_kbps: float
    fairness: float


def fig_coexistence(
    variant_a: str,
    variant_b: str,
    hops_list: Sequence[int] = (4, 6, 8),
    sim_time: float = 50.0,
    seeds: Sequence[int] = (1, 2, 3),
    window: int = 4,
    routing: str = "aodv",
) -> List[CoexistencePoint]:
    """Figs 5.16–5.18: ``variant_a`` (horizontal) vs ``variant_b`` (vertical)
    on an h-hop cross; goodputs and Jain fairness, averaged over seeds."""
    runs = iter(_run_specs([
        RunSpec("cross", hops, (variant_a, variant_b), config=ScenarioConfig(
            sim_time=sim_time, seed=seed, routing=routing, window=window))
        for hops in hops_list for seed in seeds
    ]))
    points: List[CoexistencePoint] = []
    for hops in hops_list:
        contests = [next(runs) for _ in seeds]
        points.append(
            CoexistencePoint(
                hops=hops,
                goodput_a_kbps=statistics.mean(r.flows[0].goodput_kbps for r in contests),
                goodput_b_kbps=statistics.mean(r.flows[1].goodput_kbps for r in contests),
                fairness=statistics.mean(r.fairness for r in contests),
            )
        )
    return points


def fig_dynamics(
    variant: str,
    hops: int = 4,
    starts: Sequence[float] = (0.0, 10.0, 20.0),
    sim_time: float = 40.0,
    seed: int = 1,
    window: int = 8,
    routing: str = "aodv",
    sampler_interval: float = 1.0,
) -> RunResult:
    """Figs 5.19–5.22: three same-variant flows entering at 0/10/20 s on a
    4-hop chain; per-flow throughput-dynamics series are recorded."""
    config = ScenarioConfig(
        sim_time=sim_time,
        seed=seed,
        routing=routing,
        window=window,
        sampler_interval=sampler_interval,
    )
    spec = RunSpec("chain", hops, (variant,) * len(starts), starts=starts,
                   record_dynamics=True, config=config)
    return _run_specs([spec])[0]
