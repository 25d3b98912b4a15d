"""The scenario assembler: the one place a built network becomes a run.

Every run in this repository — CLI commands, ``fig_*`` generators, campaign
units, the claims suite and the benches — is the paper's "802.11 DCF + AODV
+ drop-tail IFQ + FTP/TCP" (Table 5.1) and is put together here, once:

* :func:`run_flows` takes a built :class:`~repro.topology.Network` plus
  ``(source, destination)`` endpoints and owns the rest: routing, DRAI, the
  fault plan, one FTP flow per endpoint, the throughput-dynamics probes,
  the ``instrument`` hook, the simulation loop and the harvest into a
  :class:`RunResult` with its provenance manifest.
* :func:`execute_run` turns a declarative, picklable :class:`RunSpec` into
  that call — topology and endpoints come from :data:`SCENARIO_KINDS`: an
  h-hop chain with one or more (possibly staggered) end-to-end flows
  (Simulations 1, 2, 3B), an h-hop cross with a horizontal and a vertical
  flow (Simulation 3A) — and stamps the spec into the manifest, so every
  result replays from its manifest alone (:func:`verify_manifest`).
  :func:`run_chain` / :func:`run_cross` spell the two kinds positionally.

The campaign engine ships ``RunSpec`` instances to ``multiprocessing``
workers and hashes them for its on-disk cache, so a spec must capture
*everything* the run depends on and nothing else.  A scene the kinds cannot
express (a bystander placed off the chain, a scripted DCF timeline) builds
its own network and hands it to :func:`run_flows`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.drai import install_drai
from ..faults import install_faults
from ..net.node import Node
from ..obs.metrics import collect_network_metrics
from ..obs.probe import Sample, TimeseriesProbe
from ..obs.provenance import attach_spec, build_manifest, stable_digest
from ..phy.error_models import NoError, PacketErrorRate
from ..routing import install_aodv_routing, install_static_routing
from ..stats.fairness import jain_index
from ..stats.timeseries import differentiate
from ..topology import Network, build_chain, build_cross, chain_endpoints
from ..topology.cross import check_cross_hops
from ..traffic import FtpFlow, start_ftp
from ..transport import sender_class
from .config import ScenarioConfig

#: Hook invoked with ``(network, flows)`` after a scenario is built but
#: before it runs — the attachment point for sinks, probes and recorders.
Instrument = Callable[[Network, List[FtpFlow]], None]


@dataclass
class FlowResult:
    """Outcome of one flow."""

    variant: str
    goodput_kbps: float
    delivered_packets: int
    data_sent: int
    retransmits: int
    timeouts: int
    fast_retransmits: int
    start_time: float
    cwnd_trace: List[Tuple[float, float]]
    rate_series_kbps: List[Tuple[float, float]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe plain-data form (tuples become 2-item lists)."""
        return {
            "variant": self.variant,
            "goodput_kbps": self.goodput_kbps,
            "delivered_packets": self.delivered_packets,
            "data_sent": self.data_sent,
            "retransmits": self.retransmits,
            "timeouts": self.timeouts,
            "fast_retransmits": self.fast_retransmits,
            "start_time": self.start_time,
            "cwnd_trace": [[t, v] for t, v in self.cwnd_trace],
            "rate_series_kbps": [[t, v] for t, v in self.rate_series_kbps],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FlowResult":
        data = dict(payload)
        data["cwnd_trace"] = [(t, v) for t, v in data["cwnd_trace"]]
        data["rate_series_kbps"] = [(t, v) for t, v in data["rate_series_kbps"]]
        return cls(**data)


@dataclass
class RunResult:
    """Outcome of one scenario run.

    ``metrics`` is the run's deterministic observability snapshot
    (:func:`repro.obs.metrics.collect_network_metrics`): a pure function
    of the seeded run, so it serializes with the result and participates in
    fingerprints.  ``manifest`` carries environment facts (wall time,
    platform, package version) and is therefore *excluded* from
    :meth:`to_dict` — two identical runs must serialize byte-identically.
    """

    flows: List[FlowResult]
    sim_time: float
    mac_drops: int
    link_failures: int
    metrics: Dict[str, Any] = field(default_factory=dict)
    manifest: Optional[Dict[str, Any]] = field(default=None, compare=False)

    @property
    def total_goodput_kbps(self) -> float:
        return sum(flow.goodput_kbps for flow in self.flows)

    @property
    def fairness(self) -> float:
        """Jain index over the flows' goodputs (Fig. 5.14)."""
        return jain_index([flow.goodput_kbps for flow in self.flows])

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe plain-data form, stable across processes.

        Deliberately omits ``manifest``: it holds wall-clock/platform facts
        that differ between identical runs, and this dict is what the
        campaign engine fingerprints for determinism checks.
        """
        return {
            "flows": [flow.to_dict() for flow in self.flows],
            "sim_time": self.sim_time,
            "mac_drops": self.mac_drops,
            "link_failures": self.link_failures,
            "metrics": self.metrics,
        }

    def result_digest(self) -> str:
        """Content digest of the canonical result — the identity journaled
        by the campaign write-ahead log and stamped into manifests."""
        return stable_digest(self.to_dict())

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunResult":
        return cls(
            flows=[FlowResult.from_dict(f) for f in payload["flows"]],
            sim_time=payload["sim_time"],
            mac_drops=payload["mac_drops"],
            link_failures=payload["link_failures"],
            metrics=payload.get("metrics", {}),
        )


Endpoints = Sequence[Tuple[Node, Node]]  # (source, destination) per flow


def _chain_scene(hops: int, flows: int, **medium: Any) -> Tuple[Network, Endpoints]:
    """An h-hop chain; every flow runs node 0 -> node h."""
    network = build_chain(hops, **medium)
    return network, [chain_endpoints(network)] * flows


def _cross_scene(hops: int, flows: int, **medium: Any) -> Tuple[Network, Endpoints]:
    """The Fig. 5.15 cross: one flow left -> right, one top -> bottom."""
    network = build_cross(hops, **medium)
    return network, [(network.left, network.right), (network.top, network.bottom)]


#: ``RunSpec.kind`` -> ``builder(hops, flows, **medium)``.  The only place a
#: kind is interpreted: ``RunSpec`` validates against it, :func:`execute_run`
#: builds through it and the CLI offers its keys as ``choices``.
SCENARIO_KINDS = {"chain": _chain_scene, "cross": _cross_scene}


@dataclass(frozen=True)
class RunSpec:
    """Declarative, picklable description of one scenario run.

    ``kind`` selects the topology and endpoints from :data:`SCENARIO_KINDS`:
    on a ``"chain"`` every flow runs end to end, a ``"cross"`` takes exactly
    two variants (horizontal, vertical) and an even ``hops`` of at least 2.
    Flow ``i`` uses ``variants[i]`` and starts at ``starts[i]`` (default 0).
    The embedded config's ``seed`` fully determines the run's randomness.
    """

    kind: str
    hops: int
    variants: Tuple[str, ...]
    starts: Optional[Tuple[float, ...]] = None
    record_dynamics: bool = False
    config: ScenarioConfig = field(default_factory=ScenarioConfig)

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown run kind {self.kind!r}")
        if self.kind == "cross":
            if len(self.variants) != 2:
                raise ValueError("cross runs take exactly two variants")
            check_cross_hops(self.hops)  # not mid-run, in a forked worker
        for variant in self.variants:  # a removed one fails here, not mid-run
            try:
                sender_class(variant)
            except KeyError as exc:
                raise ValueError(exc.args[0]) from None
        object.__setattr__(self, "variants", tuple(self.variants))
        if self.starts is not None:
            object.__setattr__(self, "starts", tuple(self.starts))

    def with_seed(self, seed: int) -> "RunSpec":
        """A copy whose config carries ``seed`` (specs are immutable).

        Only the seed changes, and no ``__post_init__`` check reads it, so
        both copies are made field for field, without running the checks
        this spec passed again: a campaign re-seeds every unit it plans.
        """
        config = object.__new__(type(self.config))
        config.__dict__.update(vars(self.config), seed=seed)
        spec = object.__new__(type(self))
        spec.__dict__.update(vars(self), config=config)
        return spec

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe plain-data form — the campaign cache hashes this."""
        return {
            "kind": self.kind,
            "hops": self.hops,
            "variants": list(self.variants),
            "starts": list(self.starts) if self.starts is not None else None,
            "record_dynamics": self.record_dynamics,
            "config": self.config.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunSpec":
        data = dict(payload)
        data["variants"] = tuple(data["variants"])
        if data.get("starts") is not None:
            data["starts"] = tuple(data["starts"])
        data["config"] = ScenarioConfig.from_dict(data["config"])
        return cls(**data)


def execute_run(spec: RunSpec, instrument: Optional[Instrument] = None) -> RunResult:
    """Execute one :class:`RunSpec` — a pure function of the spec.

    Module-level and argument-picklable by design: this is the unit of work
    campaign worker processes receive.  The returned result's manifest
    records the full spec, so the run can be replayed (and its byte-identity
    verified) from the manifest alone.

    ``instrument`` is for *observers* — trace sinks, probes, flight
    recorders — which do not perturb a run, so an observed run's manifest
    verifies like a plain one.  An ``instrument`` that *mutates* the network
    (swaps a queue, sets a radio literal) runs something the spec does not
    describe: its manifest still carries the spec, but replaying it runs the
    unmodified scene and :func:`verify_manifest` answers False.
    """
    setup_start = time.perf_counter()
    config = spec.config
    loss = config.packet_error_rate
    network, endpoints = SCENARIO_KINDS[spec.kind](
        spec.hops, len(spec.variants), seed=config.seed,
        error_model=PacketErrorRate(loss) if loss > 0 else NoError(),
        ifq_capacity=config.ifq_capacity,
    )
    result = run_flows(network, endpoints, spec.variants, config, spec.starts,
                       spec.record_dynamics, instrument, setup_start)
    attach_spec(result.manifest, spec.to_dict())
    return result


def replay_manifest(manifest: Dict[str, Any]) -> RunResult:
    """Re-execute the run a manifest describes (requires an embedded spec)."""
    spec = manifest.get("spec")
    if spec is None:
        raise ValueError("manifest carries no spec; cannot replay")
    return execute_run(RunSpec.from_dict(spec))


def verify_manifest(manifest: Dict[str, Any]) -> bool:
    """Replay a manifest's run and check byte-identity of the result.

    True when the re-run's canonical result serialization hashes to the
    manifest's ``result_digest`` — the strong form of the reproduction
    claim (same seed + config ⇒ same result, bit for bit).
    """
    replay = replay_manifest(manifest)
    return stable_digest(replay.to_dict()) == manifest.get("result_digest")


def run_flows(
    network: Network,
    endpoints: Endpoints,
    variants: Sequence[str],
    config: Optional[ScenarioConfig] = None,
    starts: Optional[Sequence[float]] = None,
    record_dynamics: bool = False,
    instrument: Optional[Instrument] = None,
    setup_start: Optional[float] = None,
) -> RunResult:
    """Assemble and run one FTP/TCP flow per endpoint pair over ``network``.

    In this order: install routing, DRAI (when a Muzha variant is present)
    and the config's fault plan; start flow ``i`` from ``endpoints[i][0]`` to
    ``endpoints[i][1]`` with ``variants[i]`` at ``starts[i]`` (default 0) on
    ports ``1000+i``/``2000+i``, sampling its sink every
    ``config.sampler_interval`` from then on if ``record_dynamics``; call
    ``instrument(network, flows)``; run to ``config.sim_time``; harvest.

    The manifest carries no spec — only :func:`execute_run` knows one.
    ``setup_start`` is the ``perf_counter`` reading at which the caller began
    building ``network`` (default: now), so ``setup_s`` covers the topology.
    """
    if setup_start is None:
        setup_start = time.perf_counter()
    config = config or ScenarioConfig()
    starts = list(starts or [0.0] * len(variants))
    if len(starts) != len(variants):
        raise ValueError("starts and variants must have equal length")
    if len(endpoints) != len(variants):
        raise ValueError("endpoints and variants must have equal length")
    sim = network.sim
    if config.routing == "aodv":
        install_aodv_routing(network.nodes, sim)
    elif config.routing == "static":
        install_static_routing(network.nodes, network.channel)
    else:
        raise ValueError(f"unknown routing {config.routing!r}")
    if any(v.startswith("muzha") for v in variants):
        install_drai(network.nodes, sim, params=config.drai_params,
                     policy=config.policy, policy_params=config.policy_params)
    if config.faults is not None:
        install_faults(network, config.faults, horizon=config.sim_time)
    flows: List[FtpFlow] = []
    delivered: List[List[Sample]] = []  # cumulative bytes per flow, if sampled
    for i, ((src, dst), variant, start) in enumerate(zip(endpoints, variants, starts)):
        flow = start_ftp(
            sim, src, dst, variant=variant, window=config.window, mss=config.mss,
            sport=1000 + i, dport=2000 + i, start_time=start,
        )
        flows.append(flow)
        series: List[Sample] = []
        if record_dynamics:
            name = f"flow{i}.delivered_bytes"
            probe = TimeseriesProbe(sim, config.sampler_interval).watch(
                name, lambda sink=flow.sink: sink.delivered_bytes)
            sim.at(start, probe.start)
            series = probe.series[name]
        delivered.append(series)
    if instrument is not None:
        instrument(network, flows)
    return _finish(network, flows, delivered, config,
                   setup_s=time.perf_counter() - setup_start)


def _finish(
    network: Network,
    flows: List[FtpFlow],
    delivered: List[List[Sample]],
    config: ScenarioConfig,
    setup_s: float,
) -> RunResult:
    """Run the built scenario and assemble its result + manifest.

    Also times the run's subsystems (setup / sim loop / metrics harvest /
    serialize) into ``manifest["timings"]`` — environment facts for the
    campaign telemetry layer, deliberately outside the fingerprinted
    result (four ``perf_counter`` calls, off the event hot path).
    """
    wall_start = time.perf_counter()
    network.sim.run(until=config.sim_time)
    wall_time_s = time.perf_counter() - wall_start
    harvest_start = time.perf_counter()
    results: List[FlowResult] = []
    for flow, series in zip(flows, delivered):
        active = max(config.sim_time - flow.start_time, 1e-9)
        results.append(
            FlowResult(
                variant=flow.variant,
                goodput_kbps=flow.goodput_kbps(active),
                delivered_packets=flow.sink.delivered_packets,
                data_sent=flow.sender.stats.data_sent,
                retransmits=flow.sender.stats.retransmits,
                timeouts=flow.sender.stats.timeouts,
                fast_retransmits=flow.sender.stats.fast_retransmits,
                start_time=flow.start_time,
                cwnd_trace=list(flow.sender.cwnd_trace),
                # bytes/s per interval -> kbit/s (Figs 5.19-5.22)
                rate_series_kbps=[(t, rate * 8.0 / 1000.0)
                                  for t, rate in differentiate(series)],
            )
        )
    mac_drops = sum(n.mac.counters.drops_retry_limit for n in network.nodes)
    link_failures = sum(
        n.routing.counters.link_failures for n in network.nodes if n.routing
    )
    metrics = collect_network_metrics(network, flows).snapshot()
    result = RunResult(
        flows=results,
        sim_time=config.sim_time,
        mac_drops=mac_drops,
        link_failures=link_failures,
        metrics=metrics,
    )
    harvest_s = time.perf_counter() - harvest_start
    serialize_start = time.perf_counter()
    result_digest = result.result_digest()
    serialize_s = time.perf_counter() - serialize_start
    result.manifest = build_manifest(
        seed=config.seed,
        config=config.to_dict(),
        sim_time=config.sim_time,
        wall_time_s=wall_time_s,
        metrics=metrics,
        result_digest=result_digest,
        timings={
            "setup_s": setup_s,
            "sim_s": wall_time_s,
            "harvest_s": harvest_s,
            "serialize_s": serialize_s,
        },
        engine=network.channel.lane_counters(),
    )
    return result


def run_chain(
    hops: int,
    variants: Sequence[str],
    config: Optional[ScenarioConfig] = None,
    starts: Optional[Sequence[float]] = None,
    record_dynamics: bool = False,
    instrument: Optional[Instrument] = None,
) -> RunResult:
    """Run ``len(variants)`` end-to-end flows over an h-hop chain.

    Flow ``i`` uses ``variants[i]``, starts at ``starts[i]`` (default 0) and
    runs node 0 -> node h on its own port pair; ``instrument`` as for
    :func:`execute_run`, which this spells positionally.
    """
    spec = RunSpec("chain", hops, variants, starts, record_dynamics,
                   config or ScenarioConfig())
    return execute_run(spec, instrument)


def run_cross(
    hops: int,
    variant_horizontal: str,
    variant_vertical: str,
    config: Optional[ScenarioConfig] = None,
    record_dynamics: bool = False,
    instrument: Optional[Instrument] = None,
) -> RunResult:
    """Run the Fig. 5.15 cross: one flow left->right, one top->bottom."""
    spec = RunSpec("cross", hops, (variant_horizontal, variant_vertical), None,
                   record_dynamics, config or ScenarioConfig())
    return execute_run(spec, instrument)
