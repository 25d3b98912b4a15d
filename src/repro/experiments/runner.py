"""Scenario runners: build a network, attach flows, run, collect results.

Three scenario shapes cover every figure in the paper:

* :func:`run_chain` — h-hop chain, one or more (possibly staggered) flows
  end-to-end (Simulations 1, 2 and 3B);
* :func:`run_cross` — h-hop cross with one horizontal and one vertical flow
  (Simulation 3A);
* both return a :class:`RunResult` with per-flow goodput, retransmission
  counts, cwnd traces and optional throughput-dynamics series.

For batch execution the same runs are described declaratively: a
:class:`RunSpec` is a picklable value object naming the topology, flows and
:class:`ScenarioConfig`, and :func:`execute_run` is the pure module-level
function that turns one spec into a :class:`RunResult`.  The campaign engine
ships ``RunSpec`` instances to ``multiprocessing`` workers and hashes them
for its on-disk cache, so a spec must capture *everything* the run depends
on and nothing else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.drai import DraiEstimator, install_drai
from ..faults import install_faults
from ..obs.metrics import collect_network_metrics
from ..obs.provenance import attach_spec, build_manifest, stable_digest
from ..phy.error_models import NoError, PacketErrorRate
from ..routing import install_aodv_routing, install_static_routing
from ..stats.fairness import jain_index
from ..stats.throughput import ThroughputSampler
from ..topology import Network, build_chain, build_cross
from ..traffic import FtpFlow, start_ftp
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
    (:meth:`repro.obs.metrics.MetricsRegistry.snapshot`): a pure function
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


@dataclass(frozen=True)
class RunSpec:
    """Declarative, picklable description of one scenario run.

    ``kind`` selects the topology/flow shape: ``"chain"`` maps to
    :func:`run_chain` (``variants[i]`` starts at ``starts[i]``), ``"cross"``
    maps to :func:`run_cross` (exactly two variants: horizontal, vertical).
    The embedded config's ``seed`` fully determines the run's randomness.
    """

    kind: str
    hops: int
    variants: Tuple[str, ...]
    starts: Optional[Tuple[float, ...]] = None
    record_dynamics: bool = False
    config: ScenarioConfig = field(default_factory=ScenarioConfig)

    def __post_init__(self) -> None:
        if self.kind not in ("chain", "cross"):
            raise ValueError(f"unknown run kind {self.kind!r}")
        if self.kind == "cross" and len(self.variants) != 2:
            raise ValueError("cross runs take exactly two variants")
        object.__setattr__(self, "variants", tuple(self.variants))
        if self.starts is not None:
            object.__setattr__(self, "starts", tuple(self.starts))

    def with_seed(self, seed: int) -> "RunSpec":
        """A copy whose config carries ``seed`` (specs are immutable)."""
        from dataclasses import replace

        return replace(self, config=self.config.replace(seed=seed))

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


def execute_run(spec: RunSpec) -> RunResult:
    """Execute one :class:`RunSpec` — a pure function of the spec.

    Module-level and argument-picklable by design: this is the unit of work
    campaign worker processes receive.  The returned result's manifest
    additionally records the full spec, so the run can be replayed (and its
    byte-identity verified) from the manifest alone.
    """
    if spec.kind == "chain":
        result = run_chain(
            spec.hops,
            list(spec.variants),
            config=spec.config,
            starts=list(spec.starts) if spec.starts is not None else None,
            record_dynamics=spec.record_dynamics,
        )
    elif spec.kind == "cross":
        result = run_cross(
            spec.hops,
            spec.variants[0],
            spec.variants[1],
            config=spec.config,
            record_dynamics=spec.record_dynamics,
        )
    else:  # pragma: no cover
        raise ValueError(f"unknown run kind {spec.kind!r}")
    if result.manifest is not None:
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


def _needs_drai(variants: Sequence[str]) -> bool:
    return any(v.startswith("muzha") for v in variants)


def _install_routing(network: Network, config: ScenarioConfig) -> None:
    if config.routing == "aodv":
        install_aodv_routing(network.nodes, network.sim)
    elif config.routing == "static":
        install_static_routing(network.nodes, network.channel)
    else:
        raise ValueError(f"unknown routing {config.routing!r}")


def _error_model(config: ScenarioConfig):
    if config.packet_error_rate > 0:
        return PacketErrorRate(config.packet_error_rate)
    return NoError()


def _finish(
    network: Network,
    flows: List[FtpFlow],
    samplers: List[Optional[ThroughputSampler]],
    config: ScenarioConfig,
    setup_s: float = 0.0,
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
    for flow, sampler in zip(flows, samplers):
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
                rate_series_kbps=sampler.rates_kbps() if sampler else [],
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
    runs node 0 -> node h on its own port pair.  ``instrument`` (if given)
    is called with the built network and flows just before the simulation
    runs — the hook trace sinks, probes and flight recorders attach through.
    """
    setup_start = time.perf_counter()
    config = config or ScenarioConfig()
    starts = list(starts or [0.0] * len(variants))
    if len(starts) != len(variants):
        raise ValueError("starts and variants must have equal length")
    network = build_chain(
        hops,
        seed=config.seed,
        error_model=_error_model(config),
        ifq_capacity=config.ifq_capacity,
    )
    _install_routing(network, config)
    if _needs_drai(variants):
        install_drai(network.nodes, network.sim, params=config.drai_params,
                     policy=config.policy, policy_params=config.policy_params)
    if config.faults is not None:
        install_faults(network, config.faults, horizon=config.sim_time)
    src, dst = network.nodes[0], network.nodes[-1]
    flows: List[FtpFlow] = []
    samplers: List[Optional[ThroughputSampler]] = []
    for i, (variant, start) in enumerate(zip(variants, starts)):
        flow = start_ftp(
            network.sim,
            src,
            dst,
            variant=variant,
            window=config.window,
            mss=config.mss,
            sport=1000 + i,
            dport=2000 + i,
            start_time=start,
        )
        flows.append(flow)
        if record_dynamics:
            sampler = ThroughputSampler(
                network.sim, flow.sink, interval=config.sampler_interval
            )
            network.sim.at(start, sampler.start)
            samplers.append(sampler)
        else:
            samplers.append(None)
    if instrument is not None:
        instrument(network, flows)
    return _finish(network, flows, samplers, config,
                   setup_s=time.perf_counter() - setup_start)


def run_cross(
    hops: int,
    variant_horizontal: str,
    variant_vertical: str,
    config: Optional[ScenarioConfig] = None,
    record_dynamics: bool = False,
    instrument: Optional[Instrument] = None,
) -> RunResult:
    """Run the Fig. 5.15 cross: one flow left->right, one top->bottom."""
    setup_start = time.perf_counter()
    config = config or ScenarioConfig()
    network = build_cross(
        hops,
        seed=config.seed,
        error_model=_error_model(config),
        ifq_capacity=config.ifq_capacity,
    )
    _install_routing(network, config)
    variants = (variant_horizontal, variant_vertical)
    if _needs_drai(variants):
        install_drai(network.nodes, network.sim, params=config.drai_params,
                     policy=config.policy, policy_params=config.policy_params)
    if config.faults is not None:
        install_faults(network, config.faults, horizon=config.sim_time)
    endpoints = [
        (network.left, network.right),
        (network.top, network.bottom),
    ]
    flows: List[FtpFlow] = []
    samplers: List[Optional[ThroughputSampler]] = []
    for i, (variant, (src, dst)) in enumerate(zip(variants, endpoints)):
        flow = start_ftp(
            network.sim,
            src,
            dst,
            variant=variant,
            window=config.window,
            mss=config.mss,
            sport=1000 + i,
            dport=2000 + i,
        )
        flows.append(flow)
        if record_dynamics:
            sampler = ThroughputSampler(
                network.sim, flow.sink, interval=config.sampler_interval
            ).start()
            samplers.append(sampler)
        else:
            samplers.append(None)
    if instrument is not None:
        instrument(network, flows)
    return _finish(network, flows, samplers, config,
                   setup_s=time.perf_counter() - setup_start)
