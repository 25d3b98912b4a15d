"""Experiment configuration: the paper's Table 5.1 parameters plus the
switches the figure generators expose."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from ..core.drai import DraiParams
from ..core.policy import make_policy
from ..faults import FaultPlan
# Canonical home of the content digest is the provenance module (manifests
# and the campaign cache must agree on it); re-exported here for callers.
from ..obs.provenance import stable_digest  # noqa: F401
from ..sim import units

#: Bump whenever a change to the simulator makes previously cached campaign
#: results stale (the campaign cache folds this into every content hash).
#: v2: cache entries became ``{"result": ..., "manifest": ...}`` envelopes.
#: v3: checksummed envelopes (corruption detection) + fault-plan configs.
#: v4: router-advice policy selection in configs + per-state DRAI metrics.
#: v5: error-model fast paths; the Gilbert–Elliott initial-state fix (the
#:     chain now really starts GOOD at t=0) makes pre-v5 cached results of
#:     GE-medium runs stale.
CACHE_SCHEMA_VERSION = 5


@dataclass(frozen=True)
class Table51Parameters:
    """The paper's Table 5.1, as executable configuration."""

    number_of_nodes: Tuple[int, int] = (4, 32)  # range swept (hops h -> h+1)
    link_bandwidth_bps: float = units.mbps(2.0)
    transmission_range_m: float = 250.0
    mac: str = "802.11"
    routing: str = "AODV"
    ifq_capacity: int = 50
    packet_size_bytes: int = 1460

    def rows(self) -> list:
        """(parameter, value) rows, printable next to the paper's table."""
        return [
            ("Number of Nodes", f"{self.number_of_nodes[0]}~{self.number_of_nodes[1]}"),
            ("Link Bandwidth", f"{self.link_bandwidth_bps / 1e6:g}Mbps"),
            ("Transmission Range", f"{self.transmission_range_m:g} m"),
            ("MAC", self.mac),
            ("Routing", self.routing),
        ]


@dataclass
class ScenarioConfig:
    """Common knobs of every experiment run."""

    sim_time: float = 30.0
    seed: int = 1
    routing: str = "aodv"  # "aodv" | "static"
    window: int = 8
    mss: int = 1460
    ifq_capacity: int = 50
    drai_params: Optional[DraiParams] = None
    #: Router-advice policy name (``repro.core.policy`` registry); None =
    #: the paper's fuzzy quantiser, byte-identical to the pre-policy runs.
    policy: Optional[str] = None
    #: JSON-safe parameters for ``policy`` (the policy's params dataclass
    #: as a dict); None = the policy's defaults.
    policy_params: Optional[Dict[str, Any]] = None
    #: Per-frame random loss probability (0 = the paper's clean-medium runs).
    packet_error_rate: float = 0.0
    #: Sampling period for throughput-dynamics series.
    sampler_interval: float = 1.0
    #: Fault-injection plan (crashes/blackouts/...); None = undisturbed run.
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        # A policy the registry does not know (or no longer knows) fails
        # here, where the config is built — DESIGN.md §5, "Removing a
        # registered name" — not inside install_drai mid-assembly.
        if self.policy is None:
            if self.policy_params is not None:
                raise ValueError("policy_params requires a policy name")
            return
        try:
            make_policy(self.policy, self.policy_params)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-safe), suitable for hashing and pickling."""
        payload = dataclasses.asdict(self)
        if self.drai_params is not None:
            payload["drai_params"] = dataclasses.asdict(self.drai_params)
        # asdict() recurses into the plan's nested dataclasses but loses the
        # None-field elision FaultPlan.to_dict guarantees; use the canonical
        # form so config digests stay stable.
        if self.faults is not None:
            payload["faults"] = self.faults.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScenarioConfig":
        data = dict(payload)
        drai = data.get("drai_params")
        if drai is not None:
            data["drai_params"] = DraiParams(**drai)
        faults = data.get("faults")
        if faults is not None:
            data["faults"] = FaultPlan.from_dict(faults)
        return cls(**data)

    def replace(self, **changes: Any) -> "ScenarioConfig":
        """A copy with ``changes`` applied (config objects are shared)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class SweepConfig:
    """Hop/seed grids for the Figure 5.8–5.13 sweeps.

    The defaults are the quick grid behind the committed golden figure
    CSVs; the paper-scale evidence for these figures is the claims suite
    (``tests/claims/``).
    """

    hops: Sequence[int] = (4, 8, 16)
    seeds: Sequence[int] = (1, 2, 3)
    sim_time: float = 15.0


#: The four protocols the paper compares (Muzha + three baselines).
PAPER_VARIANTS: Tuple[str, ...] = ("muzha", "newreno", "sack", "vegas")
