"""Declarative fault plans: what goes wrong, where, and when.

A :class:`FaultPlan` is a picklable, JSON-round-trippable value object — the
same contract :class:`~repro.experiments.runner.RunSpec` obeys — so fault
scenarios participate in campaign cache keys, provenance manifests and the
byte-identity replay check for free.  A plan is either fully *scripted*
(an explicit list of :class:`FaultEvent`) or *seeded-random*: a
:class:`RandomFaults` spec that the injector expands into concrete events
through a dedicated ``faults.plan`` RNG stream, so identical master seeds
always yield the identical fault schedule.

Supported fault kinds:

``node_crash``
    The node powers off at ``time``: radio down, MAC timers cancelled, IFQ
    flushed, routing state wiped.  ``duration`` (if given) schedules a
    restart; omitted means the node stays dead.
``link_blackout``
    The ``node``–``peer`` pair stops hearing each other for ``duration``
    seconds (a per-pair channel veto: deep fade / obstruction).
``error_burst``
    The channel's error model is swapped for ``duration`` seconds — e.g. a
    Gilbert–Elliott bad-state burst mid-run — then restored.
``queue_spike``
    ``node``'s IFQ capacity is clamped to ``capacity`` for ``duration``
    seconds, forcing queue pressure without extra traffic.
``partition``
    Every link between different ``groups`` is vetoed for ``duration``
    seconds, then healed (nodes absent from all groups are unaffected).

A plan is a trust boundary (``--faults PLAN.json``): whatever the JSON
holds, parsing it either yields a plan whose fields have the types a run
needs — integer node ids, peers, capacities and group members, finite
times and durations — or raises :class:`FaultPlanError`, never anything
else.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..obs.ndjson import JSON_PARSE_ERRORS
from ..phy.error_models import (
    ErrorModel,
    GilbertElliott,
    NoError,
    PacketErrorRate,
    UniformBitError,
)

PathLike = Union[str, Path]

FAULT_KINDS = (
    "node_crash",
    "link_blackout",
    "error_burst",
    "queue_spike",
    "partition",
)


#: Most ``crashes`` or ``blackouts`` one :class:`RandomFaults` spec may ask
#: for.  Every event is expanded and scheduled before the run starts, so
#: an unbounded count is an unbounded stall: 200 000 crashes cost seconds
#: before the first packet.  The chaos plans in this repository use at most 8.
MAX_RANDOM_FAULTS = 1000


class FaultPlanError(ValueError):
    """A fault plan is malformed (unknown kind, missing field, bad JSON)."""


def _object(value: Any, what: str) -> Dict[str, Any]:
    if not isinstance(value, dict):
        raise FaultPlanError(f"{what} must be an object, got {value!r}")
    return value


def _integer(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FaultPlanError(f"{what} must be an integer, got {value!r}")
    return value


def _finite(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FaultPlanError(f"{what} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond any float
        finite = False
    if not finite:
        raise FaultPlanError(f"{what} must be finite, got {value!r}")
    return value


def _integers(value: Any, what: str) -> Tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise FaultPlanError(f"{what} must be a list, got {value!r}")
    return tuple(_integer(item, f"{what} member") for item in value)


def build_error_model(spec: Dict[str, Any]) -> ErrorModel:
    """Construct an :class:`ErrorModel` from a plain-data ``error_burst`` spec.

    ``{"kind": "per", "per": 0.3}``, ``{"kind": "ber", "ber": 1e-5}``,
    ``{"kind": "gilbert_elliott", ...GilbertElliott kwargs}`` or
    ``{"kind": "none"}``.
    """
    params = {k: v for k, v in _object(spec, "error-model spec").items()
              if k != "kind"}
    kind = spec.get("kind")
    try:
        if kind == "per":
            return PacketErrorRate(**params)
        if kind == "ber":
            return UniformBitError(**params)
        if kind == "gilbert_elliott":
            return GilbertElliott(**params)
        if kind == "none":
            return NoError(**params)
    except (TypeError, ValueError) as exc:
        raise FaultPlanError(f"bad error-model spec {spec!r}: {exc}") from exc
    raise FaultPlanError(f"unknown error-model kind {kind!r} in {spec!r}")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.  Field relevance depends on ``kind`` (see module
    docstring); irrelevant fields must stay ``None`` so plans hash stably."""

    time: float
    kind: str
    node: Optional[int] = None
    peer: Optional[int] = None
    duration: Optional[float] = None
    capacity: Optional[int] = None
    model: Optional[Dict[str, Any]] = None
    groups: Optional[Tuple[Tuple[int, ...], ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if _finite(self.time, "fault time") < 0:
            raise FaultPlanError(f"fault time must be >= 0, got {self.time}")
        if self.duration is not None and _finite(
                self.duration, "fault duration") <= 0:
            raise FaultPlanError(
                f"fault duration must be positive, got {self.duration}"
            )
        for name in ("node", "peer", "capacity"):
            if getattr(self, name) is not None:
                _integer(getattr(self, name), f"fault {name}")
        if self.model is not None:
            _object(self.model, "error-model spec")
        if self.groups is not None:
            if not isinstance(self.groups, (list, tuple)):
                raise FaultPlanError(
                    f"partition groups must be a list, got {self.groups!r}")
            object.__setattr__(
                self, "groups",
                tuple(_integers(g, "partition group") for g in self.groups),
            )
        kind = self.kind
        if kind == "node_crash" and self.node is None:
            raise FaultPlanError("node_crash needs a node")
        if kind == "link_blackout":
            if self.node is None or self.peer is None or self.duration is None:
                raise FaultPlanError("link_blackout needs node, peer and duration")
            if self.node == self.peer:
                raise FaultPlanError("link_blackout endpoints must differ")
        if kind == "error_burst":
            if self.model is None or self.duration is None:
                raise FaultPlanError("error_burst needs a model spec and duration")
            build_error_model(self.model)  # validate eagerly
        if kind == "queue_spike":
            if self.node is None or self.capacity is None or self.duration is None:
                raise FaultPlanError("queue_spike needs node, capacity and duration")
            if self.capacity < 1:
                raise FaultPlanError(
                    f"queue_spike capacity must be >= 1, got {self.capacity}"
                )
        if kind == "partition":
            if self.groups is None or self.duration is None:
                raise FaultPlanError("partition needs groups and duration")
            if len(self.groups) < 2:
                raise FaultPlanError("partition needs at least two groups")
            seen: set = set()
            for group in self.groups:
                for node_id in group:
                    if node_id in seen:
                        raise FaultPlanError(
                            f"node {node_id} appears in two partition groups"
                        )
                    seen.add(node_id)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe plain-data form; ``None`` fields are omitted so the
        serialization (and therefore every digest over it) is minimal."""
        payload: Dict[str, Any] = {"time": self.time, "kind": self.kind}
        if self.node is not None:
            payload["node"] = self.node
        if self.peer is not None:
            payload["peer"] = self.peer
        if self.duration is not None:
            payload["duration"] = self.duration
        if self.capacity is not None:
            payload["capacity"] = self.capacity
        if self.model is not None:
            payload["model"] = dict(self.model)
        if self.groups is not None:
            payload["groups"] = [list(g) for g in self.groups]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultEvent":
        try:
            return cls(**_object(payload, "fault event"))
        except TypeError as exc:
            raise FaultPlanError(f"bad fault event {payload!r}: {exc}") from exc


@dataclass(frozen=True)
class RandomFaults:
    """Seeded-random fault load, expanded deterministically at install time.

    ``crashes`` node-crash events (each down for ``crash_downtime`` seconds)
    and ``blackouts`` link-blackout events (each ``blackout_duration`` long)
    are drawn uniformly over ``[start, horizon]`` against the eligible
    ``nodes`` (default: every node except the first and last, i.e. the
    relays of a chain).  Expansion uses a dedicated RNG stream derived from
    the run's master seed, so the schedule is a pure function of the seed —
    two replications differ, two runs of one replication do not.
    """

    crashes: int = 0
    blackouts: int = 0
    crash_downtime: float = 2.0
    blackout_duration: float = 1.0
    start: float = 1.0
    nodes: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        for name in ("crashes", "blackouts"):
            count = _integer(getattr(self, name), f"random {name}")
            if not 0 <= count <= MAX_RANDOM_FAULTS:
                raise FaultPlanError(
                    f"random {name} must be in [0, {MAX_RANDOM_FAULTS}], "
                    f"got {count}")
        if (_finite(self.crash_downtime, "random crash_downtime") <= 0
                or _finite(self.blackout_duration,
                           "random blackout_duration") <= 0):
            raise FaultPlanError("fault durations must be positive")
        _finite(self.start, "random start")
        if self.nodes is not None:
            object.__setattr__(self, "nodes",
                               _integers(self.nodes, "random nodes"))

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "crashes": self.crashes,
            "blackouts": self.blackouts,
            "crash_downtime": self.crash_downtime,
            "blackout_duration": self.blackout_duration,
            "start": self.start,
        }
        if self.nodes is not None:
            payload["nodes"] = list(self.nodes)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RandomFaults":
        try:
            return cls(**_object(payload, "random-faults spec"))
        except TypeError as exc:
            raise FaultPlanError(f"bad random-faults spec {payload!r}: {exc}") from exc

    def expand(
        self,
        rng: random.Random,
        horizon: float,
        node_ids: Sequence[int],
    ) -> List[FaultEvent]:
        """Draw the concrete events this spec describes.

        Draw order is fixed (crash times, then per-crash nodes, then
        blackout times/pairs) so the expansion is reproducible for a given
        ``rng`` state.
        """
        eligible = list(self.nodes) if self.nodes is not None else list(node_ids[1:-1])
        if (self.crashes and not eligible) or (self.blackouts and len(node_ids) < 2):
            raise FaultPlanError("not enough nodes for the requested random faults")
        end = max(horizon, self.start)
        events: List[FaultEvent] = []
        for _ in range(self.crashes):
            at = rng.uniform(self.start, end)
            victim = eligible[rng.randrange(len(eligible))]
            events.append(
                FaultEvent(time=at, kind="node_crash", node=victim,
                           duration=self.crash_downtime)
            )
        all_ids = list(node_ids)
        for _ in range(self.blackouts):
            at = rng.uniform(self.start, end)
            a = all_ids[rng.randrange(len(all_ids))]
            b = a
            while b == a:
                b = all_ids[rng.randrange(len(all_ids))]
            events.append(
                FaultEvent(time=at, kind="link_blackout", node=a, peer=b,
                           duration=self.blackout_duration)
            )
        events.sort(key=lambda e: (e.time, e.kind, e.node or 0, e.peer or 0))
        return events


@dataclass(frozen=True)
class FaultPlan:
    """A complete fault schedule: scripted events plus optional random load."""

    events: Tuple[FaultEvent, ...] = ()
    random: Optional[RandomFaults] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __bool__(self) -> bool:
        return bool(self.events) or self.random is not None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "events": [event.to_dict() for event in self.events]
        }
        if self.random is not None:
            payload["random"] = self.random.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        unknown = set(_object(payload, "fault plan")) - {"events", "random"}
        if unknown:
            raise FaultPlanError(f"unknown fault-plan keys {sorted(unknown)}")
        items = payload.get("events", ())
        if not isinstance(items, (list, tuple)):
            raise FaultPlanError(f"fault-plan events must be a list, got {items!r}")
        events = tuple(FaultEvent.from_dict(item) for item in items)
        spec = payload.get("random")
        rand = RandomFaults.from_dict(spec) if spec is not None else None
        return cls(events=events, random=rand)

    @classmethod
    def loads(cls, text: Union[str, bytes]) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except JSON_PARSE_ERRORS as exc:  # invalid, or nested too deep
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path: PathLike) -> "FaultPlan":
        return cls.loads(Path(path).read_bytes())  # json decodes UTF-8
