"""Flight recorder: bounded per-node trace rings dumped on anomalies.

Full tracing of a long run is expensive and mostly records healthy
behaviour.  The flight recorder keeps only the *recent past* — a bounded
ring buffer of trace records per node — and writes it out automatically
when an anomaly trips, giving a post-mortem window around the interesting
moment without paying for (or storing) a full trace:

* **RTO storm** — ``threshold`` ``tcp.timeout`` records from one node
  inside ``window`` seconds;
* **route failure** — any ``aodv.route_failure`` (discovery retries
  exhausted) or ``aodv.link_down`` (route invalidated after confirmed MAC
  loss);
* **queue-full burst** — ``threshold`` ``ifq.drop`` records from one node
  inside ``window`` seconds.

Rules are data (:class:`AnomalyRule`), so scenarios can bring their own.
Dumps go to ``dump_dir`` as NDJSON (a header line describing the anomaly,
then the node's ring in time order, same record schema as
:class:`~repro.obs.sinks.NdjsonTraceSink`) and/or to an ``on_anomaly``
callback.  A per-(rule, node) cooldown stops one sustained incident from
spraying hundreds of identical dumps.

The recorder is a ``"*"`` TraceBus subscriber while armed; ``detach()``
(or leaving the ``with`` block) unsubscribes and restores the untraced
hot path via :meth:`TraceBus.unsubscribe`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from ..sim.trace import TraceBus, TraceRecord
from .ndjson import encode_line
from .sinks import record_to_json_dict

PathLike = Union[str, Path]


@dataclass(frozen=True)
class AnomalyRule:
    """``threshold`` records of ``event`` from one node within ``window`` s.

    ``window <= 0`` means "any single occurrence" (with ``threshold`` 1).
    """

    name: str
    event: str
    threshold: int = 1
    window: float = 0.0

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {self.threshold}")


DEFAULT_RULES: Tuple[AnomalyRule, ...] = (
    AnomalyRule("rto_storm", "tcp.timeout", threshold=3, window=1.0),
    AnomalyRule("route_failure", "aodv.route_failure"),
    AnomalyRule("route_failure", "aodv.link_down"),
    AnomalyRule("queue_full_burst", "ifq.drop", threshold=5, window=0.5),
    # Injected faults (repro.faults): every one is anomalous by definition,
    # so any single occurrence dumps the window leading up to it — the
    # post-mortem then shows what the protocols were doing when it hit.
    AnomalyRule("fault_node_crash", "fault.node_crash"),
    AnomalyRule("fault_link_blackout", "fault.link_blackout"),
    AnomalyRule("fault_partition", "fault.partition"),
)


def record_node(record: TraceRecord) -> Any:
    """The node a record belongs to: its ``node``/``src`` field, else source."""
    fields = record.fields
    node = fields.get("node")
    if node is None:
        node = fields.get("src")
    return record.source if node is None else node


@dataclass
class AnomalyDump:
    """Metadata of one written dump (the records live in the file)."""

    rule: str
    node: Any
    time: float
    records: int
    path: Optional[Path]


class FlightRecorder:
    """Arm on a bus; keep per-node rings; dump them when a rule trips."""

    def __init__(
        self,
        bus: TraceBus,
        capacity: int = 256,
        rules: Sequence[AnomalyRule] = DEFAULT_RULES,
        dump_dir: Optional[PathLike] = None,
        on_anomaly: Optional[Callable[[AnomalyDump, List[TraceRecord]], None]] = None,
        cooldown: float = 1.0,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.rules = tuple(rules)
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self.on_anomaly = on_anomaly
        self.cooldown = cooldown
        self.dumps: List[AnomalyDump] = []
        self._rings: Dict[Any, Deque[TraceRecord]] = {}
        self._by_event: Dict[str, List[AnomalyRule]] = {}
        for rule in self.rules:
            self._by_event.setdefault(rule.event, []).append(rule)
        # (rule name, node) -> recent trigger-record times / last dump time.
        self._hits: Dict[Tuple[str, Any], Deque[float]] = {}
        self._last_dump: Dict[Tuple[str, Any], float] = {}
        self._bus: Optional[TraceBus] = bus
        bus.subscribe("*", self._on_record)

    # -- lifecycle --------------------------------------------------------------

    def detach(self) -> None:
        """Unsubscribe, re-gating the hot path; rings are kept for inspection."""
        if self._bus is not None:
            self._bus.unsubscribe("*", self._on_record)
            self._bus = None

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.detach()

    # -- record path ------------------------------------------------------------

    def ring(self, node: Any) -> List[TraceRecord]:
        """The retained records for ``node``, oldest first."""
        return list(self._rings.get(node, ()))

    def _on_record(self, record: TraceRecord) -> None:
        node = record_node(record)
        ring = self._rings.get(node)
        if ring is None:
            ring = self._rings[node] = deque(maxlen=self.capacity)
        ring.append(record)
        rules = self._by_event.get(record.event)
        if rules is None:
            return
        for rule in rules:
            self._check(rule, node, record.time)

    def _check(self, rule: AnomalyRule, node: Any, now: float) -> None:
        key = (rule.name, node)
        hits = self._hits.get(key)
        if hits is None:
            hits = self._hits[key] = deque(maxlen=rule.threshold)
        hits.append(now)
        if len(hits) < rule.threshold:
            return
        if rule.window > 0 and now - hits[0] > rule.window:
            return
        last = self._last_dump.get(key)
        if last is not None and now - last < self.cooldown:
            return
        self._last_dump[key] = now
        hits.clear()
        self._dump(rule, node, now)

    # -- dumping ----------------------------------------------------------------

    def _dump(self, rule: AnomalyRule, node: Any, now: float) -> None:
        records = self.ring(node)
        path: Optional[Path] = None
        if self.dump_dir is not None:
            self.dump_dir.mkdir(parents=True, exist_ok=True)
            path = self.dump_dir / (
                f"flight-{len(self.dumps):03d}-{rule.name}-node{node}.ndjson"
            )
            with path.open("w", encoding="utf-8") as handle:
                header = {
                    "anomaly": rule.name,
                    "node": node,
                    "time": now,
                    "records": len(records),
                }
                handle.write(encode_line(header))
                for record in records:
                    handle.write(encode_line(record_to_json_dict(record)))
        dump = AnomalyDump(rule=rule.name, node=node, time=now,
                           records=len(records), path=path)
        self.dumps.append(dump)
        if self.on_anomaly is not None:
            self.on_anomaly(dump, records)
