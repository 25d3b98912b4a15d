"""Observability layer: metrics, trace sinks, flight recorder, provenance.

Everything here sits *on top of* the simulator's existing tracing and
counter infrastructure — the hot paths keep their plain-``int`` counters
and gated emits, and this package harvests, records, and attributes:

* :mod:`~repro.obs.metrics` — :func:`collect_network_metrics` reads every
  layer's counters once into a deterministic snapshot: labelled counter,
  gauge and cwnd-histogram series plus per-node and global rollups.
* :mod:`~repro.obs.ndjson` — the one NDJSON codec: the line encoder every
  log writer uses, the never-raising scan every reader goes through, and
  the one torn-tail cut.
* :mod:`~repro.obs.sinks` — the NDJSON file sink for the trace bus.
* :mod:`~repro.obs.probe` — periodic cwnd/queue/throughput sampler.
* :mod:`~repro.obs.flight` — bounded per-node ring buffers dumped on
  anomalies (RTO storms, route failures, queue-full bursts).
* :mod:`~repro.obs.provenance` — run manifests (seed, config digest,
  metrics snapshot, environment) attached to every result.
* :mod:`~repro.obs.schema` — the dependency-free schema engine for the
  committed ``schemas/*.schema.json``; it names no record kind (what each
  artifact must hold is judged by ``repro-muzha doctor``,
  ``repro.experiments.doctor``).
"""

from .flight import AnomalyDump, AnomalyRule, DEFAULT_RULES, FlightRecorder
from .metrics import collect_network_metrics
from .probe import TimeseriesProbe, attach_run_probe
from .provenance import (
    MANIFEST_SCHEMA_VERSION,
    attach_spec,
    build_manifest,
    manifest_consistent,
    stable_digest,
)
from .sinks import NdjsonTraceSink, record_to_json_dict
from .schema import load_schema, validate

__all__ = [
    "AnomalyDump",
    "AnomalyRule",
    "DEFAULT_RULES",
    "FlightRecorder",
    "collect_network_metrics",
    "TimeseriesProbe",
    "attach_run_probe",
    "MANIFEST_SCHEMA_VERSION",
    "attach_spec",
    "build_manifest",
    "manifest_consistent",
    "stable_digest",
    "NdjsonTraceSink",
    "record_to_json_dict",
    "load_schema",
    "validate",
]
