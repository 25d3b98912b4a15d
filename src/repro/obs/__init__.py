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
* :mod:`~repro.obs.spans` / :mod:`~repro.obs.engine` — campaign-scale
  telemetry: span/event model, live NDJSON streaming.
* :mod:`~repro.obs.report` — ``fold_spans``, the one reader of a span
  log's open/close structure, and the aggregation behind ``repro-muzha
  report`` built on it.
* :mod:`~repro.obs.schema` — the dependency-free schema engine for the
  committed ``schemas/*.schema.json``; it names no record kind (what each
  artifact must hold is judged by ``repro-muzha doctor``,
  ``repro.experiments.doctor``).
"""

from .engine import CampaignTelemetry
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
from .report import aggregate_span_log, format_report, render_report
from .sinks import NdjsonTraceSink, record_to_json_dict
from .spans import (
    SPAN_BATCH,
    SPAN_CAMPAIGN,
    SPAN_UNIT,
    Span,
    SpanWriter,
)
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
    "CampaignTelemetry",
    "SPAN_BATCH",
    "SPAN_CAMPAIGN",
    "SPAN_UNIT",
    "Span",
    "SpanWriter",
    "aggregate_span_log",
    "format_report",
    "render_report",
    "load_schema",
    "validate",
]
