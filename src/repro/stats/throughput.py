"""Throughput measurement: summary helpers over sinks.

Periodic sampling is :class:`repro.obs.probe.TimeseriesProbe`'s job;
:func:`repro.stats.timeseries.differentiate` turns its cumulative
delivered-bytes series into the Fig. 5.19–5.22 dynamics.
"""

from __future__ import annotations

from ..transport.receiver import TcpSink


def goodput_kbps(sink: TcpSink, duration: float) -> float:
    """Average application-level goodput over ``duration`` seconds."""
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    return sink.delivered_bytes * 8.0 / duration / 1000.0
