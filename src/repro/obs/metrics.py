"""Metrics snapshot: one pass over a network's layer counters.

The simulator's hot paths keep plain-``int`` layer counters and pay nothing
for observability; :func:`collect_network_metrics` reads every layer of a
finished (or running) network once, and the returned object's
``snapshot()`` is the deterministic, JSON-safe dict that run results,
manifests and the campaign cache embed and every run digest hashes:

* ``counters`` / ``gauges`` / ``histograms`` map a metric name to a label
  string (``key=value`` pairs in key order: ``flow=0,node=0``) to a value;
  names and label strings are sorted.
* Integer layer fields are counters, and writes to one series add up (the
  ``tcp.*`` sender stats are labelled by node only, so flows from one node
  share a series).  Float fields are gauges: the last write wins, and they
  stay out of the rollups.
* ``rollups.global`` sums each counter over its series; ``rollups.per_node``
  sums it within each ``node`` label, nodes ordered ``(len, str)`` (``"2"``
  before ``"10"``).  Harvest order never leaks into the snapshot.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable

#: Inclusive upper edges (packets) of the cwnd-sample histogram; one
#: overflow bucket, ``inf``, catches everything beyond the last.
_CWND_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
_CWND_BUCKETS = tuple(f"le_{bound:g}" for bound in _CWND_BOUNDS) + ("inf",)

Series = Dict[str, Dict[str, Any]]
Rollup = Dict[str, int]  # metric name -> counter sum


def _sorted(series: Series) -> Series:
    return {name: dict(sorted(series[name].items())) for name in sorted(series)}


class NetworkMetrics:
    """What :func:`collect_network_metrics` harvested; ``snapshot()`` renders it."""

    def __init__(self) -> None:
        self.counters: Series = {}
        self.gauges: Series = {}
        self.histograms: Series = {}
        self.totals: Rollup = {}
        self.per_node: Dict[str, Rollup] = {}

    def count(self, name: str, labels: str, rollup: Rollup, value: int) -> None:
        """Add ``value`` to a series, its global total and its node's rollup."""
        series = self.counters.setdefault(name, {})
        series[labels] = series.get(labels, 0) + value
        self.totals[name] = self.totals.get(name, 0) + value
        rollup[name] = rollup.get(name, 0) + value

    def gauge(self, name: str, labels: str, value: float) -> None:
        self.gauges.setdefault(name, {})[labels] = value

    def fields(self, prefix: str, record: Any, labels: str, rollup: Rollup) -> None:
        """Harvest a layer's counter record: ints count, floats are gauges."""
        for field_name, value in vars(record).items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if isinstance(value, float):
                self.gauge(f"{prefix}.{field_name}", labels, value)
            else:
                self.count(f"{prefix}.{field_name}", labels, rollup, value)

    def snapshot(self) -> Dict[str, Any]:
        per_node = self.per_node
        return {
            "counters": _sorted(self.counters),
            "gauges": _sorted(self.gauges),
            "histograms": _sorted(self.histograms),
            "rollups": {
                "global": dict(sorted(self.totals.items())),
                "per_node": {
                    node: dict(sorted(per_node[node].items()))
                    for node in sorted(per_node, key=lambda s: (len(s), s))
                },
            },
        }


def _cwnd_histogram(trace: Iterable[Any]) -> Dict[str, Any]:
    counts = [0] * len(_CWND_BUCKETS)
    total = 0.0
    for _, cwnd in trace:
        counts[bisect_left(_CWND_BOUNDS, cwnd)] += 1
        total += cwnd
    count = sum(counts)
    return {
        "buckets": dict(zip(_CWND_BUCKETS, counts)),
        "count": count,
        "sum": total,
        "mean": total / count if count else 0.0,
    }


def collect_network_metrics(network: Any, flows: Iterable[Any] = ()) -> NetworkMetrics:
    """Sweep every layer of ``network`` (and ``flows``) in one pass.

    Harvested per node: PHY decode outcomes (``phy.rx_ok`` /
    ``phy.collisions`` / ``phy.medium_errors``), the full MAC counter set
    (retries, retry-limit drops, NAV seconds, backoff slots, ...), IFQ
    enqueue/dequeue/drop/high-water/occupancy, network-layer forwarding
    counters, routing counters (plus the AODV RREQ/RREP/RERR set when AODV
    is installed), and the DRAI advice distribution and per-state dwell
    samples (x sample_interval = time-in-state) when the estimator is
    installed.  Per flow: the TCP sender stats, final cwnd/ssthresh/RTO
    gauges, a cwnd-sample histogram, and sink delivery counters.

    Purely read-only: safe to call mid-run.
    """
    m = NetworkMetrics()
    for node in network.nodes:
        nid = node.node_id
        at = f"node={nid}"
        rollup = m.per_node.setdefault(str(nid), {})
        radio = node.radio
        m.count("phy.rx_ok", at, rollup, radio.rx_ok)
        m.count("phy.collisions", at, rollup, radio.collisions)
        m.count("phy.medium_errors", at, rollup, radio.medium_errors)
        m.fields("mac", node.mac.counters, at, rollup)
        ifq = node.ifq
        m.count("ifq.enqueued", at, rollup, ifq.enqueued)
        m.count("ifq.dequeued", at, rollup, ifq.dequeued)
        m.count("ifq.drops", at, rollup, ifq.drops)
        m.count("ifq.high_water", at, rollup, ifq.high_water)
        m.gauge("ifq.len", at, float(len(ifq)))
        m.gauge("ifq.occupancy", at, ifq.occupancy)
        early = getattr(ifq, "early_drops", None)
        if early is not None:
            m.count("ifq.early_drops", at, rollup, early)
        m.fields("net", node.counters, at, rollup)
        if node.routing is not None:
            m.fields("routing", node.routing.counters, at, rollup)
            aodv = getattr(node.routing, "aodv", None)
            if aodv is not None:
                m.fields("aodv", aodv, at, rollup)
        drai = getattr(node, "drai", None)
        if drai is not None:
            for level, count in drai.level_counts.items():
                m.count("drai.advice", f"level={level},{at}", rollup, count)
            m.gauge("drai.level", at, float(drai.drai))
            m.gauge("drai.utilization", at, drai.utilization)
            m.gauge("drai.occupancy", at, drai.occupancy)
            policy = f"{at},policy={drai.policy.name}"
            for state, count in drai.state_counts.items():
                m.count("drai.state_samples", f"{policy},state={state}",
                        rollup, count)
    for i, flow in enumerate(flows):
        sender = flow.sender
        nid = sender.node.node_id
        rollup = m.per_node.setdefault(str(nid), {})
        m.fields("tcp", sender.stats, f"node={nid}", rollup)
        at = f"flow={i},node={nid}"
        m.gauge("tcp.cwnd", at, sender.cwnd)
        m.gauge("tcp.ssthresh", at, sender.ssthresh)
        m.gauge("tcp.rto", at, sender.rtt.rto)
        histograms = m.histograms.setdefault("tcp.cwnd_samples", {})
        histograms[at] = _cwnd_histogram(sender.cwnd_trace)
        sink = flow.sink
        nid = sink.node.node_id
        rollup = m.per_node.setdefault(str(nid), {})
        at = f"flow={i},node={nid}"
        m.count("tcp.delivered_packets", at, rollup, sink.delivered_packets)
        m.count("tcp.delivered_bytes", at, rollup, sink.delivered_bytes)
    return m
