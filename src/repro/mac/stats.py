"""Per-MAC counters and the medium-utilisation meter.

The utilisation meter is a substrate for TCP Muzha's router-side DRAI: each
node measures the fraction of wall-clock time its local medium was busy,
which (together with IFQ occupancy) is the "network status" the paper says
routers quantise into a rate-adjustment recommendation.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class MacCounters:
    """Event counters exposed by each DCF instance."""

    data_tx: int = 0
    data_rx: int = 0
    rts_tx: int = 0
    cts_tx: int = 0
    ack_tx: int = 0
    retries: int = 0
    drops_retry_limit: int = 0
    duplicates_rx: int = 0
    broadcast_tx: int = 0
    broadcast_rx: int = 0
    rx_errors: int = 0
    #: Total backoff slots drawn across all contention rounds.
    backoff_slots: int = 0
    #: Seconds of virtual carrier sense (NAV) this MAC honoured.
    nav_time_s: float = 0.0


class MediumUtilizationMeter:
    """Accumulates how long the local medium (or the MAC server) was busy.

    Driven by the MAC's busy/idle transitions (a repeated transition is a
    no-op); readers call :meth:`total_busy_time` and keep their own
    bookkeeping of the last read (the DRAI sampler derives its window
    fractions from two such reads).
    """

    def __init__(self) -> None:
        self._busy_accum = 0.0
        self._busy_since: float = -1.0  # <0 means currently idle

    def on_busy(self, now: float) -> None:
        if self._busy_since < 0:
            self._busy_since = now

    def on_idle(self, now: float) -> None:
        if self._busy_since >= 0:
            self._busy_accum += now - self._busy_since
            self._busy_since = -1.0

    def total_busy_time(self, now: float) -> float:
        """Cumulative busy seconds up to ``now``."""
        total = self._busy_accum
        if self._busy_since >= 0:
            total += now - self._busy_since
        return total
