"""TCP Veno (Fu & Liew, JSAC 2003) — related-work baseline.

Veno grafts Vegas' backlog estimate onto Reno: the sender computes
``N = cwnd * (1 - baseRTT/RTT)`` (packets queued in the network) and

* during congestion avoidance, grows the window every other ACK-round when
  the path looks congested (``N >= beta``), full speed otherwise;
* on a loss with ``N < beta`` (the path was *not* congested — a random
  wireless loss), it cuts the window by only 1/5 instead of 1/2.

Like Westwood it is an end-to-end answer to the random-loss problem TCP
Muzha solves with router feedback, so it slots into the same comparison
benchmarks.
"""

from __future__ import annotations

from typing import Optional

from .reno import TcpReno
from .segments import TcpSegment
from .vegas import backlog


class TcpVeno(TcpReno):
    """Reno with Vegas-style loss discrimination."""

    variant = "veno"

    def __init__(self, *args, beta: float = 3.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.beta = beta
        self.base_rtt = float("inf")
        self._last_rtt = 0.0
        #: Toggles CA growth every other round while congested.
        self._skip_increase = False

    # -- backlog estimation ----------------------------------------------------

    def _on_rtt_sample(self, rtt: float) -> None:
        self.base_rtt = min(self.base_rtt, rtt)
        self._last_rtt = rtt

    def _backlog(self) -> float:
        return backlog(self.cwnd, self.base_rtt, self._last_rtt)

    # -- window dynamics -----------------------------------------------------------

    def _grow_window(self) -> None:
        if self.cwnd < self.ssthresh:
            self._set_cwnd(self.cwnd + 1.0)
            return
        if self._backlog() >= self.beta:
            # congested: increase only every other congestion-avoidance step
            self._skip_increase = not self._skip_increase
            if self._skip_increase:
                return
        self._set_cwnd(self.cwnd + 1.0 / max(self.cwnd, 1.0))

    def _loss_ssthresh(self, seg: Optional[TcpSegment]) -> float:
        if seg is not None and self._backlog() < self.beta:
            # random loss (duplicate ACKs, path not congested): shed only
            # one fifth of the window.  A timeout always halves.
            return max(self.cwnd * 4.0 / 5.0, 2.0)
        return self._flight_half()
