"""TCP Vegas: delay-based congestion avoidance (Brakmo & Peterson 1994).

Once per RTT the sender compares the *expected* throughput ``cwnd/baseRTT``
with the *actual* throughput ``cwnd/RTT``; the difference (in packets
queued in the network) steers the window:

* slow start doubles the window only every other RTT and exits as soon as
  the backlog exceeds ``gamma``, shrinking the window by one eighth;
* congestion avoidance holds the backlog between ``alpha`` and ``beta``
  packets by +-1 adjustments per RTT.

Loss handling remains Reno-style.  The conservative window explains both
Vegas results the paper reports: best-in-class at short chains and low
retransmissions, but a too-small window on long paths (Fig. 5.8-5.13) and
starvation against NewReno (Fig. 5.16).
"""

from __future__ import annotations

from .reno import TcpReno
from .segments import TcpSegment


def backlog(cwnd: float, base_rtt: float, rtt: float) -> float:
    """Packets queued in the network, by Vegas' estimate: (expected - actual)
    throughput times ``base_rtt``; 0 before the first RTT sample.  Veno
    (:mod:`.veno`) reads the same estimate."""
    return cwnd * (1.0 - base_rtt / rtt) if rtt > 0 else 0.0


class TcpVegas(TcpReno):
    """Delay-based Vegas congestion control."""

    variant = "vegas"

    def __init__(
        self,
        *args,
        alpha: float = 1.0,
        beta: float = 3.0,
        gamma: float = 1.0,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if not 0 < alpha <= beta:
            raise ValueError("need 0 < alpha <= beta")
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.base_rtt = float("inf")
        self._in_vegas_ss = True
        self._ss_grow_this_rtt = True

    # -- per-RTT control ---------------------------------------------------------

    def _on_rtt_sample(self, rtt: float) -> None:
        self.base_rtt = min(self.base_rtt, rtt)
        if rtt <= 0:
            return
        diff = backlog(self.cwnd, self.base_rtt, rtt)
        if self._in_vegas_ss:
            if diff > self.gamma:
                # Leave slow start before overshooting; shed 1/8 of cwnd.
                self._in_vegas_ss = False
                self._set_cwnd(max(self.cwnd * 7.0 / 8.0, 2.0))
            else:
                self._ss_grow_this_rtt = not self._ss_grow_this_rtt
                if self._ss_grow_this_rtt:
                    self._set_cwnd(self.cwnd * 2.0)
            return
        if diff < self.alpha:
            self._set_cwnd(self.cwnd + 1.0)
        elif diff > self.beta:
            self._set_cwnd(max(self.cwnd - 1.0, 2.0))
        # else: between alpha and beta — hold.

    # -- ACK growth is fully RTT-driven ---------------------------------------------

    def _grow_window(self) -> None:
        pass  # adjustments happen in _on_rtt_sample only

    def _on_timeout(self) -> None:
        super()._on_timeout()
        self._in_vegas_ss = True
        self._ss_grow_this_rtt = True

    def _on_triple_dupack(self, seg: TcpSegment) -> None:
        super()._on_triple_dupack(seg)
        self._in_vegas_ss = False
