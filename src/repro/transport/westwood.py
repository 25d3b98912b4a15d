"""TCP Westwood (Gerla et al., GLOBECOM 2001) — related-work baseline.

Westwood keeps NewReno's window dynamics but replaces blind halving with
*faster recovery*: the sender continuously estimates the eligible rate from
the ACK stream (bandwidth = acked bytes / inter-ACK time, low-pass
filtered) and, on a loss event, sets ``ssthresh`` to the estimated
bandwidth-delay product instead of half the window.  Over lossy wireless
paths this avoids over-shrinking for losses that are not congestion — the
same problem TCP Muzha attacks with router assistance, making Westwood the
natural end-to-end contrast in the extension benchmarks.
"""

from __future__ import annotations

import math
from typing import Optional

from .newreno import TcpNewReno
from .segments import TcpSegment


class TcpWestwood(TcpNewReno):
    """NewReno + ACK-rate bandwidth estimation (packets/second)."""

    variant = "westwood"

    #: Time constant (seconds) of the bandwidth low-pass filter.  The gain
    #: of each sample is weighted by the ACK inter-arrival time
    #: (``1 - exp(-dt/tau)``), so a compressed burst of ACKs — whose
    #: instantaneous rate wildly overstates the path — contributes almost
    #: nothing, which is the point of Westwood's Tustin filter.
    BW_TAU = 0.5

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Filtered delivery-rate estimate in packets per second.
        self.bandwidth_estimate = 0.0
        self._last_ack_time: float = -1.0

    # -- bandwidth estimation -----------------------------------------------------

    def _handle_ack(self, seg: TcpSegment) -> None:
        if seg.ack > self.snd_una:
            self._update_bandwidth(seg.ack - self.snd_una)
        super()._handle_ack(seg)

    def _update_bandwidth(self, acked: int) -> None:
        now = self.sim.now
        if self._last_ack_time >= 0:
            interval = now - self._last_ack_time
            if interval > 0:
                sample = acked / interval
                gain = 1.0 - math.exp(-interval / self.BW_TAU)
                self.bandwidth_estimate = (
                    (1.0 - gain) * self.bandwidth_estimate + gain * sample
                )
        self._last_ack_time = now

    def _bdp_window(self) -> float:
        """Bandwidth-delay product in packets, in [2, advertised window]."""
        rtt = self.rtt.srtt if self.rtt.samples else 0.0
        if rtt <= 0 or self.bandwidth_estimate <= 0:
            return 2.0
        bdp = self.bandwidth_estimate * rtt
        return min(max(bdp, 2.0), float(self.window))

    # -- faster recovery: BDP-based ssthresh --------------------------------------------

    def _loss_ssthresh(self, seg: Optional[TcpSegment]) -> float:
        return self._bdp_window()
