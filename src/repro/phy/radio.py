"""Half-duplex radio: per-node transmit/receive state and collision tracking.

A :class:`Radio` tracks every signal currently on the air at its location
(delivered by the :class:`~repro.phy.channel.WirelessChannel`).  Reception
fails when signals overlap (collision), when the node is itself transmitting
(half duplex), or when the channel error model corrupts the frame (random
loss).  The radio reports busy/idle transitions and frame outcomes to its MAC
through the narrow :class:`PhyListener` interface.
"""

from __future__ import annotations

from typing import List, Optional, Protocol

from ..sim.simulator import Simulator


class PhyListener(Protocol):
    """What a MAC must implement to sit on top of a :class:`Radio`."""

    def phy_channel_busy(self) -> None:
        """The medium transitioned idle -> busy at this node."""

    def phy_channel_idle(self) -> None:
        """The medium transitioned busy -> idle at this node."""

    def phy_receive(self, frame: object) -> None:
        """A frame was decoded successfully."""

    def phy_rx_error(self) -> None:
        """A decodable frame was lost (collision or bit errors)."""

    def phy_tx_end(self, frame: object) -> None:
        """This node's own transmission of ``frame`` left the air.

        Reported on every tx-end — also while other energy keeps the medium
        busy, and also on a powered-off radio (the MAC has its own crash
        flag).  Order: the idle edge, if there is one, comes *first*, so
        the listener sees the medium state its next decision depends on.
        """


class Signal:
    """One transmission as heard at a particular radio."""

    __slots__ = ("frame", "receivable", "corrupted", "end_time", "power")

    def __init__(
        self,
        frame: object,
        receivable: bool,
        end_time: float,
        power: float = 1.0,
    ) -> None:
        self.frame = frame
        #: True when the sender is within decode range of this radio.
        self.receivable = receivable
        #: Set when an overlap or the node's own transmission ruins decoding.
        self.corrupted = False
        self.end_time = end_time
        #: Relative received power (propagation-model units).
        self.power = power


class Radio:
    """Physical-layer state machine for a single node.

    ``capture_ratio`` implements the capture effect (NS2's ``CPThresh_``):
    of two overlapping signals, the one at least that factor stronger
    survives; comparable powers destroy both.  We default to 20 rather than
    NS2's 10: under the pure d^-4 disk abstraction a threshold of 10 makes
    the two-hops-away chain interferer (power ratio 16) harmless and chains
    become implausibly lossless, while 20 restores the intra-chain
    contention losses the paper's evaluation revolves around yet still lets
    near-field frames (ratio >= 25) survive far-field interference.  See
    DESIGN.md §6.
    """

    def __init__(
        self, sim: Simulator, node_id: int, capture_ratio: float = 20.0
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.capture_ratio = capture_ratio
        self.listener: Optional[PhyListener] = None
        #: True while the node is powered off (fault injection); a down
        #: radio neither tracks nor delivers signals.
        self.down = False
        self._signals: List[Signal] = []
        self._transmitting = False
        # Decode-outcome counters over receivable signals, read once per run
        # into the metrics snapshot by collect_network_metrics.
        self.rx_ok = 0
        self.collisions = 0
        self.medium_errors = 0

    # -- state inspection -----------------------------------------------------

    @property
    def transmitting(self) -> bool:
        return self._transmitting

    @property
    def carrier_busy(self) -> bool:
        """Physical carrier sense: own TX or any energy on the air here."""
        return self._transmitting or bool(self._signals)

    # -- power state (fault injection) ------------------------------------------

    def shutdown(self) -> None:
        """Power off mid-flight: discard in-progress receptions and TX state.

        Signal-end events for the discarded receptions may already be on the
        scheduler; :meth:`signal_end` tolerates them (the signal is simply
        no longer tracked here).
        """
        self.down = True
        self._signals.clear()
        self._transmitting = False

    def restore(self) -> None:
        """Power back on with a clean slate (any mid-air frames are missed)."""
        self.down = False

    # -- transmit side (driven by the channel) ---------------------------------

    def begin_transmit(self, duration: float) -> None:
        """Enter TX state for ``duration``; ruins any in-progress receptions."""
        if self.down:
            return  # a powered-off radio cannot key up
        if self._transmitting:
            raise RuntimeError(f"radio {self.node_id} is already transmitting")
        # carrier_busy inlined (``_transmitting`` is False here): this runs
        # once per frame, and the property is a Python-level call.
        was_busy = bool(self._signals)
        self._transmitting = True
        for signal in self._signals:
            signal.corrupted = True
        if not was_busy and self.listener is not None:
            self.listener.phy_channel_busy()

    def end_transmit(self, frame: object) -> None:
        """Leave TX state: report idle if nothing remains on the air, then
        tell the listener its ``frame`` is out (:meth:`PhyListener.phy_tx_end`).

        This is the channel's tx-end entry and the MAC's tx-done in one: the
        MAC schedules no event of its own for it.  The idle edge is skipped
        on a ``down`` radio (stale tx-end after a mid-transmission shutdown)
        and while other signals keep the carrier busy; ``phy_tx_end`` is
        reported regardless — otherwise CTS/ACK timers would never arm.
        """
        self._transmitting = False
        listener = self.listener
        if listener is None:
            return
        if not (self.down or self._signals):
            listener.phy_channel_idle()
        listener.phy_tx_end(frame)

    # -- receive side (driven by the channel) ----------------------------------

    def signal_start(self, signal: Signal) -> None:
        """A transmission began arriving at this radio."""
        if self.down:
            return  # in-flight arrival at a powered-off radio: lost energy
        # carrier_busy inlined: this runs once per fan-out arrival, and the
        # property costs a Python-level descriptor call on the hot path.
        was_busy = self._transmitting or bool(self._signals)
        if self._transmitting:
            signal.corrupted = True
        for other in self._signals:
            # SINR-style symmetric capture: whichever signal is at least
            # capture_ratio stronger survives the overlap; comparable powers
            # destroy both.  This deviates from NS2's literal first-arrival
            # lock (where weak early energy blots out a far stronger later
            # frame) in favour of physical plausibility — see DESIGN.md §6;
            # without it, background energy from 2x-range neighbours makes
            # every busy region permanently undecodable.
            if other.power >= signal.power * self.capture_ratio:
                signal.corrupted = True
            elif signal.power >= other.power * self.capture_ratio:
                other.corrupted = True
            else:
                signal.corrupted = True
                other.corrupted = True
        self._signals.append(signal)
        if not was_busy and self.listener is not None:
            self.listener.phy_channel_busy()

    def signal_end(
        self, signal: Signal, corrupted_by_medium: bool = False
    ) -> None:
        """A transmission finished arriving; deliver or report the loss.

        ``corrupted_by_medium`` is the error model's verdict, drawn by the
        channel at departure on a lossy medium; every other departure entry
        calls with the signal alone.  A receivable signal is reported
        exactly once — ``phy_receive`` or ``phy_rx_error`` — and then the
        idle edge, if the carrier cleared; the carrier is read *after* the
        report, which may have keyed this radio up.
        """
        try:
            self._signals.remove(signal)
        except ValueError:
            # The signal was discarded by a mid-flight shutdown (possibly
            # followed by a restart); the frame is simply lost.
            return
        listener = self.listener
        if signal.receivable:
            if not (signal.corrupted or corrupted_by_medium):
                self.rx_ok += 1
                if listener is not None:
                    listener.phy_receive(signal.frame)
            else:
                if signal.corrupted:
                    self.collisions += 1
                else:
                    self.medium_errors += 1
                if listener is not None:
                    listener.phy_rx_error()
        if listener is not None and not (self._transmitting or self._signals):
            listener.phy_channel_idle()
