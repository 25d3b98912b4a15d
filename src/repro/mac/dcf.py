"""IEEE 802.11 Distributed Coordination Function (DCF).

Implements the access method the paper's NS2 runs relied on:

* physical carrier sense (from the radio) combined with virtual carrier
  sense (NAV, set from overheard Duration fields);
* DIFS/EIFS deferral and binary-exponential slotted backoff, with the
  countdown paused while the medium is busy and resumed where it left off;
* RTS/CTS/DATA/ACK exchange for unicast data (RTS threshold 0, as in the
  common MANET configuration), plain DATA for broadcast;
* short (pre-CTS) and long (post-CTS) retry limits with a *link failure*
  callback on exhaustion — the signal AODV uses to detect broken links;
* receiver-side duplicate detection via MAC sequence numbers.

The intra-flow contention, hidden-terminal collisions and retry-limit drops
this machinery produces on multihop chains are precisely the phenomena the
paper's evaluation (and TCP Muzha's design) revolves around.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Optional, Protocol, Tuple

from ..phy.channel import WirelessChannel
from ..phy.radio import Radio
from ..sim.simulator import Simulator
from ..sim.timer import Timer
from .frames import BROADCAST, FrameKind, MacFrame
from .nav import Nav
from .params import MacParams
from .stats import MacCounters, MediumUtilizationMeter


class MacListener(Protocol):
    """Upper-layer (link layer / network layer) interface."""

    def mac_deliver(self, packet: object, from_addr: int) -> None:
        """A network packet arrived for this node from MAC ``from_addr``."""

    def mac_tx_ok(self, next_hop: int, packet: object) -> None:
        """A unicast packet was acknowledged by ``next_hop``."""

    def mac_link_failure(self, next_hop: int, packet: object) -> None:
        """Retry limit exhausted sending ``packet`` to ``next_hop``."""


class TxQueue(Protocol):
    """What the DCF needs from the interface queue."""

    def dequeue(self) -> Optional["QueuedPacket"]:
        ...


class QueuedPacket:
    """An IFQ entry: a network packet bound for a MAC next hop."""

    __slots__ = ("packet", "next_hop", "size_bytes")

    def __init__(self, packet: object, next_hop: int, size_bytes: int) -> None:
        self.packet = packet
        self.next_hop = next_hop
        self.size_bytes = size_bytes


class DcfState(Enum):
    IDLE = "idle"
    CONTEND = "contend"
    WAIT_CTS = "wait_cts"
    SEND_DATA = "send_data"
    WAIT_ACK = "wait_ack"


class DcfMac:
    """One 802.11 DCF instance, bound to one radio."""

    def __init__(
        self,
        sim: Simulator,
        channel: WirelessChannel,
        radio: Radio,
        address: int,
        params: Optional[MacParams] = None,
    ) -> None:
        self.sim = sim
        #: The clock and the event API, one hop away: the per-frame path
        #: reads ``_sched.now`` (a plain attribute) and schedules/cancels on
        #: the scheduler itself rather than through the Simulator shortcuts.
        #: Never cache ``now`` across callbacks.
        self._sched = sim.scheduler
        self.channel = channel
        self.radio = radio
        self.address = address
        self.params = params or MacParams()
        self.listener: Optional[MacListener] = None
        self.queue: Optional[TxQueue] = None

        self.nav = Nav()
        self.counters = MacCounters()
        self.meter = MediumUtilizationMeter()
        #: Fraction of time the MAC has a packet in service (dequeued but not
        #: yet acknowledged/dropped) — the router-side "no headroom" signal
        #: TCP Muzha's DRAI estimator reads.
        self.service_meter = MediumUtilizationMeter()

        radio.listener = self

        p = self.params
        phy = channel.phy
        self._cts_time = phy.control_tx_time(p.cts_bytes)
        self._ack_time = phy.control_tx_time(p.ack_bytes)
        self._eifs = p.sifs + self._ack_time + p.difs

        # Interned per-hop forwarding frames.  RTS and ACK frames are fully
        # determined by (next_hop, data size) / peer respectively and are
        # never mutated after construction, so the same frame object is
        # reused for every retransmission and every later packet along the
        # same hop instead of being rebuilt per attempt.  Tx-time memos
        # cache the (pure) PHY timing functions by frame size — same
        # floats, computed once.
        self._rts_cache: Dict[Tuple[int, int], MacFrame] = {}
        self._ack_cache: Dict[int, MacFrame] = {}
        self._data_time: Dict[int, float] = {}
        self._control_time: Dict[int, float] = {}

        self._rng = sim.stream(f"mac.backoff.{address}")
        self._down = False
        self._state = DcfState.IDLE
        self._current: Optional[QueuedPacket] = None
        self._frame_id = 0
        self._retries_short = 0
        self._retries_long = 0
        self._cw = p.cw_min
        self._backoff_slots = 0
        self._use_eifs = False

        self._access_event = None
        self._countdown_start = 0.0
        self._countdown_ifs = 0.0
        self._medium_idle_since: Optional[float] = 0.0
        self._nav_event = None

        self._pending_response: Optional[MacFrame] = None
        self._response_timer = Timer(sim, self._send_response, name="mac.sifs")
        self._cts_timer = Timer(sim, self._on_cts_timeout, name="mac.cts_to")
        self._ack_timer = Timer(sim, self._on_ack_timeout, name="mac.ack_to")

        self._rx_dedup: Dict[int, int] = {}

    # -- public API -------------------------------------------------------------

    @property
    def state(self) -> DcfState:
        return self._state

    @property
    def busy_with_packet(self) -> bool:
        """True while a packet is being contended for / transmitted."""
        return self._current is not None

    def wakeup(self) -> None:
        """The interface queue went non-empty; pull if we are idle."""
        if self._down:
            return
        if self._current is None:
            self._pull_next()

    def shutdown(self) -> None:
        """Power the MAC down (node crash): cancel every pending timer and
        event, drop the in-service packet, and ignore stale callbacks.

        Callbacks the MAC holds no handle for (the radio's ``phy_tx_end``
        for a frame still on the air, SIFS responses already queued) may
        still arrive after shutdown; the ``_down`` guards turn them into
        no-ops instead of stale-state corruption.
        """
        if self._down:
            return
        self._down = True
        self._reset_tx_state()
        self._response_timer.stop()
        self._pending_response = None
        self._sched.cancel(self._nav_event)
        self._nav_event = None
        self.nav.clear()
        self._use_eifs = False
        self._medium_idle_since = None

    def restart(self) -> None:
        """Power back up with fresh link state (a rebooted node forgets its
        duplicate-detection history and any virtual carrier reservation)."""
        if not self._down:
            return
        self._down = False
        self._rx_dedup.clear()
        # _frame_id deliberately keeps counting: reusing ids after a reboot
        # would trip the peers' duplicate caches and silently eat frames.
        self._set_medium(self._medium_busy())
        self.wakeup()

    # -- medium state -------------------------------------------------------------

    def _medium_busy(self) -> bool:
        radio = self.radio
        # Radio.carrier_busy, read without the property call.
        if radio._transmitting or radio._signals:
            return True
        return (
            self._sched.now < self.nav.until
            or self._pending_response is not None
        )

    def _set_medium(self, busy: bool) -> None:
        """The busy/idle transition: freeze the backoff when the medium
        turns busy, stamp the idle instant and (re)start it when it clears.

        Callers that know the answer pass it (a NAV extension or a queued
        SIFS response: busy); NAV end and restart, where nothing says which
        way the medium went, pass :meth:`_medium_busy`.  The carrier edges
        write their half out instead of calling here — edges are most of the
        per-frame calls — :meth:`phy_channel_busy` the busy half,
        :meth:`phy_channel_idle` the idle half.

        Invariant: ``_medium_idle_since`` is None while NAV or a pending
        SIFS response holds the medium — each is set only right before a
        busy transition, and the clock only releases them.

        The ``_access_event`` / ``CONTEND`` tests are guards *around*
        ``_pause_countdown`` / ``_maybe_start_countdown`` (which keep their
        own): most transitions arrive at a MAC that is not contending.
        """
        if busy:
            if self._medium_idle_since is not None:
                self._medium_idle_since = None
                if self._access_event is not None:
                    self._pause_countdown()
        elif self._medium_idle_since is None:
            self._medium_idle_since = self._sched.now
            if self._state is DcfState.CONTEND:
                self._maybe_start_countdown()

    # -- PHY listener interface -----------------------------------------------------

    def phy_channel_busy(self) -> None:
        """A busy edge *is* "medium busy": the radio reports it only after
        it appended the signal / set ``_transmitting``, so the carrier term
        of :meth:`_medium_busy` is True at this instant whatever NAV says —
        :meth:`_set_medium`'s busy half."""
        self.meter.on_busy(self._sched.now)
        if self._medium_idle_since is not None:
            self._medium_idle_since = None
            if self._access_event is not None:
                self._pause_countdown()

    def phy_channel_idle(self) -> None:
        """An idle edge settles the carrier term: the radio reports it only
        when ``not (_transmitting or _signals)``, which leaves NAV and a
        pending SIFS response — read at the same ``now`` — to decide.  If
        either holds the medium it is already busy (:meth:`_set_medium`'s
        invariant) and nothing moves; otherwise this is the idle half."""
        now = self._sched.now
        self.meter.on_idle(now)
        if (
            self._medium_idle_since is None
            and now >= self.nav.until
            and self._pending_response is None
        ):
            self._medium_idle_since = now
            if self._state is DcfState.CONTEND:
                self._maybe_start_countdown()

    def phy_tx_end(self, frame: MacFrame) -> None:
        """Our own ``frame`` left the air (after the idle edge, if any): arm
        the CTS/ACK wait or finish a broadcast.  This is the channel's tx-end
        entry itself — the MAC schedules no tx-done event of its own."""
        if self._down:
            return  # the node died between keying up and tx completion
        if frame.kind is FrameKind.RTS:
            self._cts_timer.start(
                self.params.sifs + self._cts_time + self.params.timeout_guard
            )
        elif frame.kind is FrameKind.DATA:
            if frame.dst == BROADCAST:
                self._finish_current(success=True)
            elif self._current is not None and frame.payload is self._current.packet:
                self._state = DcfState.WAIT_ACK
                self._ack_timer.start(
                    self.params.sifs + self._ack_time + self.params.timeout_guard
                )

    def phy_rx_error(self) -> None:
        # A frame we might have decoded was lost: defer by EIFS next time,
        # per the standard, to protect the (unheard) ACK of that exchange.
        self.counters.rx_errors += 1
        self._use_eifs = True

    def phy_receive(self, frame: MacFrame) -> None:
        if self._down:
            return
        self._use_eifs = False
        if frame.dst == self.address:
            if frame.kind is FrameKind.RTS:
                self._handle_rts(frame)
            elif frame.kind is FrameKind.CTS:
                self._handle_cts(frame)
            elif frame.kind is FrameKind.DATA:
                self._handle_data(frame)
            elif frame.kind is FrameKind.ACK:
                self._handle_ack(frame)
        elif frame.dst == BROADCAST and frame.kind is FrameKind.DATA:
            self.counters.broadcast_rx += 1
            if self.listener is not None:
                self.listener.mac_deliver(frame.payload, frame.src)
        else:
            self._update_nav(frame)

    def _update_nav(self, frame: MacFrame) -> None:
        if frame.duration <= 0:
            return
        sched = self._sched
        now = sched.now
        until = now + frame.duration
        prev = self.nav.until
        if self.nav.set(until):
            # Each successful extension adds exactly the newly reserved span.
            self.counters.nav_time_s += until - max(prev, now)
            sched.cancel(self._nav_event)
            self._nav_event = sched.schedule(
                until, self._on_nav_end, name="mac.nav_end"
            )
            self._set_medium(True)  # NAV now reaches past now

    def _on_nav_end(self) -> None:
        # Drop the handle before re-evaluating: the scheduler recycles fired
        # events, so keeping (and later cancelling) a dead reference could
        # hit an unrelated reissued event.
        self._nav_event = None
        self._set_medium(self._medium_busy())

    # -- backoff countdown ---------------------------------------------------------

    def _maybe_start_countdown(self) -> None:
        if self._state is not DcfState.CONTEND or self._access_event is not None:
            return
        if self._medium_idle_since is None:
            return
        ifs = self._eifs if self._use_eifs else self.params.difs
        self._countdown_ifs = ifs
        sched = self._sched
        self._countdown_start = now = sched.now
        delay = ifs + self._backoff_slots * self.params.slot_time
        # now + delay, grouped as schedule_after() forms it (float addition
        # is not associative; see WirelessChannel.transmit).
        self._access_event = sched.schedule(
            now + delay, self._access, name="mac.access"
        )

    def _pause_countdown(self) -> None:
        if self._access_event is None:
            return
        self._sched.cancel(self._access_event)
        self._access_event = None
        elapsed = self._sched.now - self._countdown_start - self._countdown_ifs
        if elapsed > 0:
            slots_done = int(elapsed / self.params.slot_time + 1e-9)
            self._backoff_slots = max(0, self._backoff_slots - slots_done)

    def _begin_contention(self, first_attempt: bool) -> None:
        """Enter CONTEND; transmit immediately if the medium has been idle
        longer than DIFS (802.11 immediate access), else run the backoff."""
        self._state = DcfState.CONTEND
        idle_since = self._medium_idle_since
        if (
            first_attempt
            and idle_since is not None
            and self._sched.now - idle_since >= self.params.difs
            and not self._use_eifs
        ):
            self._backoff_slots = 0
            self._access()
            return
        self._backoff_slots = self._rng.randint(0, self._cw)
        self.counters.backoff_slots += self._backoff_slots
        self._maybe_start_countdown()

    def _access(self) -> None:
        self._access_event = None
        if self._down:
            return
        if self._current is None:
            self._state = DcfState.IDLE
            return
        if self._medium_busy():
            # Lost the race against a same-instant arrival; the idle
            # transition will restart the countdown.
            return
        entry = self._current
        if entry.next_hop == BROADCAST:
            self._send_frame(self._build_data_frame(entry))
        elif self.params.rts_threshold == 0 or entry.size_bytes >= self.params.rts_threshold:
            self._send_frame(self._build_rts(entry))
        else:
            self._send_frame(self._build_data_frame(entry))

    # -- frame construction ----------------------------------------------------------

    def _data_frame_bytes(self, entry: QueuedPacket) -> int:
        return entry.size_bytes + self.params.data_header_bytes

    def _data_tx_time(self, size_bytes: int) -> float:
        time = self._data_time.get(size_bytes)
        if time is None:
            time = self.channel.phy.data_tx_time(size_bytes)
            self._data_time[size_bytes] = time
        return time

    def _build_rts(self, entry: QueuedPacket) -> MacFrame:
        key = (entry.next_hop, entry.size_bytes)
        frame = self._rts_cache.get(key)
        if frame is None:
            data_time = self._data_tx_time(self._data_frame_bytes(entry))
            duration = (
                3 * self.params.sifs + self._cts_time + data_time + self._ack_time
            )
            frame = MacFrame(
                FrameKind.RTS,
                src=self.address,
                dst=entry.next_hop,
                size_bytes=self.params.rts_bytes,
                duration=duration,
            )
            self._rts_cache[key] = frame
        return frame

    def _build_data_frame(self, entry: QueuedPacket) -> MacFrame:
        broadcast = entry.next_hop == BROADCAST
        duration = 0.0 if broadcast else self.params.sifs + self._ack_time
        return MacFrame(
            FrameKind.DATA,
            src=self.address,
            dst=entry.next_hop,
            size_bytes=self._data_frame_bytes(entry),
            duration=duration,
            frame_id=self._frame_id,
            payload=entry.packet,
        )

    # -- transmission ------------------------------------------------------------------

    def _tx_time(self, frame: MacFrame) -> float:
        if frame.kind is FrameKind.DATA and frame.dst != BROADCAST:
            return self._data_tx_time(frame.size_bytes)
        # Control frames and broadcast data go out at the basic rate.
        time = self._control_time.get(frame.size_bytes)
        if time is None:
            time = self.channel.phy.control_tx_time(frame.size_bytes)
            self._control_time[frame.size_bytes] = time
        return time

    def _send_frame(self, frame: MacFrame) -> None:
        tx_time = self._tx_time(frame)
        # Gate before building the field dict: an unsubscribed run must not
        # pay for trace-field construction on the per-frame hot path, nor
        # for the wants() call (``active`` is a plain attribute).
        trace = self.sim.trace
        if trace.active and trace.wants("mac.tx"):
            self.sim.emit(
                "mac", "mac.tx",
                kind=frame.kind.name, src=frame.src, dst=frame.dst,
                size_bytes=frame.size_bytes,
            )
        if frame.kind is FrameKind.RTS:
            self.counters.rts_tx += 1
            self._state = DcfState.WAIT_CTS
        elif frame.kind is FrameKind.CTS:
            self.counters.cts_tx += 1
        elif frame.kind is FrameKind.ACK:
            self.counters.ack_tx += 1
        elif frame.dst == BROADCAST:
            self.counters.broadcast_tx += 1
        else:
            self.counters.data_tx += 1
        # The channel's tx-end entry comes back as phy_tx_end(frame).
        self.channel.transmit(self.radio, frame, tx_time)

    # -- SIFS responses ------------------------------------------------------------------

    def _schedule_response(self, frame: MacFrame) -> None:
        if self._pending_response is not None:
            return  # should not happen on a conforming medium; drop quietly
        self._pending_response = frame
        self._response_timer.start(self.params.sifs)
        self._set_medium(True)

    def _send_response(self) -> None:
        """Send the queued response.  Releasing the pending term moves no
        transition: the response keys the radio up at this instant (a MAC
        that is up has a radio that is up), so the medium stays busy."""
        frame = self._pending_response
        self._pending_response = None
        if self._down:
            return
        if frame is not None:
            self._send_frame(frame)

    # -- frame handlers ----------------------------------------------------------------------

    def _handle_rts(self, frame: MacFrame) -> None:
        if (
            self._pending_response is not None
            or self.radio.transmitting
            or self._state in (DcfState.WAIT_CTS, DcfState.SEND_DATA, DcfState.WAIT_ACK)
            or self._sched.now < self.nav.until
        ):
            return  # cannot honour the reservation; sender will retry
        duration = max(0.0, frame.duration - self.params.sifs - self._cts_time)
        cts = MacFrame(
            FrameKind.CTS,
            src=self.address,
            dst=frame.src,
            size_bytes=self.params.cts_bytes,
            duration=duration,
        )
        self._schedule_response(cts)

    def _handle_cts(self, frame: MacFrame) -> None:
        if (
            self._state is not DcfState.WAIT_CTS
            or self._current is None
            or frame.src != self._current.next_hop
        ):
            return
        self._cts_timer.stop()
        self._state = DcfState.SEND_DATA
        self._schedule_response(self._build_data_frame(self._current))

    def _handle_data(self, frame: MacFrame) -> None:
        ack = self._ack_cache.get(frame.src)
        if ack is None:
            ack = MacFrame(
                FrameKind.ACK,
                src=self.address,
                dst=frame.src,
                size_bytes=self.params.ack_bytes,
                duration=0.0,
            )
            self._ack_cache[frame.src] = ack
        self._schedule_response(ack)
        if self._rx_dedup.get(frame.src) == frame.frame_id:
            self.counters.duplicates_rx += 1
            return
        self._rx_dedup[frame.src] = frame.frame_id
        self.counters.data_rx += 1
        if self.listener is not None:
            self.listener.mac_deliver(frame.payload, frame.src)

    def _handle_ack(self, frame: MacFrame) -> None:
        if (
            self._state is not DcfState.WAIT_ACK
            or self._current is None
            or frame.src != self._current.next_hop
        ):
            return
        self._ack_timer.stop()
        entry = self._current
        if self.listener is not None:
            self.listener.mac_tx_ok(entry.next_hop, entry.packet)
        self._finish_current(success=True)

    # -- timeouts / retries -------------------------------------------------------------------

    def _on_cts_timeout(self) -> None:
        if self._state is not DcfState.WAIT_CTS:
            return
        self._retries_short += 1
        self.counters.retries += 1
        if self._retries_short >= self.params.short_retry_limit:
            self._drop_current()
        else:
            self._retry()

    def _on_ack_timeout(self) -> None:
        if self._state is not DcfState.WAIT_ACK:
            return
        self._retries_long += 1
        self.counters.retries += 1
        if self._retries_long >= self.params.long_retry_limit:
            self._drop_current()
        else:
            self._retry()

    def _retry(self) -> None:
        self._cw = self.params.next_cw(self._cw)
        self._begin_contention(first_attempt=False)

    def _drop_current(self) -> None:
        self.counters.drops_retry_limit += 1
        entry = self._current
        # Gate before building the field dict (sim.trace discipline).
        if entry is not None and self.sim.trace.active and self.sim.trace.wants("mac.drop"):
            self.sim.emit(
                "mac", "mac.drop",
                node=self.address, dst=entry.next_hop,
                retries=self._retries_short + self._retries_long,
            )
        self._reset_tx_state()
        if entry is not None and self.listener is not None:
            self.listener.mac_link_failure(entry.next_hop, entry.packet)
        self._pull_next()

    def _finish_current(self, success: bool) -> None:
        self._reset_tx_state()
        self._pull_next()

    def _reset_tx_state(self) -> None:
        self._cts_timer.stop()
        self._ack_timer.stop()
        self._pause_countdown()
        if self._current is not None:
            self.service_meter.on_idle(self._sched.now)
        self._current = None
        self._retries_short = 0
        self._retries_long = 0
        self._cw = self.params.cw_min
        self._state = DcfState.IDLE

    # -- queue interaction ---------------------------------------------------------------------

    def _pull_next(self) -> None:
        if self._current is not None or self.queue is None:
            return
        entry = self.queue.dequeue()
        if entry is None:
            self._state = DcfState.IDLE
            return
        self._current = entry
        self.service_meter.on_busy(self._sched.now)
        self._frame_id += 1
        self._begin_contention(first_attempt=True)
