"""The shared wireless channel.

The channel owns the geometry: which radios hear which transmissions and
whether they can decode them.  On each transmission it fans the signal out to
every radio inside carrier-sense range, with per-link propagation delay, and
consults the :class:`~repro.phy.error_models.ErrorModel` at reception time
for random loss.

Neighbour sets are cached; topologies in the paper are static, but the cache
is invalidated automatically when radios are added or moved.

Hot path: :meth:`transmit` is called once per MAC frame (RTS/CTS/DATA/ACK),
and fans out two scheduler events per carrier-sense neighbour.  The fan-out
list per source is precomputed — bound ``signal_start``/``signal_end``
methods, the lossy-medium departure callable, propagation delay and rx power
per neighbour — so the per-frame work is one :class:`Signal` object and two
heap tuples per neighbour.  Sense-only neighbours (inside carrier-sense but
outside decode range) never consult the error model, and a ``NoError``
medium skips the departure trampoline entirely.

A frame therefore schedules ``2k + 1`` entries — its tx-end plus the ``k``
pairs — and the MAC adds none.  Each is a fire-and-forget heap tuple that
carries its call, ``(time, 0, seq, callback, arg)``:

* tx-end: ``(t, 0, seq, src.end_transmit, frame)`` — hands the frame back to
  the sender (``Radio.end_transmit(frame)`` → ``PhyListener.phy_tx_end``),
  which is the MAC's tx-done;
* arrival: ``(t, 0, seq, dst.signal_start, signal)``;
* departure: ``(t, 0, seq, dst.signal_end, signal)`` on a perfect medium and
  at sense-only neighbours (``corrupted_by_medium`` defaults to False), and
  ``(t, 0, seq, partial(self._depart, dst.signal_end), signal)`` at a
  decodable neighbour of a lossy medium — the partial is built once, with
  the fan-out cache, and ``_depart`` reads the frame size off
  ``signal.frame`` and draws at departure time.

One transmit path: :meth:`WirelessChannel.transmit` builds these tuples
while it walks the fan-out (seqs claimed up front with ``reserve_seqs``)
and hands all 2k+1 of them to one ``bulk_heap_insert`` call, skipping
:class:`~repro.sim.event.Event` construction — none of these events is ever
cancelled.
:meth:`WirelessChannel.transmit_reference` is the historical
one-``schedule()``-per-event implementation, kept as the oracle the
equivalence tests compare against
(``tests/props/test_lane_equivalence.py``): same timestamps (same
float grouping), same sequence-number order, same RNG draws.  Nothing
selects it at run time; a test reaches it by shadowing ``transmit``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..sim import units
from ..sim.scheduler import SchedulerError
from ..sim.simulator import Simulator
from .error_models import ErrorModel, NoError
from .frame_timing import PhyParams
from .position import Position
from .propagation import DiskPropagation
from .radio import Radio, Signal

#: One precomputed fan-out entry: (signal_start, signal_end, depart,
#: receivable, prop_delay, rx_power).  ``depart`` is the departure callable on
#: a lossy medium: ``partial(channel._depart, signal_end)`` at a decodable
#: neighbour, plain ``signal_end`` at a sense-only one.
FanoutEntry = Tuple[
    Callable[[Signal], None], Callable[..., None], Callable[[Signal], None],
    bool, float, float,
]


class WirelessChannel:
    """Broadcast medium connecting all registered radios."""

    def __init__(
        self,
        sim: Simulator,
        propagation: Optional[DiskPropagation] = None,
        phy: Optional[PhyParams] = None,
        error_model: Optional[ErrorModel] = None,
    ) -> None:
        self.sim = sim
        self.propagation = propagation or DiskPropagation()
        self.phy = phy or PhyParams()
        self.error_model = error_model or NoError()
        self._positions: Dict[Radio, Position] = {}
        # radio -> [(peer, receivable, prop_delay, rx_power)]
        self._neighbors: Optional[
            Dict[Radio, List[Tuple[Radio, bool, float, float]]]
        ] = None
        # Derived caches, invalidated together with ``_neighbors``.
        self._fanout: Optional[Dict[Radio, List[FanoutEntry]]] = None
        self._rx_neighbors: Optional[Dict[Radio, List[Radio]]] = None
        self._error_rng = sim.stream("phy.error")
        # Fault vetoes (node crashes / link blackouts).  They act as
        # topology filters inside the neighbour-cache build, so the per-frame
        # transmit hot path is untouched: fault transitions are rare events
        # that pay one cache rebuild each.
        self._down_nodes: Set[int] = set()
        self._blocked_links: Set[FrozenSet[int]] = set()
        #: Total number of frame transmissions started on this channel.
        self.transmissions = 0

    # -- topology ---------------------------------------------------------------

    def register(self, radio: Radio, position: Position) -> None:
        """Attach ``radio`` to the channel at ``position``."""
        self._positions[radio] = position
        self._invalidate()

    def move(self, radio: Radio, position: Position) -> None:
        """Relocate ``radio`` (invalidates the neighbour cache)."""
        if radio not in self._positions:
            raise KeyError(f"radio {radio.node_id} is not on this channel")
        self._positions[radio] = position
        self._invalidate()

    def _invalidate(self) -> None:
        self._neighbors = None
        self._fanout = None
        self._rx_neighbors = None

    # Residue: this method name has benchmarks/e2e as its only reader.
    def lane_counters(self) -> Dict[str, int]:
        """The run manifest's ``engine`` field: an environment fact, never
        part of the fingerprinted metrics snapshot."""
        return {
            "transmissions": self.transmissions,
            "numpy_fanout_frames": 0,  # residue: only benchmarks/e2e reads it
        }

    def position_of(self, radio: Radio) -> Position:
        return self._positions[radio]

    # -- fault vetoes -----------------------------------------------------------

    def set_node_down(self, node_id: int, down: bool) -> None:
        """Mark a crashed (or restarted) node; a down node neither radiates
        to nor hears any neighbour."""
        if down:
            self._down_nodes.add(node_id)
        else:
            self._down_nodes.discard(node_id)
        self._invalidate()

    def block_link(self, a: int, b: int) -> None:
        """Veto the ``a``–``b`` pair in both directions (blackout/partition)."""
        self._blocked_links.add(frozenset((a, b)))
        self._invalidate()

    def unblock_link(self, a: int, b: int) -> None:
        """Lift a link veto (healing is a no-op for an unblocked pair)."""
        self._blocked_links.discard(frozenset((a, b)))
        self._invalidate()

    def _vetoed(self, src: Radio, dst: Radio) -> bool:
        if not self._down_nodes and not self._blocked_links:
            return False
        if src.node_id in self._down_nodes or dst.node_id in self._down_nodes:
            return True
        return frozenset((src.node_id, dst.node_id)) in self._blocked_links

    def _neighbor_map(self) -> Dict[Radio, List[Tuple[Radio, bool, float, float]]]:
        if self._neighbors is None:
            table: Dict[Radio, List[Tuple[Radio, bool, float, float]]] = {}
            radios = list(self._positions)
            for src in radios:
                src_pos = self._positions[src]
                entries: List[Tuple[Radio, bool, float, float]] = []
                for dst in radios:
                    if dst is src:
                        continue
                    if self._vetoed(src, dst):
                        continue
                    dst_pos = self._positions[dst]
                    if not self.propagation.can_sense(src_pos, dst_pos):
                        continue
                    distance = src_pos.distance_to(dst_pos)
                    receivable = self.propagation.can_receive(src_pos, dst_pos)
                    delay = units.propagation_delay(distance)
                    power = self.propagation.rx_power(distance)
                    entries.append((dst, receivable, delay, power))
                table[src] = entries
            self._neighbors = table
        return self._neighbors

    def _fanout_map(self) -> Dict[Radio, List[FanoutEntry]]:
        if self._fanout is None:
            fanout: Dict[Radio, List[FanoutEntry]] = {}
            for src, entries in self._neighbor_map().items():
                # transmit() inserts its events without per-item clock checks
                # (EventScheduler.bulk_heap_insert); that is sound only
                # because every fan-out timestamp is ``now`` plus non-negative
                # terms.  Validate the delay half of that guarantee here,
                # once per build.
                if any(delay < 0 for _, _, delay, _ in entries):
                    raise ValueError("fan-out propagation delays must be >= 0")
                fanout[src] = [
                    (
                        dst.signal_start, dst.signal_end,
                        partial(self._depart, dst.signal_end)
                        if receivable else dst.signal_end,
                        receivable, delay, power,
                    )
                    for dst, receivable, delay, power in entries
                ]
            self._fanout = fanout
        return self._fanout

    def neighbors_of(self, radio: Radio) -> List[Radio]:
        """Radios within decode range of ``radio`` (static disk model).

        The list is cached per radio until the topology changes; treat it as
        read-only.
        """
        if self._rx_neighbors is None:
            self._rx_neighbors = {
                src: [dst for dst, receivable, _, _ in entries if receivable]
                for src, entries in self._neighbor_map().items()
            }
        return self._rx_neighbors[radio]

    # -- transmission -------------------------------------------------------------

    def transmit(self, src: Radio, frame: object, duration: float) -> None:
        """Put ``frame`` on the air from ``src`` for ``duration`` seconds.

        The caller (MAC) has already decided the medium is usable; the channel
        faithfully models the consequences if it was wrong (collisions).

        Schedules tx_end first, then per neighbour an arrival/departure pair
        in fan-out order (the seq order :meth:`transmit_reference` pins).

        The tx-end entry carries the frame: ``src.end_transmit(frame)`` is
        also the sending MAC's tx-done (``PhyListener.phy_tx_end``), so a
        frame costs these ``2k + 1`` heap entries and nothing else.  It holds
        the *first* seq of the frame's block where a separate MAC event would
        hold the first seq *after* it, both at ``now + duration``; only a
        block member with that exact timestamp could sort between the two —
        a departure at a neighbour with propagation delay 0.0, i.e. two
        radios on one position.  No builder, scenario, test or bench
        co-locates radios (``coords_st`` is ``unique=True``), so there is
        deliberately no second path for that case.
        """
        self.transmissions += 1
        src.begin_transmit(duration)
        # The cache lookup _fanout_map() makes, without its call.
        fanout = (self._fanout or self._fanout_map())[src]
        sched = self.sim.scheduler
        now = sched.now
        if duration < 0:
            # Same failure a schedule() call raises; checked here because
            # bulk_heap_insert trusts its times.
            raise SchedulerError(
                f"cannot schedule event at {now + duration:.9f}, "
                f"now is {now:.9f}"
            )
        # Two seq reservations, not one: tx_end's seq is assigned before the
        # trace emit and the neighbour seqs after it, so a trace sink that
        # schedules during the emit sees the seq interleaving
        # transmit_reference gives it.
        items = [
            (now + duration, 0, sched.reserve_seqs(1), src.end_transmit, frame)
        ]
        # ``active`` is a plain attribute: an untraced run pays no call here.
        trace = self.sim.trace
        if trace.active and trace.wants("phy.tx"):
            self.sim.emit(
                "phy", "phy.tx", src=src.node_id, duration=duration,
                neighbors=len(fanout),
            )
        lossy = type(self.error_model) is not NoError
        append = items.append
        seq = sched.reserve_seqs(2 * len(fanout)) - 1
        # Timestamp arithmetic must group exactly as the historical
        # per-neighbour code did — float addition is not associative, and a
        # 1-ULP shift here reorders events and breaks golden-trace replay:
        # arrival at now + delay, departure at now + (delay + duration),
        # signal end marker at (now + delay) + duration.
        for sig_start, sig_end, depart, receivable, delay, power in fanout:
            t_start = now + delay
            signal = Signal(frame, receivable, t_start + duration, power)
            seq += 1
            append((t_start, 0, seq, sig_start, signal))
            seq += 1
            # A perfect medium (and, inside ``depart``, a sense-only
            # neighbour) never consults the error model: the end-of-signal
            # is delivered directly.
            append((
                now + (delay + duration), 0, seq,
                depart if lossy else sig_end, signal,
            ))
        sched.bulk_heap_insert(items)

    def transmit_reference(
        self, src: Radio, frame: object, duration: float
    ) -> None:
        """:meth:`transmit` as one ``schedule()`` call per event.

        The reference implementation the equivalence tests compare the
        production path against: same counters, same trace emit, same
        scheduling order, same float grouping.  Not selectable at run time.
        """
        self.transmissions += 1
        src.begin_transmit(duration)
        fanout = self._fanout_map()[src]
        sched = self.sim.scheduler
        schedule = sched.schedule
        now = sched.now
        schedule(now + duration, src.end_transmit, frame, name="phy.tx_end")
        if self.sim.trace.wants("phy.tx"):
            self.sim.emit(
                "phy", "phy.tx", src=src.node_id, duration=duration,
                neighbors=len(fanout),
            )
        no_error = type(self.error_model) is NoError
        for sig_start, sig_end, _, receivable, delay, power in fanout:
            t_start = now + delay
            signal = Signal(frame, receivable, t_start + duration, power=power)
            schedule(t_start, sig_start, signal, name="phy.sig_start")
            if receivable and not no_error:
                schedule(
                    now + (delay + duration), self._depart, sig_end, signal,
                    name="phy.sig_end",
                )
            else:
                schedule(
                    now + (delay + duration), sig_end, signal, False,
                    name="phy.sig_end",
                )

    def _depart(
        self, sig_end: Callable[[Signal, bool], None], signal: Signal
    ) -> None:
        """Departure at a decodable neighbour of a lossy medium: draw the
        medium's verdict now (unless a collision already ruined the frame),
        then end the signal with it."""
        corrupted_by_medium = False
        if not signal.corrupted:
            corrupted_by_medium = self.error_model.frame_corrupted(
                self._error_rng, getattr(signal.frame, "size_bytes", 0),
                self.sim.scheduler.now,
            )
        sig_end(signal, corrupted_by_medium)
