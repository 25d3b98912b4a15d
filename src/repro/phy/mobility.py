"""Node mobility (the paper's §6 future work: "support of mobility").

The paper's own evaluation is static, but its problem statement leans on
mobility-induced route failures, so the library ships the canonical MANET
model: **random waypoint**.  Each node repeatedly picks a uniform random
destination in the area, moves toward it at a uniform random speed, pauses,
and repeats.  Positions advance in discrete ticks (the channel's neighbour
cache is rebuilt per tick), which is the standard discrete-event treatment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..sim.simulator import Simulator
from ..sim.timer import PeriodicTimer
from .channel import WirelessChannel
from .position import Position
from .radio import Radio


@dataclass(frozen=True)
class Area:
    """Axis-aligned rectangle nodes roam inside (metres)."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError(f"degenerate area {self}")

    def contains(self, position: Position, slack: float = 1e-6) -> bool:
        return (
            self.x_min - slack <= position.x <= self.x_max + slack
            and self.y_min - slack <= position.y <= self.y_max + slack
        )


@dataclass
class _WaypointState:
    destination: Position
    speed: float
    pause_until: float = 0.0


class RandomWaypointMobility:
    """Random-waypoint movement for a set of radios on one channel."""

    def __init__(
        self,
        sim: Simulator,
        channel: WirelessChannel,
        radios: Iterable[Radio],
        area: Area,
        speed_range: Tuple[float, float] = (1.0, 5.0),
        pause_time: float = 2.0,
        tick_interval: float = 0.5,
    ) -> None:
        lo, hi = speed_range
        if not 0 < lo <= hi:
            raise ValueError(f"need 0 < min speed <= max speed, got {speed_range}")
        if tick_interval <= 0:
            raise ValueError(f"tick_interval must be positive, got {tick_interval}")
        if pause_time < 0:
            raise ValueError(f"pause_time must be non-negative, got {pause_time}")
        self.sim = sim
        self.channel = channel
        self.radios: List[Radio] = list(radios)
        self.area = area
        self.speed_range = speed_range
        self.pause_time = pause_time
        self.tick_interval = tick_interval
        self._rng = sim.stream("mobility")
        self._states: Dict[Radio, _WaypointState] = {}
        self._timer = PeriodicTimer(sim, tick_interval, self._tick, name="mobility")
        self.ticks = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "RandomWaypointMobility":
        """Begin moving; each radio draws its first waypoint immediately."""
        for radio in self.radios:
            self._states[radio] = self._new_leg()
        self._timer.start()
        return self

    def stop(self) -> None:
        self._timer.stop()

    # -- movement ----------------------------------------------------------------

    def _new_leg(self) -> _WaypointState:
        destination = Position(
            self._rng.uniform(self.area.x_min, self.area.x_max),
            self._rng.uniform(self.area.y_min, self.area.y_max),
        )
        speed = self._rng.uniform(*self.speed_range)
        return _WaypointState(destination=destination, speed=speed)

    def _tick(self) -> None:
        self.ticks += 1
        now = self.sim.now
        for radio in self.radios:
            state = self._states[radio]
            if now < state.pause_until:
                continue
            current = self.channel.position_of(radio)
            remaining = current.distance_to(state.destination)
            step = state.speed * self.tick_interval
            if remaining <= step:
                # Arrive, pause, and plan the next leg.
                self.channel.move(radio, state.destination)
                fresh = self._new_leg()
                fresh.pause_until = now + self.pause_time
                self._states[radio] = fresh
                continue
            fraction = step / remaining
            self.channel.move(
                radio,
                Position(
                    current.x + (state.destination.x - current.x) * fraction,
                    current.y + (state.destination.y - current.y) * fraction,
                ),
            )
