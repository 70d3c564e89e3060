"""Two-bathtub trip-flow dynamics for a managed-lane corridor.

Each lane group (HOT and GP) is an aggregate queue of active trips.  Trips
enter at an exogenous initiation rate and complete at a rate set by the mean
remaining trip distance and the current speed from the fundamental diagram.
The remaining-distance distribution is negative exponential, so the ready-to-
exit share of active trips is ``delta / D`` at all times.
"""

import math
from dataclasses import dataclass, replace

from .nfd import FdParams, critical_density, speed

__all__ = [
    "BathtubState",
    "CorridorState",
    "Inflows",
    "SaturationStats",
    "HotGridlockError",
    "density",
    "completion_rate",
    "euler_update",
    "exit_rate",
    "excess_density",
    "residual_service_rate",
    "travel_time_gap",
    "jam_trip_cap",
    "step",
]


class HotGridlockError(RuntimeError):
    """Raised when the managed lanes reach zero speed; pricing cannot operate."""


@dataclass(frozen=True, slots=True)
class BathtubState:
    """Active trips and geometry of one lane group.

    Attributes:
        delta: number of active trips [veh].
        num_lanes: lane count of the group.
        corridor_length: corridor length [length].
        mean_remaining_distance: mean remaining trip distance [length].
    """

    delta: float
    num_lanes: float
    corridor_length: float
    mean_remaining_distance: float

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise ValueError("active trip count cannot be negative")
        if self.num_lanes < 1:
            raise ValueError("need at least one lane")
        if self.corridor_length <= 0 or self.mean_remaining_distance <= 0:
            raise ValueError("corridor length and mean trip distance must be positive")

    @property
    def lane_length(self) -> float:
        """Total lane-length of the group [length]."""
        return self.num_lanes * self.corridor_length


@dataclass(frozen=True, slots=True)
class CorridorState:
    """Both bathtubs plus the simulation clock."""

    hot: BathtubState
    gp: BathtubState
    time: float = 0.0

    def __post_init__(self) -> None:
        if self.hot.corridor_length != self.gp.corridor_length:
            raise ValueError("lane groups must share the corridor length")
        if self.hot.mean_remaining_distance != self.gp.mean_remaining_distance:
            raise ValueError("lane groups must share the mean trip distance")


@dataclass(frozen=True, slots=True)
class Inflows:
    """Trip initiation rates for one step [veh/h].

    ``e21_tilde`` is the paying-SOV rate; it joins the HOT inflow and leaves
    the GP inflow.
    """

    e1_tilde: float
    e2_tilde: float
    e21_tilde: float

    def __post_init__(self) -> None:
        if min(self.e1_tilde, self.e2_tilde, self.e21_tilde) < 0:
            raise ValueError("inflow rates cannot be negative")
        if self.e21_tilde > self.e2_tilde * (1 + 1e-12):
            raise ValueError("paying-SOV rate cannot exceed the SOV rate")

    @property
    def hot_inflow(self) -> float:
        return self.e1_tilde + self.e21_tilde

    @property
    def gp_inflow(self) -> float:
        return self.e2_tilde - self.e21_tilde


@dataclass(slots=True)
class SaturationStats:
    """Counts of silent clamps applied during stepping."""

    hot_clamp_steps: int = 0
    gp_clamp_steps: int = 0
    hot_dropped: float = 0.0  # veh denied entry at the jam cap
    gp_dropped: float = 0.0

    @property
    def any_clamped(self) -> bool:
        return self.hot_clamp_steps > 0 or self.gp_clamp_steps > 0


def density(state: BathtubState) -> float:
    """Per-lane density delta / (lanes * corridor length)."""
    return state.delta / state.lane_length


def completion_rate(delta: float, v: float, mean_remaining_distance: float) -> float:
    """Trip completion rate (delta / D) * v [veh/h] of ``delta`` trips at speed ``v``.

    This differs from the internal flow rho * V(rho): completions scale with
    the count of trips about to finish, not with vehicles passing a point.
    """
    if delta == 0.0:
        return 0.0
    return delta / mean_remaining_distance * v


def exit_rate(state: BathtubState, fd: FdParams) -> float:
    """Trip completion rate of a lane group at its diagram speed [veh/h]."""
    return completion_rate(state.delta, speed(fd, density(state)), state.mean_remaining_distance)


def excess_density(state: BathtubState, fd: FdParams) -> float:
    """Per-lane density above the critical density; negative when under-critical."""
    return density(state) - critical_density(fd)


def residual_service_rate(state: BathtubState, fd: FdParams, e1: float) -> float:
    """Completion rate minus total inflow [veh/h].

    Positive values mean the lane group can absorb more inflow without
    growing its queue.
    """
    if e1 < 0:
        raise ValueError("inflow cannot be negative")
    return exit_rate(state, fd) - e1


def travel_time_gap(v1: float, v2: float) -> float:
    """Per-unit-distance travel time difference 1/v2 - 1/v1 [h/length].

    Returns ``math.inf`` when the GP lanes are at zero speed.  Zero speed in
    the HOT lanes is an operational failure and raises.
    """
    if v1 <= 0.0:
        raise HotGridlockError("managed lanes at zero speed")
    if v2 < 0.0:
        raise ValueError("speed cannot be negative")
    if v2 == 0.0:
        return math.inf
    return 1.0 / v2 - 1.0 / v1


def jam_trip_cap(state: BathtubState, fd: FdParams) -> float:
    """Largest active-trip count the group can hold.

    With a flow floor the speed never reaches zero and the queue is
    unbounded; without one, jam density is absorbing and caps the count.
    """
    if fd.c > 0.0:
        return math.inf
    return fd.rho_j * state.lane_length


def euler_update(
    delta: float, inflow: float, outflow: float, cap: float, dt: float
) -> tuple[float, float, bool]:
    """One explicit-Euler update of an active-trip count, kept in [0, cap].

    Returns (new count, vehicles dropped at the cap, clamped?).
    """
    raw = delta + dt * (inflow - outflow)
    if raw < 0.0:
        return 0.0, 0.0, True
    if raw > cap:
        return cap, raw - cap, True
    return raw, 0.0, False


def _step_one(
    state: BathtubState, fd: FdParams, inflow: float, dt: float
) -> tuple[BathtubState, float, bool]:
    """Euler-update one bathtub; returns (state, vehicles dropped, clamped?)."""
    new, dropped, clamped = euler_update(
        state.delta, inflow, exit_rate(state, fd), jam_trip_cap(state, fd), dt
    )
    return replace(state, delta=new), dropped, clamped


def step(
    corridor: CorridorState,
    fd_hot: FdParams,
    fd_gp: FdParams,
    inflows: Inflows,
    dt: float,
    stats: SaturationStats | None = None,
) -> CorridorState:
    """Advance both bathtubs one explicit-Euler step of length ``dt`` [h]."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    hot, hot_drop, hot_cl = _step_one(corridor.hot, fd_hot, inflows.hot_inflow, dt)
    gp, gp_drop, gp_cl = _step_one(corridor.gp, fd_gp, inflows.gp_inflow, dt)
    if stats is not None:
        stats.hot_clamp_steps += hot_cl
        stats.gp_clamp_steps += gp_cl
        stats.hot_dropped += hot_drop
        stats.gp_dropped += gp_drop
    return CorridorState(hot=hot, gp=gp, time=corridor.time + dt)
