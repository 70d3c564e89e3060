"""Two-bathtub trip-flow dynamics for a managed-lane corridor.

Each lane group (HOT and GP) is an aggregate queue of active trips.  Trips
enter at an exogenous initiation rate and complete at a rate set by the mean
remaining trip distance and the current speed from the fundamental diagram.
The remaining-distance distribution is negative exponential, so the ready-to-
exit share of active trips is ``delta / D`` at all times, and a group
completes trips at ``delta / D * v``.  This differs from the internal flow
rho * V(rho): completions scale with the count of trips about to finish, not
with vehicles passing a point.  The Euler step, with the speeds and the
travel-time gap it needs, is in the scenario step loop; this module keeps
its clamp counters, the gridlock error and the jam cap.
"""

import math
from dataclasses import dataclass

from .nfd import FdParams

__all__ = [
    "SaturationStats",
    "HotGridlockError",
    "jam_trip_cap",
]


class HotGridlockError(RuntimeError):
    """The managed lanes' speed is 0 or has no finite reciprocal; pricing cannot operate."""


@dataclass(slots=True)
class SaturationStats:
    """Counts of silent clamps applied during stepping."""

    hot_clamp_steps: int = 0  # steps clamped at 0; a HOT count past its jam cap is the gridlock
    gp_clamp_steps: int = 0  # steps clamped at 0 or at the jam cap
    hot_dropped: float = 0.0  # always 0: the HOT count is never clamped at its jam cap
    gp_dropped: float = 0.0  # veh denied entry at the GP jam cap

    @property
    def any_clamped(self) -> bool:
        return self.hot_clamp_steps > 0 or self.gp_clamp_steps > 0


def jam_trip_cap(fd: FdParams, lane_length: float) -> float:
    """Largest active-trip count a group with total lane-length ``lane_length`` can hold.

    With a flow floor the speed never reaches zero and the queue is unbounded;
    without one the GP count is clamped at the cap, and a HOT count past it is a gridlock.
    """
    if fd.c > 0.0:
        return math.inf
    return fd.rho_j * lane_length
