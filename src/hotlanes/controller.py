"""Feedback pricing law for the managed lanes.

The distance-based toll is ``u = a * omega + b`` where ``a`` is an hourly
price and ``b`` a distance price.  Both coefficients are driven by integral
controllers on the two state errors: excess density (price up when the HOT
lanes run over-critical) and residual service rate (price down when unused
service remains).  The reference is (0, 0).
"""

from dataclasses import dataclass
import math

__all__ = ["ControllerState", "posted_toll", "integrate"]


@dataclass(frozen=True, slots=True)
class ControllerState:
    """Toll coefficients and integral gains.

    Gains must all be positive for the price to move in the corrective
    direction in every phase.  ``toll_ceiling`` is the posted toll when the
    GP lanes are fully jammed and the gap is unbounded.
    """

    a: float = 0.0  # [$/h]
    b: float = 0.0  # [$/length]
    k1: float = 8.0  # [$ length/veh/h^2]
    k2: float = 5.0  # [$/h/veh]
    k3: float = 8.0  # [$/h/veh]
    k4: float = 6.0  # [$/veh/length]
    toll_ceiling: float = 1000.0  # [$/length]

    def __post_init__(self) -> None:
        values = (self.a, self.b, self.k1, self.k2, self.k3, self.k4, self.toll_ceiling)
        if not all(math.isfinite(x) for x in values):
            raise ValueError("controller coefficients, gains and toll ceiling must be finite")
        if min(self.k1, self.k2, self.k3, self.k4) <= 0:
            raise ValueError("all controller gains must be positive")
        if self.toll_ceiling <= 0:
            raise ValueError("toll ceiling must be positive")


def posted_toll(a: float, b: float, omega: float, ceiling: float) -> float:
    """Toll ``a * omega + b`` clamped to be non-negative; ``ceiling`` at an unbounded gap."""
    if omega < 0:
        raise ValueError("travel time gap cannot be negative")
    if math.isinf(omega):
        return ceiling
    return max(0.0, a * omega + b)


def integrate(
    a: float, b: float, lam: float, xi: float, dt: float,
    k1: float, k2: float, k3: float, k4: float,
) -> tuple[float, float]:
    """One explicit-Euler step of the coefficient ODEs; returns the new (a, b), unclamped.

    Both coefficients integrate the same ``lam`` and ``xi``.  An unclamped
    plant step moves the HOT-lane trips ``delta1`` by exactly ``-dt * xi``,
    so ``k3*a - k1*b + (k1*k4 - k2*k3)*delta1`` is conserved for any gains,
    up to rounding.  This holds while the controller ticks every step
    (``decimation = 1``) and ``delta1`` is not clamped.
    """
    return a + dt * (k1 * lam - k2 * xi), b + dt * (k3 * lam - k4 * xi)
