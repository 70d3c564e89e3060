"""Feedback pricing law for the managed lanes.

The distance-based toll is ``u = a * omega + b`` where ``a`` is an hourly
price and ``b`` a distance price.  Both coefficients are driven by integral
controllers on the two state errors: excess density (price up when the HOT
lanes run over-critical) and residual service rate (price down when unused
service remains).  The reference is (0, 0).  The toll is clamped at 0 and
posts ``toll_ceiling`` at an unbounded gap.  The controller ticks every
``decimation`` Euler steps and holds the toll and the coefficients between
ticks; the scenario step loop posts the toll and updates the coefficients.
"""

from dataclasses import dataclass
import math

__all__ = ["ControllerState"]


@dataclass(frozen=True, slots=True)
class ControllerState:
    """Toll coefficients, integral gains, toll ceiling and tick period.

    Gains must all be positive for the price to move in the corrective
    direction in every phase.  ``toll_ceiling`` is the posted toll when the
    GP lanes are fully jammed and the gap is unbounded.  ``decimation`` is the
    number of Euler steps per controller tick.
    """

    a: float = 0.0  # [$/h]
    b: float = 0.0  # [$/length]
    k1: float = 8.0  # [$ length/veh/h^2]
    k2: float = 5.0  # [$/h/veh]
    k3: float = 8.0  # [$/h/veh]
    k4: float = 6.0  # [$/veh/length]
    toll_ceiling: float = 1000.0  # [$/length]
    decimation: int = 1  # [steps per tick]

    def __post_init__(self) -> None:
        values = (self.a, self.b, self.k1, self.k2, self.k3, self.k4, self.toll_ceiling)
        if not all(math.isfinite(x) for x in values):
            raise ValueError("controller coefficients, gains and toll ceiling must be finite")
        if min(self.k1, self.k2, self.k3, self.k4) <= 0:
            raise ValueError("all controller gains must be positive")
        if self.toll_ceiling <= 0:
            raise ValueError("toll ceiling must be positive")
        # the loop ticks when the step index equals the next tick, so a fractional
        # decimation would tick once and freeze the coefficients; NaN passes "< 1"
        if not (isinstance(self.decimation, int) and self.decimation >= 1):
            raise ValueError(f"control decimation must be an integer >= 1, got {self.decimation!r}")
