"""Recovering value-of-time information from operating data.

The operator observes tolls, lane speeds and the split of entering SOVs.
Under the user-equilibrium model each observation pins one point of the VOT
distribution function; under the logit model each interior observation gives
a point estimate of the common VOT.
"""

import math
from dataclasses import dataclass

__all__ = [
    "Observation",
    "EstimationError",
    "estimate_cdf_point",
    "estimate_logit_vot",
    "pool_cdf_points",
]


class EstimationError(ValueError):
    """The observation does not identify the requested quantity."""


@dataclass(frozen=True, slots=True)
class Observation:
    """One time-stamped operating record used for estimation."""

    time: float
    u: float  # toll [$/length]
    omega: float  # travel time gap [h/length]
    e2_tilde: float  # SOV initiation rate [veh/h]
    e21_tilde: float  # paying-SOV rate [veh/h]

    def __post_init__(self) -> None:
        if not 0.0 <= self.e21_tilde <= self.e2_tilde * (1 + 1e-12):
            raise ValueError("paying-SOV rate must lie in [0, SOV rate]")


def estimate_cdf_point(obs: Observation) -> tuple[float, float]:
    """CDF point (x, F(x)) implied by one observation under user equilibrium.

    The abscissa is the toll-to-gap ratio; the ordinate the non-paying share.
    """
    if not (math.isfinite(obs.omega) and obs.omega > 0.0):
        raise EstimationError("needs a positive, finite travel time gap")
    if obs.e2_tilde <= 0.0:
        raise EstimationError("needs a positive SOV rate")
    return obs.u / obs.omega, 1.0 - obs.e21_tilde / obs.e2_tilde


def estimate_logit_vot(obs: Observation, alpha_star: float = 1.0) -> float:
    """Common-VOT point estimate implied by one observation under logit choice.

    Measurement noise in the gap enters through a 1/omega factor, so
    estimates from near-equal lane speeds are the least reliable; no
    correction is applied here.
    """
    if alpha_star <= 0:
        raise ValueError("scale parameter must be positive")
    if not (math.isfinite(obs.omega) and obs.omega > 0.0):
        raise EstimationError("needs a positive, finite travel time gap")
    if not 0.0 < obs.e21_tilde < obs.e2_tilde:
        raise EstimationError("share at 0 or 1 does not identify the VOT")
    return (obs.u - math.log(obs.e2_tilde / obs.e21_tilde - 1.0) / alpha_star) / obs.omega


def pool_cdf_points(
    points: list[tuple[float, float]], num_bins: int = 40
) -> list[tuple[float, float, int]]:
    """Bin CDF points by abscissa and average within bins.

    Different time steps can disagree at nearby abscissas; averaging is the
    pragmatic reconciliation.  Returns (mean x, mean F, count) rows for
    non-empty bins, sorted by abscissa.
    """
    if num_bins < 1:
        raise ValueError("need at least one bin")
    if not points:
        return []
    xs = [x for x, _ in points]
    lo, hi = min(xs), max(xs)
    if hi == lo:
        mean = sum(f for _, f in points) / len(points)
        return [(lo, mean, len(points))]
    width = (hi - lo) / num_bins
    last = num_bins - 1
    # only the occupied bins are held, so memory follows the points, not num_bins
    bins: dict[int, list] = {}
    for x, f in points:
        i = int((x - lo) / width)
        acc = bins.setdefault(i if i < last else last, [0.0, 0.0, 0])
        acc[0] += x
        acc[1] += f
        acc[2] += 1
    return [(xs / n, fs / n, n) for _, (xs, fs, n) in sorted(bins.items())]
