"""Recovering value-of-time information from operating data.

The operator observes tolls, lane speeds and the split of entering SOVs.
Under the user-equilibrium model each observation pins one point of the VOT
distribution function; under the logit model each interior observation gives
a point estimate of the common VOT.  Each estimator reads ``u``, ``omega``,
``e2_tilde`` and ``e21_tilde`` from one record, such as a
:class:`~hotlanes.scenario.SimulationRecord`, and raises a plain
``ValueError`` for a negative or non-finite toll, a non-finite SOV rate and
a paying-SOV rate outside [0, SOV rate].
"""

import math

__all__ = [
    "EstimationError",
    "estimate_cdf_point",
    "estimate_logit_vot",
    "pool_cdf_points",
]


class EstimationError(ValueError):
    """The record does not identify the requested quantity."""


def _check_record(r) -> None:
    """Raise ``ValueError`` for a record no run writes, :class:`EstimationError` without a gap."""
    if not 0.0 <= r.u < math.inf:
        raise ValueError(f"toll must be non-negative and finite, got {r.u}")
    if not math.isfinite(r.e2_tilde):
        raise ValueError(f"SOV rate must be finite, got {r.e2_tilde}")
    if not 0.0 <= r.e21_tilde <= r.e2_tilde * (1 + 1e-12):
        raise ValueError("paying-SOV rate must lie in [0, SOV rate]")
    if not 0.0 < r.omega < math.inf:
        raise EstimationError("needs a positive, finite travel time gap")


def estimate_cdf_point(r) -> tuple[float, float]:
    """CDF point (x, F(x)) implied by one record under user equilibrium.

    The abscissa is the toll-to-gap ratio; the ordinate the non-paying share.
    """
    _check_record(r)
    if r.e2_tilde <= 0.0:
        raise EstimationError("needs a positive SOV rate")
    x = r.u / r.omega
    if x == math.inf:
        raise EstimationError("toll-to-gap ratio overflows")
    return x, 1.0 - r.e21_tilde / r.e2_tilde


def estimate_logit_vot(r, alpha_star: float = 1.0) -> float:
    """Common-VOT point estimate implied by one record under logit choice.

    Measurement noise in the gap enters through a 1/omega factor, so
    estimates from near-equal lane speeds are the least reliable; no
    correction is applied here.
    """
    if not 0.0 < alpha_star < math.inf:
        raise ValueError(f"scale parameter must be positive and finite, got {alpha_star}")
    _check_record(r)
    if not 0.0 < r.e21_tilde < r.e2_tilde:
        raise EstimationError("share at 0 or 1 does not identify the VOT")
    vot = (r.u - math.log(r.e2_tilde / r.e21_tilde - 1.0) / alpha_star) / r.omega
    if not math.isfinite(vot):
        raise EstimationError("share too close to 0 or 1 to identify the VOT")
    return vot


def pool_cdf_points(
    points: list[tuple[float, float]], num_bins: int = 40
) -> list[tuple[float, float, int]]:
    """Bin CDF points by abscissa and average within bins.

    Different time steps can disagree at nearby abscissas; averaging is the
    pragmatic reconciliation.  Returns (mean x, mean F, count) rows for
    non-empty bins, sorted by abscissa.
    """
    if not (isinstance(num_bins, int) and num_bins >= 1):
        raise ValueError(f"the bin count must be an integer >= 1, got {num_bins!r}")
    if not points:
        return []
    xs = [x for x, _ in points]
    lo, hi = min(xs), max(xs)
    width = (hi - lo) / num_bins
    if width == 0.0:  # one abscissa, or a spread too small to split into bins
        mean = sum(f for _, f in points) / len(points)
        return [(lo, mean, len(points))]
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
