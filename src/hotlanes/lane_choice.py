"""Lane choice models: which share of entering SOVs pays for the HOT lanes.

Three models are provided.  Under the deterministic user-equilibrium (UE)
models, ``ExponentialVot`` and ``UniformVot``, drivers with a value of time
above ``u / omega`` pay, so the paying share is the upper tail of the VOT
distribution.  Under the fixed-VOT logit model, ``LogitChoice``, the share
follows a logistic curve in the toll.  All are invertible in the toll, which
is what the estimation module exploits.  A model answers ``share(u, omega)``
and ``toll_line(p)``.  The toll that yields share ``p`` is affine in the gap,
``u = A * omega + B``; ``toll_line`` returns ``(A, B, dA/dp, dB/dp)``, which
is all the loop linearization needs.

The scenario step loop computes every model's share inline, with the
expressions of its ``share``, and accepts no other model.  ``share`` is the
reference the tests check the loop against; the analysis uses ``toll_line``.
"""

import math
from dataclasses import dataclass

__all__ = ["ExponentialVot", "UniformVot", "LogitChoice"]

_INF = float("inf")


def _check_finite(*values: float) -> None:
    if not all(math.isfinite(x) for x in values):
        raise ValueError("choice model parameters must be finite")


def _check_toll_gap(u: float, omega: float) -> None:
    """Raise unless the toll and the gap are non-negative numbers (the gap may be inf)."""
    if not u >= 0:
        raise ValueError(f"toll must be non-negative, got {u}")
    if not omega >= 0:
        raise ValueError(f"travel time gap must be non-negative, got {omega}")


def _vot_threshold(u: float, omega: float) -> float:
    """The VOT ``u / omega`` above which a driver pays, at the limits of the gap.

    An unbounded gap means the GP lanes are unusable, so the threshold is 0
    and everyone pays.  At zero gap a positive toll deters everyone (an
    infinite threshold); a zero toll leaves the threshold at 0 by continuity.
    """
    _check_toll_gap(u, omega)
    if omega == _INF:
        return 0.0
    if omega == 0.0:
        return _INF if u > 0.0 else 0.0
    return u / omega


def _check_target(p: float) -> None:
    if not 0.0 < p <= 1.0:
        raise ValueError("target share must be in (0, 1]; p = 0 needs an unbounded toll")


@dataclass(frozen=True, slots=True)
class ExponentialVot:
    """User-equilibrium choice over a negative exponential VOT with the given mean [$/h]."""

    mean: float = 50.0

    def __post_init__(self) -> None:
        _check_finite(self.mean)
        if self.mean <= 0:
            raise ValueError("mean VOT must be positive")

    def share(self, u: float, omega: float) -> float:
        """Paying share P(VOT > u / omega) = exp(-u / (omega * mean))."""
        return math.exp(-_vot_threshold(u, omega) / self.mean)

    def toll_line(self, p: float) -> tuple[float, float, float, float]:
        """``(A, B, dA/dp, dB/dp)`` of the toll ``A * omega + B`` that yields share ``p``.

        The toll is omega times the VOT with upper tail ``p``, so
        A = -mean ln p and B = 0.
        """
        _check_target(p)
        return -self.mean * math.log(p), 0.0, -self.mean / p, 0.0


@dataclass(frozen=True, slots=True)
class UniformVot:
    """User-equilibrium choice over a uniform VOT on [low, high] [$/h]; mainly for testing."""

    low: float = 0.0
    high: float = 100.0

    def __post_init__(self) -> None:
        _check_finite(self.low, self.high)
        if not 0.0 <= self.low < self.high:
            raise ValueError("need 0 <= low < high")

    def share(self, u: float, omega: float) -> float:
        """Paying share P(VOT > u / omega)."""
        pi = _vot_threshold(u, omega)
        if pi <= self.low:
            return 1.0
        if pi >= self.high:
            return 0.0
        return 1.0 - (pi - self.low) / (self.high - self.low)

    def toll_line(self, p: float) -> tuple[float, float, float, float]:
        """``(A, B, dA/dp, dB/dp)`` of the toll ``A * omega + B`` that yields share ``p``.

        The toll is omega times the VOT with upper tail ``p``, so
        A = low + (1 - p)(high - low) and B = 0.
        """
        _check_target(p)
        return self.low + (1.0 - p) * (self.high - self.low), 0.0, self.low - self.high, 0.0


@dataclass(frozen=True, slots=True)
class LogitChoice:
    """Fixed-VOT logit choice: common VOT [$/h] and scale [1/($/length)]."""

    pi_star: float = 50.0
    alpha_star: float = 1.0

    def __post_init__(self) -> None:
        _check_finite(self.pi_star, self.alpha_star)
        if self.alpha_star <= 0:
            raise ValueError("scale parameter must be positive")
        if self.pi_star < 0:
            raise ValueError("VOT cannot be negative")

    def share(self, u: float, omega: float) -> float:
        """Paying share 1 / (1 + exp(alpha * (u - pi * omega)))."""
        _check_toll_gap(u, omega)
        if omega == _INF:
            return 1.0
        x = self.alpha_star * (u - self.pi_star * omega)
        # guard exp overflow for extreme tolls
        if x > 700.0:
            return 0.0
        return 1.0 / (1.0 + math.exp(x))

    def toll_line(self, p: float) -> tuple[float, float, float, float]:
        """``(A, B, dA/dp, dB/dp)`` of the toll ``A * omega + B`` that yields share ``p``.

        A = pi* and B = ln(1/p - 1) / alpha*, so dB/dp = -1 / (alpha* p (1 - p)).
        The toll is negative when ``p`` exceeds the zero-toll share; clamping
        it at 0 is the pricing controller's job, not the choice model's.
        """
        if not 0.0 < p < 1.0:
            raise ValueError("target share must be in (0, 1); the toll is unbounded at 0 or 1")
        alpha = self.alpha_star
        return self.pi_star, math.log(1.0 / p - 1.0) / alpha, 0.0, -1.0 / (alpha * p * (1.0 - p))
