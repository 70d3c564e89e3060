"""Lane choice models: which share of entering SOVs pays for the HOT lanes.

Two models are provided.  Under the deterministic user-equilibrium model,
drivers with a value of time above ``u / omega`` pay, so the paying share is
the upper tail of the VOT distribution.  Under the fixed-VOT logit model the
share follows a logistic curve in the toll.  Both are invertible in the toll,
which is what the estimation module exploits.  A model answers ``share(u,
omega)`` and ``toll_line(p)``.  The toll that yields share ``p`` is affine in
the gap, ``u = A * omega + B``; ``toll_line`` returns ``(A, B, dA/dp,
dB/dp)``, which is all the loop linearization needs.

The scenario step loop specializes the two built-in models: it computes the
share of ``UeChoice`` with an ``ExponentialVot`` and of ``LogitChoice``
inline, with the expressions of their ``share``.  ``share`` stays the
reference for those, which the tests and the analysis use, and it is the
path for any other model.
"""

import math
from dataclasses import dataclass

__all__ = ["ExponentialVot", "UniformVot", "UeChoice", "LogitChoice"]

_INF = float("inf")


def _check_finite(*values: float) -> None:
    if not all(math.isfinite(x) for x in values):
        raise ValueError("choice model parameters must be finite")


def _check_toll_gap(u: float, omega: float) -> None:
    """Raise unless the toll and the gap are non-negative numbers (the gap may be inf).

    ``share`` calls this only when the check is about to fail, so the step
    loop's valid inputs pay for two comparisons and no call.
    """
    if not u >= 0:
        raise ValueError(f"toll must be non-negative, got {u}")
    if not omega >= 0:
        raise ValueError(f"travel time gap must be non-negative, got {omega}")


@dataclass(frozen=True, slots=True)
class ExponentialVot:
    """Negative exponential VOT with the given mean [$/h]."""

    mean: float = 50.0

    def __post_init__(self) -> None:
        _check_finite(self.mean)
        if self.mean <= 0:
            raise ValueError("mean VOT must be positive")

    def tail(self, pi: float) -> float:
        """P(VOT > pi)."""
        if pi <= 0:
            return 1.0
        return math.exp(-pi / self.mean)

    def tail_value(self, p: float) -> float:
        """Value z with upper-tail probability p in (0, 1]."""
        return -self.mean * math.log(p)

    def tail_value_slope(self, p: float) -> float:
        """dz/dp of :meth:`tail_value`."""
        return -self.mean / p


@dataclass(frozen=True, slots=True)
class UniformVot:
    """Uniform VOT on [low, high] [$/h]; mainly for testing."""

    low: float = 0.0
    high: float = 100.0

    def __post_init__(self) -> None:
        _check_finite(self.low, self.high)
        if not 0.0 <= self.low < self.high:
            raise ValueError("need 0 <= low < high")

    def tail(self, pi: float) -> float:
        """P(VOT > pi)."""
        if pi <= self.low:
            return 1.0
        if pi >= self.high:
            return 0.0
        return 1.0 - (pi - self.low) / (self.high - self.low)

    def tail_value(self, p: float) -> float:
        """Value z with upper-tail probability p in (0, 1]."""
        return self.low + (1.0 - p) * (self.high - self.low)

    def tail_value_slope(self, p: float) -> float:
        """dz/dp of :meth:`tail_value`."""
        return self.low - self.high


@dataclass(frozen=True, slots=True)
class UeChoice:
    """User-equilibrium choice: drivers whose VOT exceeds u / omega pay."""

    dist: ExponentialVot | UniformVot = ExponentialVot()

    def share(self, u: float, omega: float) -> float:
        """Paying share 1 - F(u / omega).

        An unbounded gap means the GP lanes are unusable, so everyone pays.
        At zero gap a positive toll deters everyone; a zero toll leaves the
        share at 1 - F(0) by continuity.
        """
        if not (u >= 0.0 and omega >= 0.0):
            _check_toll_gap(u, omega)
        if omega == _INF:
            return 1.0
        if omega == 0.0:
            return 0.0 if u > 0.0 else self.dist.tail(0.0)
        return self.dist.tail(u / omega)

    def toll_line(self, p: float) -> tuple[float, float, float, float]:
        """``(A, B, dA/dp, dB/dp)`` of the toll ``A * omega + B`` that yields share ``p``.

        The toll is omega * z(p), so A = z(p) and B = 0.
        """
        if not 0.0 < p <= 1.0:
            raise ValueError("target share must be in (0, 1]; p = 0 needs an unbounded toll")
        return self.dist.tail_value(p), 0.0, self.dist.tail_value_slope(p), 0.0


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
        if not (u >= 0.0 and omega >= 0.0):
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
