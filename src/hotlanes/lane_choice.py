"""Lane choice models: which share of entering SOVs pays for the HOT lanes.

Two models are provided.  Under the deterministic user-equilibrium model,
drivers with a value of time above ``u / omega`` pay, so the paying share is
the upper tail of the VOT distribution.  Under the fixed-VOT logit model the
share follows a logistic curve in the toll.  Both are invertible in the toll,
which is what the estimation module exploits.
"""

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

__all__ = [
    "VotDistribution",
    "ExponentialVot",
    "UniformVot",
    "LogitParams",
    "ue_share",
    "ue_inverse_toll",
    "logit_share",
    "logit_inverse_toll",
    "UeChoice",
    "LogitChoice",
]


class VotDistribution(ABC):
    """Value-of-time distribution over drivers [$/h]."""

    @abstractmethod
    def cdf(self, pi: float) -> float:
        """P(VOT <= pi)."""

    @abstractmethod
    def pdf(self, pi: float) -> float:
        """Density at pi."""

    @abstractmethod
    def tail_value(self, p: float) -> float:
        """Value z with upper-tail probability p, i.e. p = 1 - cdf(z)."""

    def tail(self, pi: float) -> float:
        """P(VOT > pi); override when 1 - cdf loses precision in the tail."""
        return 1.0 - self.cdf(pi)


@dataclass(frozen=True, slots=True)
class ExponentialVot(VotDistribution):
    """Negative exponential VOT with the given mean [$/h]."""

    mean: float = 50.0

    def __post_init__(self) -> None:
        if self.mean <= 0:
            raise ValueError("mean VOT must be positive")

    def cdf(self, pi: float) -> float:
        if pi <= 0:
            return 0.0
        return 1.0 - math.exp(-pi / self.mean)

    def pdf(self, pi: float) -> float:
        if pi < 0:
            return 0.0
        return math.exp(-pi / self.mean) / self.mean

    def tail_value(self, p: float) -> float:
        if not 0.0 < p <= 1.0:
            raise ValueError("tail probability must be in (0, 1]")
        return -self.mean * math.log(p)

    def tail(self, pi: float) -> float:
        if pi <= 0:
            return 1.0
        return math.exp(-pi / self.mean)


@dataclass(frozen=True, slots=True)
class UniformVot(VotDistribution):
    """Uniform VOT on [low, high]; mainly for testing."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.low < self.high:
            raise ValueError("need 0 <= low < high")

    def cdf(self, pi: float) -> float:
        if pi <= self.low:
            return 0.0
        if pi >= self.high:
            return 1.0
        return (pi - self.low) / (self.high - self.low)

    def pdf(self, pi: float) -> float:
        return 1.0 / (self.high - self.low) if self.low <= pi <= self.high else 0.0

    def tail_value(self, p: float) -> float:
        if not 0.0 < p <= 1.0:
            raise ValueError("tail probability must be in (0, 1]")
        return self.low + (1.0 - p) * (self.high - self.low)


@dataclass(frozen=True, slots=True)
class LogitParams:
    """Fixed common VOT [$/h] and logit scale [1/($/length)]."""

    pi_star: float = 50.0
    alpha_star: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha_star <= 0:
            raise ValueError("scale parameter must be positive")
        if self.pi_star < 0:
            raise ValueError("VOT cannot be negative")


def _check_toll_gap(u: float, omega: float) -> None:
    if u < 0:
        raise ValueError("toll cannot be negative")
    if omega < 0:
        raise ValueError("travel time gap cannot be negative")


def ue_share(u: float, omega: float, dist: VotDistribution) -> float:
    """Paying share under user equilibrium: 1 - F(u / omega).

    An unbounded gap means the GP lanes are unusable, so everyone pays.
    At zero gap a positive toll deters everyone; a zero toll leaves the
    share at 1 - F(0) by continuity.
    """
    _check_toll_gap(u, omega if math.isfinite(omega) else 0.0)
    if math.isinf(omega):
        return 1.0
    if omega == 0.0:
        return 0.0 if u > 0.0 else dist.tail(0.0)
    return dist.tail(u / omega)


def ue_inverse_toll(p: float, omega: float, dist: VotDistribution) -> float:
    """Toll that yields paying share ``p`` under user equilibrium: omega * z(p)."""
    if not 0.0 < p <= 1.0:
        raise ValueError("target share must be in (0, 1]; p = 0 needs an unbounded toll")
    if omega < 0:
        raise ValueError("travel time gap cannot be negative")
    return omega * dist.tail_value(p)


def logit_share(u: float, omega: float, params: LogitParams) -> float:
    """Paying share under the fixed-VOT logit model."""
    _check_toll_gap(u, omega if math.isfinite(omega) else 0.0)
    if math.isinf(omega):
        return 1.0
    x = params.alpha_star * (u - params.pi_star * omega)
    # guard exp overflow for extreme tolls
    if x > 700.0:
        return 0.0
    return 1.0 / (1.0 + math.exp(x))


def logit_inverse_toll(p: float, omega: float, params: LogitParams) -> float:
    """Toll that yields paying share ``p`` under the logit model.

    Returns the raw inverse, which is negative when the share target exceeds
    the zero-toll share; clamping to a non-negative toll is the pricing
    controller's job, not the choice model's.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("target share must be in (0, 1); the toll is unbounded at 0 or 1")
    if omega < 0:
        raise ValueError("travel time gap cannot be negative")
    return omega * params.pi_star + math.log(1.0 / p - 1.0) / params.alpha_star


class UeChoice:
    """User-equilibrium choice bound to a VOT distribution."""

    def __init__(self, dist: VotDistribution):
        self.dist = dist

    def share(self, u: float, omega: float) -> float:
        return ue_share(u, omega, self.dist)

    def inverse_toll(self, p: float, omega: float) -> float:
        return ue_inverse_toll(p, omega, self.dist)


class LogitChoice:
    """Logit choice bound to fixed-VOT parameters."""

    def __init__(self, params: LogitParams):
        self.params = params

    def share(self, u: float, omega: float) -> float:
        return logit_share(u, omega, self.params)

    def inverse_toll(self, p: float, omega: float) -> float:
        return logit_inverse_toll(p, omega, self.params)
