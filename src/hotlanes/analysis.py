"""Closed-form predictions and stability checks for the closed loop.

Under constant demand that overloads the corridor, the controlled system
settles at a constant paying share while the GP queue keeps growing: first
exponentially on the congested branch of the triangular diagram, then (with a
flow floor) linearly.  This module provides those closed forms, the
linearized 2x2 loop around the operating point, its eigenvalues, and a
brute-force-checkable characterization of the split of vehicles that
maximizes corridor outflow.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .nfd import capacity, critical_density, flow, flow_slope

__all__ = [
    "A1ViolationError",
    "EquilibriumPrediction",
    "LinearizedSystem",
    "MaxOutflowAnalysis",
    "triangular_growth",
    "max_outflow_cases",
    "loop_matrix",
    "constant_equilibrium",
]


class A1ViolationError(ValueError):
    """The demand pattern does not satisfy the overload assumptions."""


def triangular_growth(config, delta2_0: float, t: float) -> float:
    """Closed-form GP active trips at time t on the congested triangular branch.

    With e2, w, rho_j and L2 from the GP side of ``config`` and p0 from
    :func:`constant_equilibrium`, solves delta2' = e2 (1 - p0) - (w / D)(rho_j
    L2 - delta2) from the initial value ``delta2_0``; callers should cap the
    result at ``rho_j * L2`` since jam density is absorbing.  Raises as
    :func:`constant_equilibrium` does.
    """
    p0 = constant_equilibrium(config).p0
    w, rho_j = config.fd_gp.w, config.fd_gp.rho_j
    D = config.mean_trip_distance
    jam = rho_j * config.gp_lanes * config.corridor_length
    drain = D * config.demand.sov_rate * (1.0 - p0) / w
    return (delta2_0 + drain - jam) * math.exp(w * t / D) - drain + jam


class EquilibriumPrediction(NamedTuple):
    """Operating point under constant overload demand.

    ``omega0``/``omega1`` describe the travel-time-gap line omega(t) =
    omega0 t + omega1 of the flow-floor regime, and ``delta2_rate`` the GP
    trip count's growth on it.
    """

    p0: float
    omega0: float  # gap growth rate [h/length per h]
    omega1: float  # gap intercept [h/length]
    delta2_rate: float  # GP active-trip growth rate on the floor [veh/h]
    regime: str  # "exponential" (no floor) or "linear" (flow floor)


@dataclass(frozen=True, slots=True)
class LinearizedSystem:
    """Linearized (xi, lambda) dynamics around the operating point.

    The state is x = (residual service rate, excess density); the matrix is
    [[(J - K2 L1)/(L1 H), K1 / H], [-1/L1, 0]].  Raises ``ValueError``
    unless H > 0 and L1 > 0, and unless the inputs and the matrix's trace
    and determinant are finite; then so are the eigenvalues.
    """

    H: float
    J: float
    K1: float
    K2: float
    L1: float

    def __post_init__(self) -> None:
        if self.H <= 0:
            raise ValueError("the gap-price sensitivity H must be positive")
        if self.L1 <= 0:
            raise ValueError("lane length must be positive")
        tr, det = self._trace_det()
        if not all(map(math.isfinite, (self.H, self.J, self.K1, self.K2, self.L1, tr, det))):
            raise ValueError(f"the loop of H={self.H}, J={self.J}, K1={self.K1}, K2={self.K2}, "
                             f"L1={self.L1} has trace {tr} and determinant {det}; all must be finite")

    @property
    def matrix(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """The 2x2 loop matrix, row by row."""
        H, L1 = self.H, self.L1
        return ((self.J - self.K2 * L1) / (L1 * H), self.K1 / H), (-1.0 / L1, 0.0)

    def _trace_det(self) -> tuple[float, float]:
        (m11, m12), (m21, m22) = self.matrix
        return m11 + m22, m11 * m22 - m12 * m21

    @property
    def eigenvalues(self) -> tuple[complex, complex]:
        """Both roots of the characteristic quadratic, the ``+`` root first.

        The discriminant half_tr**2 - det is formed in units of a power of
        two, so half_tr**2 cannot overflow.  A real pair takes the root of
        larger magnitude from the quadratic formula and the other as det
        divided by it, so a root near zero does not cancel.
        """
        tr, det = self._trace_det()
        half = tr / 2.0
        e = max(math.frexp(half)[1], 0)
        h = math.ldexp(half, -e)
        disc = h * h - math.ldexp(det, -2 * e)
        root = math.ldexp(math.sqrt(abs(disc)), e)
        if disc < 0.0:
            return complex(half, root), complex(half, -root)
        big = half + math.copysign(root, half)
        small = det / big if big else 0.0
        return complex(max(big, small), 0.0), complex(min(big, small), 0.0)

    @property
    def stable(self) -> bool:
        """Asymptotic stability by the 2x2 Routh-Hurwitz test: trace < 0 and det > 0.

        It reads no root, so a root that rounds to 0 cannot flip it.
        """
        tr, det = self._trace_det()
        return tr < 0.0 and det > 0.0


class MaxOutflowAnalysis(NamedTuple):
    """The split of a combined per-lane density between the lane groups that maximizes outflow.

    Valid for the plain triangular diagram with equal lane counts.  At HOT-side density rho1 the
    outflow is scale * (flow(fd, rho1) + flow(fd, rho_tot - rho1)), scale = hot_lanes *
    corridor_length / mean_trip_distance; ``g_c`` is its value with both groups congested.  Its
    maximum over the feasible splits [feasible_lo, feasible_hi] is ``max_outflow``, reached on
    exactly [argmax_lo, argmax_hi] (whose endpoints are the critical-density splits).
    """

    rho_tot: float
    g_c: float
    max_outflow: float
    argmax_lo: float
    argmax_hi: float
    feasible_lo: float
    feasible_hi: float
    a1_applicable: bool


def max_outflow_cases(config, rho_tot: float) -> MaxOutflowAnalysis:
    """Characterize the outflow-maximizing density split between the lane groups of ``config``.

    ``rho_tot`` is the combined per-lane density of both groups.  The
    analytic piecewise forms need both groups to share one plain triangular
    diagram (no flow floor) and one lane count; otherwise this raises
    ``ValueError``.
    """
    fd = config.fd_hot
    if config.fd_gp != fd or config.gp_lanes != config.hot_lanes:
        raise ValueError("outflow characterization needs both groups on one diagram and lane count")
    if fd.c != 0.0:
        raise ValueError("outflow characterization assumes a plain triangular diagram")
    rho_c = critical_density(fd)
    scale = config.hot_lanes * config.corridor_length / config.mean_trip_distance
    u_f, w, rho_j = fd.u_f, fd.w, fd.rho_j
    if not 0.0 <= rho_tot <= 2.0 * rho_j:
        raise ValueError("total density outside the physical range")
    g_c = scale * (2.0 * w * rho_j - rho_tot * w)
    feas_lo = max(0.0, rho_tot - rho_j)
    feas_hi = min(rho_j, rho_tot)
    if rho_tot <= 2.0 * rho_c:
        # both groups can run free-flow; the whole free-flow plateau is optimal
        lo = max(feas_lo, rho_tot - rho_c)
        hi = min(feas_hi, rho_c)
        best = scale * u_f * rho_tot
    else:
        # optimum on the both-congested plateau, bounded by the critical splits
        lo = max(feas_lo, rho_c)
        hi = min(feas_hi, rho_tot - rho_c)
        best = g_c
    return MaxOutflowAnalysis(
        rho_tot=rho_tot,
        g_c=g_c,
        max_outflow=best,
        argmax_lo=lo,
        argmax_hi=hi,
        feasible_lo=feas_lo,
        feasible_hi=feas_hi,
        a1_applicable=rho_c < rho_tot < 2.0 * rho_j,
    )


def _require_constant_demand(config) -> None:
    if config.demand.kind != "constant":
        raise ValueError("equilibrium predictions need a constant demand profile")


def loop_matrix(config, lam: float, xi: float, omega: float, side: str = "right") -> LinearizedSystem:
    """The linearized loop of a constant-demand config at state (lam, xi) and gap ``omega``.

    At density rho = rho_c + lam the state fixes the paying share
    p = (g1(rho) L1 / D - e1 - xi) / e2, and the toll that holds it is
    u = A(p) omega + B(p).  The share sees u / omega = A + B / omega, so
    with s = A'(p) + B'(p) / omega the sensitivities are H = -s / e2 and
    J = s (L1 / D) g1'(rho) / e2, where g1' is the diagram's slope; at a
    kink ``side`` ("left" or "right") picks the branch, so at lam = 0 the
    left matrix is the under-critical one (g1' = u_f) and the right one the
    over-critical one.  The gains are the effective ones, K1 = k1 + k3 /
    omega and K2 = k2 + k4 / omega.  Raises ``ValueError`` for demand that
    is not constant or has no SOV rate, an unknown side, a negative density,
    a share outside the choice model's range, a gap that is not positive and
    finite, and a system :class:`LinearizedSystem` rejects.
    """
    _require_constant_demand(config)
    if not 0.0 < omega < math.inf:
        raise ValueError(f"the travel time gap must be positive and finite, got {omega}")
    fd = config.fd_hot
    rho = lam + critical_density(fd)
    if rho < 0:
        raise ValueError("state implies a negative density")
    L1 = config.hot_lanes * config.corridor_length
    D = config.mean_trip_distance
    e1, e2 = config.demand.hov_rate, config.demand.sov_rate
    if e2 <= 0:
        raise ValueError(f"the SOV rate must be positive, got {e2}")
    p = (flow(fd, rho) * L1 / D - e1 - xi) / e2
    _, _, da, db = config.choice.toll_line(p)
    s = da + db / omega
    c = config.controller
    return LinearizedSystem(
        -s / e2, s * L1 / D * flow_slope(fd, rho, side) / e2,
        c.k1 + c.k3 / omega, c.k2 + c.k4 / omega, L1,
    )


def constant_equilibrium(config) -> EquilibriumPrediction:
    """The operating point of a constant-demand config, with its flow-floor queue and gap lines.

    The paying share p0 holds the managed lanes exactly at capacity.  On
    the floor each GP lane serves the per-lane floor c, so the GP trips grow
    at delta2' = e2 (1 - p0) - c L2 / D and the GP speed is c L2 / delta2.
    At the optimum the managed lanes run at critical density,
    at their free-flow speed, so the gap is delta2 / (c L2) - 1 / u_f,HOT,
    counted from the floor's entry density rho_j - c / w.  Without a floor
    the regime is exponential and the lines are NaN.  Raises ``ValueError``
    if the demand is not constant, and :class:`A1ViolationError`, listing the
    failed inequalities, if ``config.a1_warnings()`` is not empty.
    """
    _require_constant_demand(config)
    failures = config.a1_warnings()
    if failures:
        raise A1ViolationError("; ".join(failures))
    L1 = config.hot_lanes * config.corridor_length
    D = config.mean_trip_distance
    p0 = (L1 * capacity(config.fd_hot) - config.demand.hov_rate * D) / (D * config.demand.sov_rate)
    fd = config.fd_gp
    if fd.c <= 0.0:
        return EquilibriumPrediction(p0, math.nan, math.nan, math.nan, "exponential")
    served = fd.c * config.gp_lanes * config.corridor_length  # c L2
    rate = config.demand.sov_rate * (1.0 - p0) - served / D
    return EquilibriumPrediction(
        p0=p0,
        omega0=rate / served,
        omega1=(fd.rho_j - fd.c / fd.w) / fd.c - 1.0 / config.fd_hot.u_f,
        delta2_rate=rate,
        regime="linear",
    )
