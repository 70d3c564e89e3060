"""Network fundamental diagram: speed-density and flow-density relations.

The corridor model uses a triangular fundamental diagram, optionally with a
positive flow floor ``c`` at high densities (the floor prevents flow from
collapsing to zero in hypercongestion).  ``c = 0`` recovers the plain
triangular diagram; ``c = capacity`` gives a ramp-shaped diagram.
"""

from dataclasses import dataclass

__all__ = [
    "FdParams",
    "critical_density",
    "capacity",
    "speed",
    "flow",
    "flow_slope",
    "classify_phase",
    "PHASE_TOLERANCE",
]

# Absolute density tolerance used to detect the critical phase.
PHASE_TOLERANCE = 1e-9

_INF = float("inf")


@dataclass(frozen=True, slots=True)
class FdParams:
    """Fundamental diagram parameters for one lane group.

    Attributes:
        u_f: free-flow speed [length/h].
        w: congestion wave speed [length/h].
        rho_j: per-lane jam density [veh/length/lane].
        c: per-lane flow floor at high densities [veh/h/lane]; 0 disables it.
    """

    u_f: float
    w: float
    rho_j: float
    c: float = 0.0

    def __post_init__(self) -> None:
        if self.u_f <= 0 or self.w <= 0 or self.rho_j <= 0:
            raise ValueError("u_f, w and rho_j must all be positive")
        cap = critical_density(self) * self.u_f
        if not cap < _INF:
            raise ValueError(f"critical density and capacity must be finite, got capacity {cap}")
        if not 0.0 <= self.c <= cap + 1e-9 * cap:
            raise ValueError(f"flow floor c={self.c} outside [0, {cap}]")


def critical_density(params: FdParams) -> float:
    """Minimum per-lane density at which capacity flow is attained."""
    return params.w * params.rho_j / (params.u_f + params.w)


def capacity(params: FdParams) -> float:
    """Per-lane capacity flow [veh/h/lane]."""
    return params.u_f * critical_density(params)


def speed(params: FdParams, rho: float) -> float:
    """Per-lane speed at density ``rho``.

    Returns ``u_f`` at zero density (right-limit convention).  With a flow
    floor the speed stays positive at any density; without one it reaches
    zero at the jam density.  The step loop inlines this expression rather
    than calling it.
    """
    if not 0.0 <= rho < _INF:
        raise ValueError(f"density must be non-negative and finite, got {rho}")
    if rho == 0.0:
        return params.u_f
    v = params.w * (params.rho_j - rho) / rho
    if params.c > 0.0 and params.c / rho > v:
        v = params.c / rho
    if 0.0 > v:
        v = 0.0
    return v if v < params.u_f else params.u_f


def flow(params: FdParams, rho: float) -> float:
    """Per-lane flow ``rho * speed(rho)`` [veh/h/lane]."""
    return rho * speed(params, rho)


def flow_slope(params: FdParams, rho: float, side: str = "right") -> float:
    """One-sided derivative of :func:`flow` at ``rho`` (``side`` is "left" or "right").

    The flow is ``u_f`` rho below the critical density, ``w`` (rho_j - rho)
    from there to the floor entry rho_j - c / w (to rho_j without a floor)
    and flat beyond, so the slope is ``u_f``, ``-w`` or 0; at a kink ``side``
    picks the branch.
    """
    if not 0.0 <= rho < _INF:
        raise ValueError(f"density must be non-negative and finite, got {rho}")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    rho_c = critical_density(params)
    floor_entry = params.rho_j - params.c / params.w
    if rho < rho_c or (side == "left" and rho == rho_c):
        return params.u_f
    if rho < floor_entry or (side == "left" and rho == floor_entry):
        return -params.w
    return 0.0


def classify_phase(params: FdParams, rho: float) -> str:
    """The traffic phase of a density: ``"SUC"``, ``"C"`` or ``"SOC"``.

    Strictly under-critical (free flow), critical (at capacity) or strictly
    over-critical (hypercongestion), the labels the records carry.  The
    critical phase is detected within ``PHASE_TOLERANCE`` in density; exact
    float equality would be meaningless.
    """
    if not 0.0 <= rho < _INF:
        raise ValueError(f"density must be non-negative and finite, got {rho}")
    rho_c = critical_density(params)
    if abs(rho - rho_c) <= PHASE_TOLERANCE:
        return "C"
    return "SUC" if rho < rho_c else "SOC"
