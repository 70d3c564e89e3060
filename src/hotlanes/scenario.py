"""Closed-loop scenario orchestration, metrics and the CSV record surface.

A scenario wires the pieces together: per-step it computes lane speeds and
the travel-time gap, posts a toll, applies the lane choice split, advances
both bathtubs, then updates the toll coefficients.  It reads the demand
profile only when a step passes the end of the interval its held rates
cover.  Rows of observables are emitted at a configurable cadence and can be
written to CSV for external tooling.
"""

import bisect
import math
import sys
import warnings
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .analysis import constant_equilibrium  # noqa: F401  the name scenario.constant_equilibrium
from .bathtub import HotGridlockError, SaturationStats, jam_trip_cap
from .controller import ControllerState
from .lane_choice import ExponentialVot, LogitChoice, UniformVot
from .nfd import PHASE_TOLERANCE, FdParams, capacity, critical_density

__all__ = [
    "DemandProfile",
    "ScenarioConfig",
    "SimulationRecord",
    "LaneMetrics",
    "Metrics",
    "ComparisonResult",
    "ConfigError",
    "iter_run",
    "run",
    "metrics",
    "compare_hov_hot",
    "csv_rows",
    "iter_csv",
    "read_csv",
    "CSV_COLUMNS",
]


class ConfigError(ValueError):
    """Scenario configuration is inconsistent or unparseable."""


@dataclass(frozen=True, slots=True)
class DemandProfile:
    """Trip initiation rates over time for HOVs and SOVs: a list of knots.

    Knot k holds ``hov_rates[k]`` and ``sov_rates[k]`` [veh/h] at ``breakpoints[k]`` [h]; the
    times strictly increase.  The rates are linear between knots and hold the end knot's outside
    them.  The knots are stored as floats, a zero rate as +0.0 (``x + 0.0``), so a rate held up
    to a knot is the float read at it.
    """

    breakpoints: tuple[float, ...]
    hov_rates: tuple[float, ...]
    sov_rates: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("breakpoints", "hov_rates", "sov_rates"):
            object.__setattr__(self, name, tuple(x + 0.0 for x in getattr(self, name)))
        bp, hov, sov = self.breakpoints, self.hov_rates, self.sov_rates
        if not len(bp) == len(hov) == len(sov) > 0:
            raise ConfigError("demand needs one knot or more, each with a time and two rates")
        if not (all(map(math.isfinite, bp)) and all(a < b for a, b in zip(bp, bp[1:]))):
            raise ConfigError("demand breakpoints must be finite and strictly increasing")
        if not all(0.0 <= x < math.inf for x in (*hov, *sov)):
            raise ConfigError("demand rates must be finite and non-negative")

    @classmethod
    def constant(cls, hov_rate: float, sov_rate: float) -> "DemandProfile":
        """Rates that hold at all times: one knot."""
        return cls((0.0,), (hov_rate,), (sov_rate,))

    @classmethod
    def trapezoid(cls, hov_peak: float, sov_peak: float, t0: float, t1: float, t2: float,
                  t3: float) -> "DemandProfile":
        """Zero to ``t0``, a ramp to the peak at ``t1``, the peak to ``t2``, a ramp to zero at ``t3``."""
        return cls((t0, t1, t2, t3), (0.0, hov_peak, hov_peak, 0.0), (0.0, sov_peak, sov_peak, 0.0))

    @property
    def kind(self) -> str:
        """'constant' when every knot has the same rates, else 'piecewise'."""
        return "constant" if len({*self.hov_rates}) == len({*self.sov_rates}) == 1 else "piecewise"

    def held_rates(self, t: float) -> tuple[float, float, float]:
        """(HOV rate, SOV rate, t_end): the rates at t [veh/h], which hold unchanged on [t, t_end].

        Between knots a and b with rates h0 and h1 the rate is ``h0 * g + h1 * f``, with
        ``f = (t - a) / (b - a)`` and ``g = (b - t) / (b - a)``, and ``t_end`` is t.  A flat
        segment holds to its end knot, and the last knot's rates for good (``t_end`` inf).
        """
        bp, hov, sov = self.breakpoints, self.hov_rates, self.sov_rates
        i = bisect.bisect_right(bp, t)  # the knot after t; outside the list, both knots are its end
        j, k = (i - 1 if i else 0), (i if i < len(bp) else i - 1)
        h0, h1, s0, s1 = hov[j], hov[k], sov[j], sov[k]
        if h0 == h1 and s0 == s1:
            return h1, s1, bp[i] if i < len(bp) else math.inf
        a, b = bp[j], bp[k]
        f, g = (t - a) / (b - a), (b - t) / (b - a)
        return h0 * g + h1 * f, s0 * g + s1 * f, t

    def peak_rates(self) -> tuple[float, float]:
        return max(self.hov_rates), max(self.sov_rates)


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """Everything needed to run one closed-loop scenario.

    Lengths are in km, times in hours, rates in veh/h, money in dollars;
    any consistent length unit works as long as it is used throughout.
    """

    MAX_STEPS = 10**8  # not a field: Euler steps one run may take, about 2 min at 1-1.5 us each

    fd_hot: FdParams
    fd_gp: FdParams
    demand: DemandProfile
    corridor_length: float = 1.0
    hot_lanes: float = 1.0
    gp_lanes: float = 1.0
    mean_trip_distance: float = 5.0
    choice: ExponentialVot | UniformVot | LogitChoice = ExponentialVot()  # the paying-share model
    controller: ControllerState = ControllerState()
    dt_s: float = 0.1
    horizon_h: float = 5.0
    output_dt_s: float = 1.0
    mode: str = "hot"  # "hot" | "hov"
    initial_hot_trips: float = 0.0
    initial_gp_trips: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("hot", "hov"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        numbers = (self.dt_s, self.horizon_h, self.output_dt_s, self.corridor_length,
                   self.hot_lanes, self.gp_lanes, self.mean_trip_distance,
                   self.initial_hot_trips, self.initial_gp_trips)
        if not all(math.isfinite(x) for x in numbers):
            raise ConfigError("times, geometry and initial trip counts must be finite")
        if self.dt_s <= 0 or self.horizon_h <= 0:
            raise ConfigError("dt and horizon must be positive")
        if self.horizon_h * 3600.0 / self.dt_s > self.MAX_STEPS:
            raise ConfigError(f"horizon_h * 3600 / dt_s exceeds {self.MAX_STEPS:.0e} steps")
        if self.output_dt_s < self.dt_s:
            raise ConfigError("output cadence cannot be finer than dt")
        if min(self.corridor_length, self.mean_trip_distance) <= 0:
            raise ConfigError("geometry values must be positive")
        if min(self.hot_lanes, self.gp_lanes) < 1:
            raise ConfigError("each lane group needs at least one lane")
        if self.initial_hot_trips < 0 or self.initial_gp_trips < 0:
            raise ConfigError("initial trip counts cannot be negative")
        for name, trips, fd, lanes in (("hot", self.initial_hot_trips, self.fd_hot, self.hot_lanes),
                                       ("gp", self.initial_gp_trips, self.fd_gp, self.gp_lanes)):
            if trips > (cap := jam_trip_cap(fd, lanes * self.corridor_length)):
                raise ConfigError(f"initial_{name}_trips = {trips:g} exceeds the jam cap {cap:g}")
        # the step loop computes these models' shares inline, so a subclass is not one of them
        if type(self.choice) not in (ExponentialVot, UniformVot, LogitChoice):
            raise ConfigError(f"unknown choice model {type(self.choice).__name__!r}")

    def a1_warnings(self) -> list[str]:
        """The violated overload (A1) conditions at peak demand; empty when all hold.

        HOV demand alone leaves the managed lanes under-used, SOV demand alone
        overloads the GP lanes, and total demand exceeds the joint capacity.
        Demand counts as rate times trip length, and each group's capacity as
        its lanes times the corridor length times its own diagram's capacity.
        A product or sum past the float range reads "overflow" in the text.
        """
        e1, e2 = self.demand.peak_rates()
        D = self.mean_trip_distance
        cap1 = self.hot_lanes * self.corridor_length * capacity(self.fd_hot)
        cap2 = self.gp_lanes * self.corridor_length * capacity(self.fd_gp)
        failures = []
        if not e1 * D < cap1:
            failures.append(f"HOV demand saturates the managed lanes: "
                            f"e1*D = {_show(e1 * D)} >= {_show(cap1)}")
        if not e2 * D > cap2:
            failures.append(f"SOV demand does not overload the GP lanes: "
                            f"e2*D = {_show(e2 * D)} <= {_show(cap2)}")
        if not (e1 + e2) * D > cap1 + cap2:
            failures.append(f"total demand below joint capacity: "
                            f"{_show((e1 + e2) * D)} <= {_show(cap1 + cap2)}")
        return failures


def _show(x: float) -> str:
    return f"{x:.6g}" if math.isfinite(x) else "overflow"


class SimulationRecord(NamedTuple):
    """One emitted row of observables; the field order is the CSV column order."""

    t: float
    delta1: float
    delta2: float
    rho1: float
    rho2: float
    v1: float
    v2: float
    omega: float
    lam: float
    xi: float
    a: float
    b: float
    u: float
    p: float
    e1_tilde: float
    e2_tilde: float
    e21_tilde: float
    g1: float
    g2: float
    E1: float
    E2: float
    G1: float
    G2: float
    phase1: str
    phase2: str
    toll_clamped: int
    hot_clamped: int
    gp_clamped: int


CSV_COLUMNS = SimulationRecord._fields

_FLOAT_COLUMNS = CSV_COLUMNS[: CSV_COLUMNS.index("phase1")]
# the record fields that must stay finite: every float but the gap, which is inf at a GP jam
_CHECKED_FLOATS = itemgetter(*(i for i, c in enumerate(_FLOAT_COLUMNS) if c != "omega"))
# Builds a record from a tuple of every field in order, without the Python-level
# __new__ (a call frame) or _make's length check (the callers pass a fixed count).
_new_tuple = tuple.__new__


def _warn_a1(config: ScenarioConfig) -> None:
    """Warn, at the caller of the public function calling this, per violated A1 condition."""
    for msg in config.a1_warnings():
        warnings.warn(f"demand assumption violated at peak: {msg}", stacklevel=3)


def iter_run(config: ScenarioConfig, stats: SaturationStats | None = None) -> Iterator[SimulationRecord]:
    """Run the closed loop as a stream of records; warn at the call per violated A1 condition.

    The loop steps only as records are taken, so a consumer that stops, stops
    the run.  Raises :class:`HotGridlockError` if the managed lanes gridlock,
    and ``OverflowError``, naming the time, when a density or a record field
    other than the gap is no longer finite; the records before it stand.
    """
    _warn_a1(config)
    return _stream(config, stats)


def run(config: ScenarioConfig, stats: SaturationStats | None = None) -> list[SimulationRecord]:
    """The whole :func:`iter_run` stream as a list."""
    _warn_a1(config)
    return list(_stream(config, stats))


def _stream(config: ScenarioConfig, stats: SaturationStats | None) -> Iterator[SimulationRecord]:
    """The step loop: one Euler step per ``dt_s``, a record every ``output_dt_s`` and at the last.

    This is the one place that does the per-step arithmetic.  The speeds,
    phase labels and paying share are ``nfd.speed``'s, ``nfd.classify_phase``'s
    and each accepted model's ``share``, inline; the gap ``1/v2 - 1/v1`` is inf
    where ``1/v2`` overflows, a GP jam included.  The demand is read from
    ``DemandProfile.held_rates`` only when a step passes the end of the
    interval the last rates hold on, so a constant profile is read once.
    The plant completes ``delta / D * v`` trips per hour, clamps each count at
    0 and the GP count at its jam cap, dropping the excess (``stats`` counts
    both).  One HOT jam rule: a HOT speed with no finite reciprocal is the
    gridlock, so a HOT count past its jam cap aborts the next step at speed 0.
    The toll ``a * omega + b`` is clamped at 0, posts the ceiling at an
    unbounded gap, and is held between controller ticks, every ``decimation`` steps.

    The record flags are loop state.  ``toll_clamped`` is 1 while the toll
    the last tick computed, before its clamp, was negative; ``hot_clamped``
    and ``gp_clamped`` read 1 in every record after the first step that
    clamps that group's trip count.

    Both coefficients accumulate the same ``lam`` and ``xi``.  An unclamped
    plant step moves the HOT-lane trips ``delta1`` by exactly ``-dt * xi``,
    so ``k3*a - k1*b + (k1*k4 - k2*k3)*delta1`` is conserved for any gains,
    up to rounding.  This holds while the controller ticks every step
    (``decimation = 1``) and ``delta1`` is not clamped.
    """
    stats = SaturationStats() if stats is None else stats
    inf = math.inf
    dt = config.dt_s / 3600.0
    horizon_s = config.horizon_h * 3600.0
    n_steps = max(1, round(horizon_s / config.dt_s))
    last = n_steps - 1
    # an interval past the horizon records the first and the last step; capped, it cannot overflow
    record_every = max(1, round(min(config.output_dt_s, horizon_s) / config.dt_s))
    choice = config.choice
    # each model's share computed inline, with its parameters bound once per run
    logit = type(choice) is LogitChoice
    uniform = type(choice) is UniformVot
    alpha, pi_star = (choice.alpha_star, choice.pi_star) if logit else (0.0, 0.0)
    low, high = (choice.low, choice.high) if uniform else (0.0, 0.0)
    vot_mean = choice.mean if type(choice) is ExponentialVot else 0.0
    exp = math.exp
    hov_mode = config.mode == "hov"
    ctrl = config.controller
    a, b = ctrl.a + 0.0, ctrl.b + 0.0  # + 0.0 reads a -0.0 config value as +0.0
    k1, k2, k3, k4, ceiling = ctrl.k1, ctrl.k2, ctrl.k3, ctrl.k4, ctrl.toll_ceiling
    decim = ctrl.decimation
    dt_ctrl = dt * decim
    fd_hot, fd_gp = config.fd_hot, config.fd_gp
    uf1, w1, rj1, c1 = fd_hot.u_f, fd_hot.w, fd_hot.rho_j, fd_hot.c
    uf2, w2, rj2, c2 = fd_gp.u_f, fd_gp.w, fd_gp.rho_j, fd_gp.c
    rho_c1, rho_c2 = critical_density(fd_hot), critical_density(fd_gp)
    SUC, C, SOC, tol = "SUC", "C", "SOC", PHASE_TOLERANCE
    v1_least = math.nextafter(1.0 / sys.float_info.max, inf)  # the least v whose 1/v is finite
    D = config.mean_trip_distance
    L1 = config.hot_lanes * config.corridor_length
    L2 = config.gp_lanes * config.corridor_length
    cap2 = jam_trip_cap(fd_gp, L2)
    d1_init = d1 = config.initial_hot_trips + 0.0
    d2_init = d2 = config.initial_gp_trips + 0.0
    G1 = G2 = 0.0
    u = p = posted = 0.0  # posted: the last tick's toll before its clamp
    hot_clamped = gp_clamped = 0
    held_rates = config.demand.held_rates
    hold_until = -inf  # the demand rates e1t, e2t hold for t <= hold_until
    next_record = 0  # the step index of the next record; the last step is always one
    next_tick = -1 if hov_mode else 0  # the step index of the next controller tick; HOV has none

    for i in range(n_steps):
        t = i * dt
        if t > hold_until:
            e1t, e2t, hold_until = held_rates(t)
        rho1, rho2 = d1 / L1, d2 / L2
        if not (rho1 < inf and rho2 < inf):  # the counts are clamped at 0: only NaN or inf fails
            raise OverflowError(
                f"trip counts overflowed at t={t:.4f} h (rho1={rho1}, rho2={rho2})")
        # nfd.speed of each group: u_f when empty, else the wave branch raised to the floor c/rho.
        # Comparing c with w (rho_j - rho) before the one division picks the same float as
        # comparing the quotients, since rounded division by rho > 0 is monotone; it is >= 0.
        if rho1 == 0.0:
            v1 = uf1
        else:
            v1 = w1 * (rj1 - rho1)
            v1 = (c1 if c1 > v1 else v1) / rho1
            if v1 > uf1:
                v1 = uf1
            elif v1 < v1_least:
                raise HotGridlockError(
                    f"managed lanes gridlocked at t={t:.4f} h (rho1={rho1:.3f})"
                )
        if rho2 == 0.0:
            v2 = uf2
        else:
            v2 = w2 * (rj2 - rho2)
            v2 = (c2 if c2 > v2 else v2) / rho2
            if v2 > uf2:
                v2 = uf2
        omega = inf if v2 == 0.0 else 1.0 / v2 - 1.0 / v1
        # The choice models are defined for a non-negative gap; if the HOT
        # lanes are transiently slower than the GP lanes nobody pays.
        gap = 0.0 if 0.0 > omega else omega
        tick = i == next_tick  # the toll is set from the gap now and the gains act after the step
        if not hov_mode:
            if tick:
                posted = ceiling if gap == inf else a * gap + b
                u = posted if posted > 0.0 else 0.0  # NaN posts 0
            if omega < 0.0:
                p = 0.0
            elif logit:  # LogitChoice.share
                if gap == inf:
                    p = 1.0
                else:
                    x = alpha * (u - pi_star * gap)
                    p = 0.0 if x > 700.0 else 1.0 / (1.0 + exp(x))
            else:  # the UE models: lane_choice._vot_threshold, then the model's share
                x = 0.0 if gap == inf else (inf if u > 0.0 else 0.0) if gap == 0.0 else u / gap
                if uniform:  # UniformVot.share
                    p = 1.0 if x <= low else 0.0 if x >= high else 1.0 - (x - low) / (high - low)
                else:  # ExponentialVot.share
                    p = 1.0 if x <= 0.0 else exp(-x / vot_mean)
        e21 = p * e2t
        in1, in2 = e1t + e21, e2t - e21
        g1 = d1 / D * v1
        g2 = d2 / D * v2
        lam = rho1 - rho_c1
        xi = g1 - in1

        if i == next_record:
            next_record = min(next_record + record_every, last)
            E1, E2 = d1 - d1_init + G1, d2 - d2_init + G2
            record = _new_tuple(SimulationRecord, (  # fields in CSV column order
                t, d1, d2, rho1, rho2, v1, v2, omega, lam, xi, a, b, u, p,
                e1t, e2t, e21, g1, g2, E1, E2, G1, G2,
                # nfd.classify_phase of each group
                C if abs(rho1 - rho_c1) <= tol else SUC if rho1 < rho_c1 else SOC,
                C if abs(rho2 - rho_c2) <= tol else SUC if rho2 < rho_c2 else SOC,
                1 if posted < 0.0 else 0, hot_clamped, gp_clamped,
            ))
            # With finite densities every float but the gap is finite if these seven are: E
            # covers delta and G, and xi covers g1 and the HOT inflow.  Their sum is not finite
            # if one of them is not; only then are the fields checked one by one.
            if (not -inf < xi + a + b + u + g2 + E1 + E2 < inf
                    and not all(map(math.isfinite, _CHECKED_FLOATS(record)))):
                raise OverflowError(f"state overflowed at t={t:.4f} h: a record field is not finite")
            yield record
        d1 += dt * (in1 - g1)
        if d1 < 0.0:
            G1 += d1  # the overshoot: a step clamped at 0 serves only the trips there were
            d1 = 0.0
            hot_clamped = 1
            stats.hot_clamp_steps += 1
        d2 += dt * (in2 - g2)
        if d2 < 0.0:
            G2 += d2
            d2 = 0.0
            gp_clamped = 1
            stats.gp_clamp_steps += 1
        elif d2 > cap2:
            gp_clamped = 1
            stats.gp_clamp_steps += 1
            stats.gp_dropped += d2 - cap2
            d2 = cap2
        G1 += dt * g1
        G2 += dt * g2
        if tick:
            next_tick += decim
            a, b = a + dt_ctrl * (k1 * lam - k2 * xi), b + dt_ctrl * (k3 * lam - k4 * xi)


class LaneMetrics(NamedTuple):
    """Aggregates for one lane group over the evaluated window."""

    total_delay: float  # area between cumulative curves [veh h]
    served: float  # completed trips
    initiated: float  # admitted trips
    mean_travel_time: float  # [h]


class Metrics(NamedTuple):
    hot: LaneMetrics
    gp: LaneMetrics
    max_omega: float  # [h/length]
    revenue: float  # [$]
    records: int  # records aggregated

    @property
    def total_delay(self) -> float:
        return self.hot.total_delay + self.gp.total_delay


def metrics(records: Iterable[SimulationRecord], mean_trip_distance: float) -> Metrics:
    """Aggregate a record stream, in one pass, into per-lane-group and corridor metrics.

    Delay is the area between the cumulative entry and exit curves; revenue
    weights the toll by the paying flux and the mean trip distance.  Raises
    ``OverflowError``, naming the sum, when the revenue, a lane group's delay or
    the total delay is not finite, which finite records near the float ceiling
    can give.
    """
    rows = iter(records)
    first = last = next(rows, None)
    if first is None:
        raise ValueError("need at least one record")
    D = mean_trip_distance
    # the previous row's time and integrands: each lane's trips in system E - G, and revenue rate
    pt, p1, p2, pr = first.t, first.E1 - first.G1, first.E2 - first.G2, first.u * first.e21_tilde * D
    delay1 = delay2 = revenue = 0.0
    max_omega, n = first.omega, 1
    for n, last in enumerate(rows, 2):
        t, y1, y2, yr = last.t, last.E1 - last.G1, last.E2 - last.G2, last.u * last.e21_tilde * D
        delay1 += 0.5 * (y1 + p1) * (t - pt)
        delay2 += 0.5 * (y2 + p2) * (t - pt)
        revenue += 0.5 * (yr + pr) * (t - pt)
        max_omega = max(max_omega, last.omega)
        pt, p1, p2, pr = t, y1, y2, yr
    for name, total in (("revenue", revenue), ("managed-lane delay", delay1),
                        ("GP delay", delay2), ("total delay", delay1 + delay2)):
        if not math.isfinite(total):
            raise OverflowError(f"{name} over {n} records is not finite ({total})")
    served1, served2 = last.G1 - first.G1, last.G2 - first.G2
    return Metrics(
        hot=LaneMetrics(delay1, served1, last.E1 - first.E1, delay1 / served1 if served1 > 0 else 0.0),
        gp=LaneMetrics(delay2, served2, last.E2 - first.E2, delay2 / served2 if served2 > 0 else 0.0),
        max_omega=max_omega,
        revenue=revenue,
        records=n,
    )


class ComparisonResult(NamedTuple):
    hov: Metrics
    hot: Metrics

    @property
    def delay_saved(self) -> float:
        return self.hov.total_delay - self.hot.total_delay

    @property
    def managed_lane_served_gain(self) -> float:
        return self.hot.hot.served - self.hov.hot.served

    @property
    def peak_gap_ratio(self) -> float:
        """HOV peak gap over HOT peak gap.

        Equal peaks, inf ones included, and two peaks that are not positive give
        1.0; a positive HOV peak beside a HOT peak that is not gives inf.
        """
        hov, hot = self.hov.max_omega, self.hot.max_omega
        if hov == hot or (hov <= 0.0 and hot <= 0.0):
            return 1.0
        return math.inf if hot <= 0.0 else hov / hot


def compare_hov_hot(config: ScenarioConfig) -> ComparisonResult:
    """Run the scenario twice, with and without pricing, and compare.

    The HOV run forces the paying share to zero; demand, geometry and the
    diagram are identical.  The runs execute one after the other: the work
    holds the interpreter lock, so threads would not overlap it.  A violated
    overload assumption is warned once, at the caller.
    """
    _warn_a1(config)
    hot, hov = (metrics(_stream(replace(config, mode=mode), None), config.mean_trip_distance)
                for mode in ("hot", "hov"))
    return ComparisonResult(hov=hov, hot=hot)


# What csv.writer writes for these rows: no phase label or flag needs quoting,
# and '%.9g' % x == '{:.9g}'.format(x) for every float, inf and nan included.
_HEADER = ",".join(CSV_COLUMNS) + "\r\n"
_ROW = ",".join("%.9g" if c in _FLOAT_COLUMNS else "%s" for c in CSV_COLUMNS) + "\r\n"
_LABEL, _FLAG = {p: p for p in ("SUC", "C", "SOC")}, {"0": 0, "1": 1}  # cell -> value


def csv_rows(records: Iterable[SimulationRecord], path: str) -> Iterator[SimulationRecord]:
    """Pass the records through, writing each first to the CSV at ``path`` (opened at the first).

    The file is UTF-8 with 9 significant digits per float; drain the stream to write it all.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_HEADER)
        for r in records:
            fh.write(_ROW % r)
            yield r


def iter_csv(path: str) -> Iterator[SimulationRecord]:
    """Stream the records of a :func:`csv_rows` file, in any line ending; blank lines are skipped.

    Another header than csv_rows's (its first differing column named), a ragged row, a bad cell
    (a phase label not SUC, C or SOC, a flag not 0 or 1) or a row holding a quote, NUL, '_', blank
    or non-ASCII character (float() reads ' 1_5 ') is a :class:`ConfigError` naming the line.
    """
    n, width, label, flag = len(_FLOAT_COLUMNS), len(CSV_COLUMNS), _LABEL, _FLAG
    with open(path, encoding="utf-8") as fh:
        num, lines = 0, enumerate(fh, 1)
        try:
            num, line = next(lines, (0, ""))
            if line.rstrip("\n") != _HEADER[:-2]:
                pairs = zip([*line.rstrip("\n").split(","), None], (*CSV_COLUMNS, None))
                i, (got, want) = next(x for x in enumerate(pairs, 1) if x[1][0] != x[1][1])
                raise ConfigError(f"header column {i} is {got!r} where csv_rows writes {want!r}")
            for num, line in lines:
                row = line.rstrip("\n").split(",")
                if len(row) != width:
                    if row == [""]:  # a blank line
                        continue
                    raise ConfigError(f"{len(row)} cells under a {width}-column header")
                if (not line.isascii() or '"' in line or "\0" in line or "_" in line or " " in line
                        or "\t" in line or "\v" in line or "\f" in line):
                    raise ConfigError("a quote, NUL, '_', blank or non-ASCII character in the row")
                yield _new_tuple(SimulationRecord, (
                    *map(float, row[:n]), label[row[n]], label[row[n + 1]],
                    flag[row[n + 2]], flag[row[n + 3]], flag[row[n + 4]]))
        except ValueError as exc:  # ConfigError included
            raise ConfigError(f"{path}, line {num}: {exc}") from None
        except KeyError as exc:  # a phase label or flag cell that csv_rows never writes
            raise ConfigError(f"{path}, line {num}: cell {exc} is not SUC, C, SOC, 0 or 1") from None


def read_csv(path: str) -> list[SimulationRecord]:
    """The records of :func:`iter_csv`, as a list."""
    return list(iter_csv(path))
