"""Invariants of ``run`` over random short configurations, checked on the real loop."""

import math
import warnings
from dataclasses import replace

from hypothesis import event, example, given, settings, strategies as st

from hotlanes.bathtub import HotGridlockError, jam_trip_cap
from hotlanes.controller import ControllerState
from hotlanes.lane_choice import ExponentialVot, LogitChoice, UniformVot
from hotlanes.nfd import FdParams, capacity, classify_phase, speed
from hotlanes.presets import preset
from hotlanes.scenario import CSV_COLUMNS, ConfigError, DemandProfile, run

FLOAT_COLUMNS = CSV_COLUMNS[: CSV_COLUMNS.index("phase1")]
BASE_FD = FdParams(u_f=100.0, w=20.0, rho_j=140.0)

rates = st.one_of(st.just(0.0), st.just(-0.0), st.floats(1.0, 10_000.0))
gains = st.floats(0.1, 50.0)
floors = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


# UniformVot bounds: the defaults, a pair with low + (high - low) != high, and random ones
uniform_bounds = st.one_of(
    st.just((0.0, 100.0)), st.just((10.0, 90.0)), st.just((0.6003328378632581, 1.6014561504779194)),
    st.tuples(st.floats(0.0, 200.0), st.floats(1e-3, 200.0)).map(lambda t: (t[0], t[0] + t[1])))


@st.composite
def diagrams(draw):
    """A lane group's own diagram: u_f, w, rho_j and the flow floor each drawn."""
    fd = FdParams(u_f=draw(st.floats(40.0, 140.0)), w=draw(st.floats(5.0, 40.0)),
                  rho_j=draw(st.floats(80.0, 220.0)))
    return replace(fd, c=draw(floors) * capacity(fd))


def trips(fd, lanes):
    """0 or an initial trip count from 1 to 800 that does not exceed the group's jam cap."""
    return st.one_of(st.just(0.0), st.floats(1.0, min(800.0, jam_trip_cap(fd, lanes))))


def choice_of(model, family, bounds):
    """The choice model, with default parameters but for UniformVot's ``bounds``.

    The family applies under UE only.
    """
    if model == "logit":
        return LogitChoice()
    return ExponentialVot() if family == "exponential" else UniformVot(*bounds)


def demand_times(draw, count, dt_s, horizon_h):
    """``count`` increasing times from 0 to ``count`` steps past the horizon.

    Each lies on a step time or half a step off one.
    """
    step = dt_s / 3600.0
    halves = st.integers(0, 2 * (round(horizon_h / step) + count))
    return [k / 2 * step for k in sorted(draw(st.sets(halves, min_size=count, max_size=count)))]


@st.composite
def demands(draw, dt_s, horizon_h):
    """One knot, a trapezoid or a free piecewise curve, its knots in or just past the run.

    A piecewise knot may repeat the rates before it, a flat segment, and a
    zero rate may be drawn as -0.0 or 0.0.
    """
    shape = draw(st.sampled_from(("one knot", "trapezoid", "piecewise")))
    if shape == "one knot":
        return DemandProfile(tuple(demand_times(draw, 1, dt_s, horizon_h)), (draw(rates),), (draw(rates),))
    if shape == "trapezoid":
        return DemandProfile.trapezoid(draw(rates), draw(rates), *demand_times(draw, 4, dt_s, horizon_h))
    n = draw(st.integers(2, 5))
    hov, sov = [draw(rates)], [draw(rates)]
    for _ in range(n - 1):
        flat = draw(st.booleans())
        hov.append(hov[-1] if flat else draw(rates))
        sov.append(sov[-1] if flat else draw(rates))
    return DemandProfile(tuple(demand_times(draw, n, dt_s, horizon_h)), tuple(hov), tuple(sov))


@st.composite
def short_configs(draw):
    """Field overrides of the ``constant`` preset for a run of at most 0.05 h or 5 coarse steps.

    A coarse step completes more trips than a group holds (dt * u_f / D > 1), so
    without enough inflow it drives the count below 0 and the lower clamp engages.
    Each group has its own diagram and 1 to 6 lanes on the unit corridor, and its
    initial trips fit under its jam cap, so the draws are valid configs.
    """
    dt_s = draw(st.sampled_from((0.1, 0.5, 1.0, 5.0, 360.0)))
    horizon_h = draw(st.floats(1e-4, 0.05 if dt_s < 360.0 else 0.5))
    hot_lanes, gp_lanes = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    fd_hot, fd_gp = draw(diagrams()), draw(diagrams())
    return {
        "dt_s": dt_s,
        "output_dt_s": dt_s,
        "horizon_h": horizon_h,
        "demand": draw(demands(dt_s, horizon_h)),
        "controller": ControllerState(**{k: draw(gains) for k in ("k1", "k2", "k3", "k4")}),
        "hot_lanes": hot_lanes,
        "gp_lanes": gp_lanes,
        "initial_hot_trips": draw(trips(fd_hot, hot_lanes)),
        "initial_gp_trips": draw(trips(fd_gp, gp_lanes)),
        "choice": choice_of(draw(st.sampled_from(("ue", "logit"))),
                            draw(st.sampled_from(("exponential", "uniform"))), draw(uniform_bounds)),
        "mode": draw(st.sampled_from(("hot", "hov"))),
        "fd_hot": fd_hot,
        "fd_gp": fd_gp,
    }


def identical(got, want):
    """Equal, and of the same sign when zero: -0.0 and 0.0 are told apart."""
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def close(got, want, *running):
    """``got == want`` to 1e-9 relative.

    Increments are differences of running counts, which carry rounding of
    about one ulp of their size; 1e-12 of the largest count bounds that.
    """
    return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12 * max(map(abs, running)))


# a group without lanes, and a start above the jam cap without a flow floor, are config errors
@example({"hot_lanes": 0})
@example({"fd_gp": BASE_FD, "initial_gp_trips": 140.5})
# a positive HOT speed too small for a finite reciprocal is a gridlock, not a gap of -inf
@example({"fd_hot": replace(preset("constant").fd_hot, c=1e-320), "initial_hot_trips": 140.0,
          "horizon_h": 0.01})
# a start just under the GP jam cap, without a flow floor, reaches the cap at t = 0.0016 h
@example({"fd_gp": BASE_FD, "initial_gp_trips": 139.9, "horizon_h": 0.01, "output_dt_s": 0.1})
# over-critical starts post a toll that sweeps each UniformVot's thresholds through [low, high]
@example({"horizon_h": 0.05, "output_dt_s": 0.1, "initial_hot_trips": 50.0,
          "initial_gp_trips": 50.0, "choice": UniformVot(10.0, 90.0)})
@example({"horizon_h": 0.05, "output_dt_s": 0.1, "initial_hot_trips": 100.0,
          "initial_gp_trips": 100.0, "choice": UniformVot(0.6003328378632581, 1.6014561504779194)})
@settings(derandomize=True, deadline=None, max_examples=375)
@given(short_configs())
def test_run_outcome_and_invariants(overrides):
    try:
        config = replace(preset("constant"), **overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # random demand need not overload the corridor
            records = run(config)
    except (ConfigError, HotGridlockError) as exc:
        event(type(exc).__name__)
        return
    event("records")
    event(f"{config.demand.kind} demand")
    assert isinstance(records, list) and records

    for r in records:
        for name in FLOAT_COLUMNS:
            value = getattr(r, name)
            assert math.isfinite(value) or (name == "omega" and value == math.inf), (name, r)
        assert 0.0 <= r.p <= 1.0
        assert r.u >= 0.0
        # the loop's inline speeds, gap and phase labels equal their references bit for bit
        assert r.v1 == speed(config.fd_hot, r.rho1) and r.v2 == speed(config.fd_gp, r.rho2), r
        assert r.omega == (math.inf if r.v2 == 0.0 else 1.0 / r.v2 - 1.0 / r.v1), r
        assert r.phase1 == classify_phase(config.fd_hot, r.rho1), r
        assert r.phase2 == classify_phase(config.fd_gp, r.rho2), r
        # the demand the loop holds between reads, and its inline share, equal their references
        hov, sov = config.demand.held_rates(r.t)[:2]
        assert identical(r.e1_tilde, hov) and identical(r.e2_tilde, sov), r
        if config.mode == "hot" and r.omega >= 0.0:
            assert identical(r.p, config.choice.share(r.u, r.omega)), r

    # Mass balance across each Euler step, through steps clamped at 0, which serve
    # the trips before the step and its inflow; a step that lands on the GP jam cap
    # drops trips E never counts, so the check stops there.  A HOT count past its
    # cap is the gridlock, so no HOT step drops trips.
    dt = config.dt_s / 3600.0
    d1_init, d2_init = config.initial_hot_trips, config.initial_gp_trips
    cap2 = jam_trip_cap(config.fd_gp, config.gp_lanes * config.corridor_length)
    for r, nxt in zip(records, records[1:]):
        if nxt.delta2 == cap2:
            event("jam cap")
            break
        entered1, entered2 = dt * (r.e1_tilde + r.e21_tilde), dt * (r.e2_tilde - r.e21_tilde)
        if (nxt.delta1 == 0.0 < r.delta1) or (nxt.delta2 == 0.0 < r.delta2):
            event("clamped at 0")
        assert close(nxt.E1 - r.E1, entered1,
                     r.E1, nxt.E1, r.G1, nxt.G1, r.delta1, nxt.delta1, d1_init)
        assert close(nxt.E2 - r.E2, entered2,
                     r.E2, nxt.E2, r.G2, nxt.G2, r.delta2, nxt.delta2, d2_init)
        served1 = r.delta1 + entered1 if nxt.delta1 == 0.0 else dt * r.g1
        served2 = r.delta2 + entered2 if nxt.delta2 == 0.0 else dt * r.g2
        assert close(nxt.G1 - r.G1, served1, r.G1, nxt.G1, r.delta1), (r, nxt)
        assert close(nxt.G2 - r.G2, served2, r.G2, nxt.G2, r.delta2), (r, nxt)
