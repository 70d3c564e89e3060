"""Metamorphic checks: a change of length unit changes every output exactly as its unit says.

Measuring lengths in a unit s times smaller multiplies each length and speed
by s and divides each density by s.  The toll is priced per length, so the
toll intercept ``b``, the toll ceiling and the toll itself divide by s, while
the slope ``a`` [$/h] does not change.  The gains follow from the integrators
a' = k1 lam - k2 xi and b' = k3 lam - k4 xi: ``k1`` scales by s and ``k4`` by
1/s.  The logit scale ``alpha_star`` [1/($/length)] scales by s.  Trip
counts, rates, the paying share and the time do not change (dimensional
analysis: Barenblatt, *Scaling, Self-similarity, and Intermediate
Asymptotics*, 1996).

Pricing in a currency m times smaller multiplies every price by m: the VOT,
the toll coefficients ``a`` and ``b``, the gains ``k1``-``k4`` (each is a
price per unit of lam or xi) and the toll ceiling; the logit scale, per unit
of price, divides by m.  The toll, ``a`` and ``b`` scale by m, and nothing
else changes.
"""

import warnings
from dataclasses import replace

import pytest

from hotlanes.analysis import constant_equilibrium, loop_matrix, max_outflow_cases
from hotlanes.lane_choice import LogitChoice
from hotlanes.presets import preset
from hotlanes.scenario import CSV_COLUMNS, DemandProfile, iter_run, run

# The power of s each record field scales by; the fields not named do not scale.
POWERS = {"rho1": -1, "rho2": -1, "v1": 1, "v2": 1, "omega": -1, "lam": -1, "b": -1, "u": -1}
FLOAT_COLUMNS = CSV_COLUMNS[: CSV_COLUMNS.index("phase1")]
LABEL_COLUMNS = CSV_COLUMNS[CSV_COLUMNS.index("phase1"):]
PRESETS = ("constant", "constant-logit", "trapezoid")
# At s = 1000 the scaled runs round differently, and the loop carries the
# difference.  On constant and constant-logit no field moves by more than
# 2e-14 of its range over 2 h.  On trapezoid the GP lanes congest near 0.42 h,
# where the gap 1/v2 - 1/v1 is about 6e-5 h/km, the difference of two inverse
# speeds near 0.01 h/km, and the share reads the ratio u / omega of two such
# small numbers; e21 moves there by 1.9e-8 of its range.  1e-7 leaves 5 times
# that, while a missed factor of s moves a field by the order of its range.
RANGE_TOL = 1e-7
# At m = 100 the repriced runs round differently too.  Over 2 h no field moves
# by more than 7.1e-15 (constant) or 1.1e-14 (constant-logit) of its range; on
# trapezoid e21 moves by 6.3e-10 of its range at the same congestion onset.
# Each bound leaves about 10 times the measured worst.
PRICE_RANGE_TOL = {"constant": 1e-13, "constant-logit": 1e-13, "trapezoid": 1e-8}
PRICE_POWERS = {"a": 1, "b": 1, "u": 1}


def rescale(config, s):
    """``config`` with its lengths measured in a unit ``s`` times smaller."""

    def fd(f):
        return replace(f, u_f=f.u_f * s, w=f.w * s, rho_j=f.rho_j / s)

    c, choice = config.controller, config.choice
    if isinstance(choice, LogitChoice):
        choice = replace(choice, alpha_star=choice.alpha_star * s)
    return replace(
        config, fd_hot=fd(config.fd_hot), fd_gp=fd(config.fd_gp), choice=choice,
        corridor_length=config.corridor_length * s,
        mean_trip_distance=config.mean_trip_distance * s,
        controller=replace(c, b=c.b / s, k1=c.k1 * s, k4=c.k4 / s,
                           toll_ceiling=c.toll_ceiling / s),
    )


def reprice(config, m):
    """``config`` with its prices in a currency ``m`` times smaller."""
    c, choice = config.controller, config.choice
    if isinstance(choice, LogitChoice):
        choice = replace(choice, pi_star=choice.pi_star * m, alpha_star=choice.alpha_star / m)
    else:  # UE over the exponential VOT
        choice = replace(choice, mean=choice.mean * m)
    return replace(
        config, choice=choice,
        controller=replace(c, a=c.a * m, b=c.b * m, k1=c.k1 * m, k2=c.k2 * m, k3=c.k3 * m,
                           k4=c.k4 * m, toll_ceiling=c.toll_ceiling * m),
    )


def quiet_run(config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # trapezoid's peak is below joint capacity
        return run(config)


@pytest.fixture(scope="module")
def base_runs():
    """Each preset's config and records over 2 h."""
    configs = {name: replace(preset(name), horizon_h=2.0) for name in PRESETS}
    return {name: (cfg, quiet_run(cfg)) for name, cfg in configs.items()}


@pytest.mark.parametrize("name", PRESETS)
def test_binary_rescaling_is_exact(name, base_runs):
    # s = 4 is a power of two, so every product and quotient rescales without rounding
    cfg, base = base_runs[name]
    scaled = quiet_run(rescale(cfg, 4.0))
    assert len(scaled) == len(base)
    for col in FLOAT_COLUMNS:
        i, f = CSV_COLUMNS.index(col), 4.0 ** POWERS.get(col, 0)
        assert all(r[i] == q[i] * f for r, q in zip(scaled, base)), col
    for col in LABEL_COLUMNS:
        i = CSV_COLUMNS.index(col)
        assert [r[i] for r in scaled] == [q[i] for q in base], col


@pytest.mark.parametrize("name", PRESETS)
def test_decimal_rescaling_within_range_tolerance(name, base_runs):
    cfg, base = base_runs[name]
    scaled = quiet_run(rescale(cfg, 1000.0))
    assert len(scaled) == len(base)
    for col in FLOAT_COLUMNS:
        i, f = CSV_COLUMNS.index(col), 1000.0 ** POWERS.get(col, 0)
        values = [q[i] for q in base]
        span = (max(values) - min(values)) or 1.0
        worst = max(abs(r[i] / f - q[i]) for r, q in zip(scaled, base))
        assert worst <= RANGE_TOL * span, (col, worst / span)
    for col in LABEL_COLUMNS:
        i = CSV_COLUMNS.index(col)
        assert [r[i] for r in scaled] == [q[i] for q in base], col


@pytest.mark.parametrize("name", PRESETS)
def test_price_rescaling_within_range_tolerance(name, base_runs):
    cfg, base = base_runs[name]
    scaled = quiet_run(reprice(cfg, 100.0))
    assert len(scaled) == len(base)
    for col in FLOAT_COLUMNS:
        i, f = CSV_COLUMNS.index(col), 100.0 ** PRICE_POWERS.get(col, 0)
        values = [q[i] for q in base]
        span = (max(values) - min(values)) or 1.0
        worst = max(abs(r[i] / f - q[i]) for r, q in zip(scaled, base))
        assert worst <= PRICE_RANGE_TOL[name] * span, (col, worst / span)
    for col in LABEL_COLUMNS:
        i = CSV_COLUMNS.index(col)
        assert [r[i] for r in scaled] == [q[i] for q in base], col


@pytest.mark.parametrize("s", [4.0, 1000.0])
@pytest.mark.parametrize("rho_tot", [30.0, 60.0, 200.0])
def test_max_outflow_scales_with_the_length_unit(rho_tot, s):
    # outflow is in veh/h, so it and g_c stay; the densities that bound the split divide by s
    cfg = preset("triangular-gridlock")
    res, res_s = max_outflow_cases(cfg, rho_tot), max_outflow_cases(rescale(cfg, s), rho_tot / s)
    assert res_s.max_outflow == pytest.approx(res.max_outflow, rel=1e-12)
    assert res_s.g_c == pytest.approx(res.g_c, rel=1e-12)
    for field in ("argmax_lo", "argmax_hi", "feasible_lo", "feasible_hi"):
        assert getattr(res_s, field) == pytest.approx(getattr(res, field) / s, rel=1e-12), field
    assert res_s.a1_applicable == res.a1_applicable


def test_one_lane_of_length_2l_equals_two_lanes_of_length_l():
    # the loop, the A1 check and the closed forms read the lanes only through the lane-length
    cfg = replace(preset("constant"), horizon_h=0.5, corridor_length=0.75,
                  demand=DemandProfile.constant(300.0, 1290.0))
    long = replace(cfg, corridor_length=1.5)
    wide = replace(cfg, hot_lanes=2.0, gp_lanes=2.0)
    assert list(iter_run(long)) == list(iter_run(wide))
    assert long.a1_warnings() == wide.a1_warnings()
    assert constant_equilibrium(long) == constant_equilibrium(wide)


@pytest.mark.parametrize("s", [4.0, 1000.0])
@pytest.mark.parametrize("name", ["constant", "constant-logit"])
def test_closed_forms_scale_with_their_units(name, s):
    cfg = preset(name)
    scaled = rescale(cfg, s)
    pred, pred_s = constant_equilibrium(cfg), constant_equilibrium(scaled)
    assert pred_s.p0 == pytest.approx(pred.p0, rel=1e-13)
    assert pred_s.delta2_rate == pytest.approx(pred.delta2_rate, rel=1e-13)
    assert pred_s.omega0 == pytest.approx(pred.omega0 / s, rel=1e-13)
    assert pred_s.omega1 == pytest.approx(pred.omega1 / s, rel=1e-13)
    # the loop's eigenvalues are rates in 1/h: the state (xi, lam) rescales, they do not
    omega = pred.omega0 * 2.0 + pred.omega1
    for lam in (-1.0, 1.0):
        eigs = loop_matrix(cfg, lam, 0.0, omega).eigenvalues
        eigs_s = loop_matrix(scaled, lam / s, 0.0, omega / s).eigenvalues
        for z, z_s in zip(eigs, eigs_s):
            assert z_s == pytest.approx(z, rel=1e-12)


@pytest.mark.parametrize("s", [4.0, 1000.0])
@pytest.mark.parametrize("name", ["constant", "trapezoid", "triangular-gridlock"])
def test_a1_verdict_does_not_depend_on_the_unit(name, s):
    cfg = preset(name)
    assert bool(rescale(cfg, s).a1_warnings()) == bool(cfg.a1_warnings())
