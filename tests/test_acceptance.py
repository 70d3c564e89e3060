"""Acceptance suite: every top-level claim checked at its stated tolerance.

Each test registers a single pass/fail line that is printed in the
"acceptance criteria" section of the pytest terminal summary.  The heavy
closed-loop runs are shared through module-scoped fixtures.
"""

import math
import random
import statistics
import warnings
from dataclasses import replace

import pytest
from conftest import diagram_outflow, until_gp_jam

from hotlanes.analysis import (
    LinearizedSystem,
    loop_matrix,
    max_outflow_cases,
    triangular_growth,
)
from hotlanes.controller import ControllerState
from hotlanes.estimation import (
    EstimationError,
    estimate_cdf_point,
    estimate_logit_vot,
    pool_cdf_points,
)
from hotlanes.lane_choice import ExponentialVot, LogitChoice
from hotlanes.nfd import capacity, critical_density
from hotlanes.presets import preset
from hotlanes.scenario import (
    DemandProfile,
    ScenarioConfig,
    compare_hov_hot,
    constant_equilibrium,
    iter_run,
    run,
    write_csv,
)

RHO_C = 70.0 / 3.0
UE50 = ExponentialVot(50.0)
LOGIT50 = LogitChoice(pi_star=50.0, alpha_star=1.0)

# Criterion 2 follows the constant preset on to this horizon.  The leading-order
# closed form lam0 first falls below 0.05 veh/km at about 32 h; 48 h is 1.5 times
# that, and lam ~ 1/t^2 then puts lam(48 h) near 0.05 / 1.5^2 = 0.02.
LONG_HORIZON_H = 48.0
# The long run steps at 1 s instead of 0.1 s.  Euler's relative error per hour
# scales with dt times the fastest plant rate, the free-flow completion rate
# u_f / D = 20 /h, which is 0.6% at dt = 1 s.
STEP_TOL = 0.01
# The update arithmetic conserves the invariant exactly; only rounding moves it,
# by at most steps * eps = 1.7e5 * 2.2e-16 = 4e-11 of the size of its terms.
INVARIANT_TOL = 1e-9
# lam1 drops three terms of about 1% of lam each at 5 h, where lam is largest
# and from where they shrink with it: the next order in xi, (lam1/lam0 - 1)^2;
# the offset of b from the lam = 0 line, (k1 k4 - k2 k3) L1 lam / (k1 (b - B));
# and the share offset |p - p0| / p0, at most 1% by this criterion.  With the
# step error (below STEP_TOL) they sum to about 4%.
CLOSED_FORM_TOL = 0.05
# lam0 also drops the first-order xi term, at most lam1/lam0 - 1 = 10% of lam.
# Since lam falls like 1/t^2, a relative error e in lam moves its crossing of a
# fixed bound by about e/2.
CROSSING_TOL = 0.05


def quiet_run(config, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run(config, **kwargs)


@pytest.fixture(scope="module")
def constant_run():
    """The constant-demand study preset over its full 5 h horizon."""
    return quiet_run(preset("constant"))


@pytest.fixture(scope="module")
def constant_run_12h():
    """Longer constant-demand run for the growth-rate regressions."""
    return quiet_run(replace(preset("constant"), horizon_h=12.0))


@pytest.fixture(scope="module")
def constant_run_long():
    """The constant-demand preset run on to LONG_HORIZON_H at a 1 s step."""
    return quiet_run(
        replace(preset("constant"), horizon_h=LONG_HORIZON_H, dt_s=1.0, output_dt_s=60.0)
    )


@pytest.fixture(scope="module")
def logit_run():
    return quiet_run(replace(preset("constant-logit"), horizon_h=2.0))


def test_criterion_1_critical_density_and_capacity(criterion, fd_triangular):
    rho_c = critical_density(fd_triangular)
    cap = capacity(fd_triangular)
    ok = (
        math.isclose(rho_c, 70.0 / 3.0, rel_tol=1e-6)
        and math.isclose(cap, 7000.0 / 3.0, rel_tol=1e-6)
        and round(rho_c, 4) == 23.3333
        and round(cap, 2) == 2333.33
    )
    criterion(1, "critical density and capacity at study parameters", ok,
              f"rho_c={rho_c:.6f}, C0={cap:.4f}")
    assert ok


def slow_mode_closed_form(cfg, records, p0, invariant):
    """Leading- and first-order closed forms (lam0, lam1) of the excess density.

    Holding the share at p0 needs the toll u = A omega + B.  On the lam = 0
    line of the controller invariant, b = r a + beta, that fixes b as a
    function of the measured gap omega, and the coefficients can only slide
    along the line as omega grows if lam0 = (b - B) omega' / (omega^2 (k1 +
    k3 / omega)) > 0.  lam1 adds the residual service rate xi0 = -L1 lam0'
    that this slide implies.  Rates are central differences on the records,
    so one (lam0, lam1) pair is returned per record of ``records[2:-2]``.
    """
    c = cfg.controller
    L1 = cfg.hot_lanes * cfg.corridor_length
    A, B, _, _ = cfg.choice.toll_line(p0)
    r = c.k3 / c.k1
    beta = ((c.k1 * c.k4 - c.k2 * c.k3) * critical_density(cfg.fd_hot) * L1 - invariant) / c.k1
    ts = [rec.t for rec in records]
    omega = [rec.omega for rec in records]

    def rate(ys, i):
        return (ys[i + 1] - ys[i - 1]) / (ts[i + 1] - ts[i - 1])

    lam0 = [math.nan] * len(records)
    for i in range(1, len(records) - 1):
        w = omega[i]
        b = (r * A * w + r * B + beta * w) / (w + r)
        lam0[i] = (b - B) * rate(omega, i) / (w * w * (c.k1 + c.k3 / w))
    pairs = []
    for i in range(2, len(records) - 2):
        w = omega[i]
        xi0 = -L1 * rate(lam0, i)
        pairs.append((lam0[i], lam0[i] + (c.k2 + c.k4 / w) * xi0 / (c.k1 + c.k3 / w)))
    return pairs


def test_criterion_2_optimal_equilibrium(criterion, constant_run, constant_run_long):
    cfg = preset("constant")
    p0 = constant_equilibrium(cfg).p0
    last = constant_run[-1]
    xi_ok = abs(last.xi) < 5.0
    p_ok = abs(last.p - p0) / p0 <= 0.01

    # The long run at its record nearest the end of the 5 h run: the coarser
    # step must not move lam there by more than STEP_TOL.
    long_run = constant_run_long
    i5 = min(range(len(long_run)), key=lambda i: abs(long_run[i].t - last.t))
    step_ok = abs(long_run[i5].lam - last.lam) <= STEP_TOL * abs(last.lam)

    # I = k3 a - k1 b + (k1 k4 - k2 k3) delta1 is conserved while delta1 is
    # unclamped (see controller.update).
    c = cfg.controller
    mix = c.k1 * c.k4 - c.k2 * c.k3
    inv = [c.k3 * r.a - c.k1 * r.b + mix * r.delta1 for r in long_run]
    inv_size = max(abs(c.k3 * r.a) + abs(c.k1 * r.b) + abs(mix * r.delta1) for r in long_run)
    drift = max(abs(x - inv[0]) for x in inv) / inv_size
    inv_ok = drift <= INVARIANT_TOL

    # Before 5 h the loop is still in its transient (the HOT lanes run
    # under-critical until about 3 h and the share has not settled at p0), so
    # the closed form is checked from 5 h on.
    window = long_run[i5:-2]
    closed = slow_mode_closed_form(cfg, long_run[i5 - 2:], p0, inv[0])
    worst = max(abs(rec.lam - lam1) / abs(lam1) for rec, (_, lam1) in zip(window, closed))
    form_ok = worst <= CLOSED_FORM_TOL
    t_meas = next((r.t for r in long_run[i5:] if abs(r.lam) < 0.05), math.inf)
    t_pred = next((r.t for r, (lam0, _) in zip(window, closed) if abs(lam0) < 0.05), math.inf)
    cross_ok = abs(t_meas - t_pred) <= CROSSING_TOL * t_pred
    lam_ok = abs(long_run[-1].lam) < 0.05

    ok = xi_ok and p_ok and step_ok and inv_ok and form_ok and cross_ok and lam_ok
    detail = (
        f"lam(5h)={last.lam:.4f} vs lam1 {closed[0][1]:.4f} (lam0 {closed[0][0]:.4f}), "
        f"worst lam1 error {worst:.1%} (<{CLOSED_FORM_TOL:.0%}: {form_ok}), "
        f"|lam|<0.05 from {t_meas:.2f} h vs lam0 {t_pred:.2f} h ({cross_ok}), "
        f"|lam({LONG_HORIZON_H:.0f}h)|={abs(long_run[-1].lam):.4f} (<0.05: {lam_ok}), "
        f"invariant drift {drift:.1e} ({inv_ok}), dt=1s lam(5h) {long_run[i5].lam:.4f} ({step_ok}), "
        f"|xi(5h)|={abs(last.xi):.4f} (<5: {xi_ok}), "
        f"p={last.p:.5f} vs p0={p0:.5f} ({abs(last.p - p0) / p0:.2%}: {p_ok})"
    )
    criterion(2, "constant-demand closed loop converges to the optimal state along its slow mode",
              ok, detail)
    assert ok, detail


def test_criterion_3_linear_growth_regime(criterion, constant_run_12h):
    cfg = preset("constant")
    pred = constant_equilibrium(cfg)
    window = [r for r in constant_run_12h if r.t >= 9.0]
    ts = [r.t for r in window]
    slope_delta2, _ = statistics.linear_regression(ts, [r.delta2 for r in window])
    slope_omega, _ = statistics.linear_regression(ts, [r.omega for r in window])
    err_delta2 = abs(slope_delta2 - pred.delta2_rate) / pred.delta2_rate
    err_omega = abs(slope_omega - pred.omega0) / pred.omega0
    ok = err_delta2 <= 0.01 and err_omega <= 0.01
    criterion(3, "converged GP queue and gap grow at the predicted linear rates", ok,
              f"delta2 slope {slope_delta2:.2f} vs {pred.delta2_rate:.2f} "
              f"({err_delta2:.2%}), omega slope {slope_omega:.5f} vs {pred.omega0:.5f} "
              f"({err_omega:.2%})")
    assert ok


# Criterion 3 away from the unit corridor: id -> corridor length [km], HOT lanes,
# GP lanes, HOV and SOV demand [veh/h].  Each overloads the corridor as the
# constant preset does; the lengths and lane counts enter the closed forms only
# through the GP floor's service c L2 and the managed lanes' capacity.
GEOMETRIES = {
    "unit": (1.0, 1.0, 1.0, 200.0, 860.0),
    "2km-demand-x2": (2.0, 1.0, 1.0, 400.0, 1720.0),
    "0.5km-demand-x0.5": (0.5, 1.0, 1.0, 100.0, 430.0),
    "2-gp-lanes": (1.0, 1.0, 2.0, 200.0, 2200.0),
    "2+2-lanes-demand-x2": (1.0, 2.0, 2.0, 400.0, 1720.0),
}


@pytest.mark.parametrize("geometry", GEOMETRIES.values(), ids=GEOMETRIES)
def test_criterion_3_rates_hold_on_any_geometry(geometry):
    length, hot_lanes, gp_lanes, hov, sov = geometry
    cfg = replace(preset("constant"), corridor_length=length, hot_lanes=hot_lanes,
                  gp_lanes=gp_lanes, demand=DemandProfile.constant(hov, sov),
                  horizon_h=12.0, dt_s=0.5, output_dt_s=60.0)
    pred = constant_equilibrium(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # every geometry meets the overload assumptions
        window = [r for r in iter_run(cfg) if r.t >= 8.0]
    ts = [r.t for r in window]
    slope_delta2, _ = statistics.linear_regression(ts, [r.delta2 for r in window])
    slope_omega, _ = statistics.linear_regression(ts, [r.omega for r in window])
    assert slope_delta2 == pytest.approx(pred.delta2_rate, rel=0.01)
    assert slope_omega == pytest.approx(pred.omega0, rel=0.01)


def test_criterion_4_stability_verdicts(criterion):
    rng = random.Random(4242)
    mismatches = 0
    for _ in range(100):
        h = rng.uniform(1e-3, 2.0)
        j = rng.uniform(-50.0, 50.0)
        k1 = rng.uniform(0.1, 20.0)
        k2 = rng.uniform(0.1, 20.0)
        L1 = rng.uniform(0.5, 20.0)
        verdict = LinearizedSystem(h, j, k1, k2, L1).stable
        if verdict != (j - k2 * L1 < 0.0):
            mismatches += 1
    res = LinearizedSystem(1.0, 0.0, 8.0, 5.0, 10.0)
    eigs = sorted(z.real for z in res.eigenvalues)
    worked_ok = abs(eigs[0] + 4.8345) <= 1e-4 and abs(eigs[1] + 0.1655) <= 1e-4
    ok = mismatches == 0 and worked_ok
    criterion(4, "eigenvalue verdicts match the analytic criterion", ok,
              f"{mismatches}/100 mismatches, worked eigenvalues {eigs[0]:.5f}, {eigs[1]:.5f}")
    assert ok


def test_criterion_5_triangular_gridlock(criterion):
    base = preset("triangular-gridlock")
    rng = random.Random(12345)
    jam_times = []
    for _ in range(10):
        gains = {k: rng.uniform(1.0, 20.0) for k in ("k1", "k2", "k3", "k4")}
        cfg = replace(base, controller=ControllerState(**gains), horizon_h=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            last = until_gp_jam(cfg)[-1]
        jam_times.append(last.t if last.rho2 >= 140.0 * (1.0 - 1e-9) else math.inf)
    all_jam = all(math.isfinite(t) for t in jam_times)

    # over-critical segment tracks the exponential closed form at dt = 0.01 s: in
    # HOV mode nobody pays, so the one GP lane of the 1 km corridor takes all of e2
    p0 = constant_equilibrium(base).p0
    e2 = 860.0 * (1.0 - p0)
    plant = replace(base, mode="hov", demand=DemandProfile.constant(0.0, e2),
                    initial_gp_trips=42.0, dt_s=0.01, output_dt_s=0.01)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # SOV demand alone need not overload the corridor
        rows = iter_run(plant)
        next(rows)  # the initial state
        for row in rows:
            expected = triangular_growth(base, 42.0, row.t)
            worst = max(worst, abs(row.delta2 - expected) / expected)
            if row.delta2 >= 135.0:
                break
    track_ok = worst < 5e-3
    ok = all_jam and track_ok
    criterion(5, "triangular diagram gridlocks under any gains; SOC growth matches closed form",
              ok, f"jam times {min(jam_times):.2f}-{max(jam_times):.2f} h, "
              f"worst tracking error {worst:.2e}")
    assert ok


def test_criterion_6_max_outflow_brute_force(criterion, fd_triangular):
    rho_j = fd_triangular.rho_j
    two_groups = ScenarioConfig(  # one lane per group on a 10 km corridor, D = 5 km
        fd_hot=fd_triangular, fd_gp=fd_triangular, demand=DemandProfile.constant(0.0, 0.0),
        corridor_length=10.0, hot_lanes=1.0, gp_lanes=1.0, mean_trip_distance=5.0,
    )
    grid_step = 1e-3 * rho_j
    worst_gap = 0.0
    stray = 0
    for k in range(1, 21):
        rho_tot = RHO_C + k / 21.0 * (2.0 * rho_j - RHO_C)
        res = max_outflow_cases(two_groups, rho_tot)
        n = int((res.feasible_hi - res.feasible_lo) / grid_step) + 1
        best = -1.0
        argmaxes = []
        for i in range(n):
            rho1 = res.feasible_lo + i * grid_step
            g = diagram_outflow(two_groups, rho_tot, rho1)
            if g > best * (1.0 + 1e-12):
                best, argmaxes = g, [rho1]
            elif g >= best * (1.0 - 1e-12):
                argmaxes.append(rho1)
        worst_gap = max(worst_gap, abs(best - res.max_outflow) / max(res.max_outflow, 1e-9))
        stray += sum(
            not (res.argmax_lo - grid_step <= r <= res.argmax_hi + grid_step)
            for r in argmaxes
        )
        for rho1 in (res.argmax_lo, res.argmax_hi):
            assert diagram_outflow(two_groups, rho_tot, rho1) == pytest.approx(
                res.max_outflow, rel=1e-9)
    ok = worst_gap <= 1e-9 and stray == 0
    criterion(6, "grid search lands on the analytic max-outflow set", ok,
              f"worst value gap {worst_gap:.2e}, stray argmax points {stray}")
    assert ok


def test_criterion_7_choice_model_properties(criterion, fd_floor):
    us = [0.05 + 2.95 * i / 19.0 for i in range(20)]
    omegas = [0.002 + 0.058 * i / 19.0 for i in range(20)]
    h = 1e-7
    sign_ok = True
    for u in us:
        for om in omegas:
            for share in (UE50.share, LOGIT50.share):
                sign_ok &= share(u + h, om) - share(u - h, om) < 0.0
                sign_ok &= share(u, om + h) - share(u, om - h) > 0.0

    round_trip_err = 0.0
    for p in [0.02 + 0.46 * i / 19.0 for i in range(20)]:
        for om in omegas:
            a_ue, b_ue, _, _ = UE50.toll_line(p)
            u_ue = a_ue * om + b_ue
            round_trip_err = max(round_trip_err, abs(UE50.share(u_ue, om) - p) / p)
            a_lg, b_lg, _, _ = LOGIT50.toll_line(p)
            u_lg = a_lg * om + b_lg
            if u_lg >= 0.0:
                round_trip_err = max(
                    round_trip_err, abs(LOGIT50.share(u_lg, om) - p) / p
                )
    rt_ok = round_trip_err <= 1e-10

    one_lane = ScenarioConfig(
        fd_hot=fd_floor, fd_gp=fd_floor, demand=DemandProfile.constant(200.0, 860.0),
        corridor_length=1.0, hot_lanes=1.0, mean_trip_distance=5.0, choice=UE50,
    )

    def sensitivity(rho1, direction, step=1e-6):
        # the share slope in lam or xi at xi = 0, read through loop_matrix on one
        # HOT lane of a 1 km corridor, D = 5 km: -J / H = (L1 / D) g1', and the
        # UE toll slope -mean / p gives H = mean / (p e2), so p = mean / (H e2)
        lam = rho1 - critical_density(fd_floor)
        if direction == "lam":
            m = loop_matrix(one_lane, lam, 0.0, 0.1)
            return -m.J / (m.H * 860.0)

        def share(xi):
            return 50.0 / (loop_matrix(one_lane, lam, xi, 0.1).H * 860.0)

        return (share(step) - share(-step)) / (2.0 * step)

    sens_ok = (
        sensitivity(12.0, "lam") > 0.0
        and sensitivity(35.0, "lam") < 0.0
        and abs(sensitivity(60.0, "lam")) <= 1e-9
        and sensitivity(30.0, "xi") < 0.0
    )
    ok = sign_ok and rt_ok and sens_ok
    criterion(7, "behavioral signs, inverse round-trips and phase sensitivities", ok,
              f"signs {sign_ok}, max round-trip err {round_trip_err:.1e}, "
              f"phase sensitivities {sens_ok}")
    assert ok


def test_criterion_8_residual_identity_scales_with_dt(criterion):
    base = replace(preset("constant"), horizon_h=1.0, initial_gp_trips=46.67)
    residuals = {}
    for dt_s in (0.1, 0.05, 0.025):
        cfg = replace(base, dt_s=dt_s, output_dt_s=dt_s)
        records = quiet_run(cfg)
        lam = [r.lam for r in records]
        xi = [r.xi for r in records]
        dt = dt_s / 3600.0
        L1 = cfg.hot_lanes * cfg.corridor_length
        residuals[dt_s] = max(
            abs(xi[k] + L1 * (lam[k] - lam[k - 1]) / dt) for k in range(1, len(lam))
        )
        del records
    r1 = residuals[0.1] / residuals[0.05]
    r2 = residuals[0.05] / residuals[0.025]
    ok = 1.7 <= r1 <= 2.3 and 1.7 <= r2 <= 2.3
    criterion(8, "service-rate identity error shrinks linearly with dt", ok,
              f"max residuals {residuals[0.1]:.3f}/{residuals[0.05]:.3f}/"
              f"{residuals[0.025]:.3f}, ratios {r1:.2f}, {r2:.2f}")
    assert ok


def test_criterion_9_estimation_round_trips(criterion, constant_run, logit_run):
    points = []
    for r in constant_run:
        try:
            x, f_hat = estimate_cdf_point(r)
        except EstimationError:
            continue
        if x <= 300.0:
            points.append((x, f_hat))
    pooled = pool_cdf_points(points, num_bins=40)
    cdf_err = max(abs(f_hat - (1.0 - math.exp(-x / 50.0))) for x, f_hat, _ in pooled)
    ue_ok = cdf_err <= 0.02 and len(pooled) >= 10

    votes = []
    for r in logit_run:
        try:
            votes.append(estimate_logit_vot(r, alpha_star=1.0))
        except EstimationError:
            continue
    vot_err = max(abs(v - 50.0) / 50.0 for v in votes)
    logit_ok = vot_err <= 0.01 and len(votes) > 1000
    ok = ue_ok and logit_ok
    criterion(9, "noiseless runs identify the generating VOT information", ok,
              f"max CDF error {cdf_err:.4f} over {len(pooled)} bins, "
              f"max VOT error {vot_err:.2e} over {len(votes)} observations")
    assert ok


def test_criterion_10_hov_vs_hot_comparison(criterion):
    cfg = preset("trapezoid")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = compare_hov_hot(cfg)
    delay_ok = (
        result.hot.total_delay < result.hov.total_delay
        and result.hot.gp.total_delay < result.hov.gp.total_delay
    )
    served_ok = result.hot.hot.served > result.hov.hot.served
    ratio = result.peak_gap_ratio
    ratio_ok = ratio > 3.0
    ok = delay_ok and served_ok and ratio_ok
    criterion(10, "pricing beats HOV-only operation on the peak-demand preset", ok,
              f"delay {result.hot.total_delay:.0f} vs {result.hov.total_delay:.0f} veh h, "
              f"managed served {result.hot.hot.served:.0f} vs {result.hov.hot.served:.0f}, "
              f"gap ratio {ratio:.2f}")
    assert ok


def test_criterion_11_deterministic_output(criterion, tmp_path):
    cfg = replace(preset("constant"), horizon_h=0.25)
    paths = []
    for name in ("first.csv", "second.csv"):
        p = tmp_path / name
        write_csv(quiet_run(cfg), str(p))
        paths.append(p)
    ok = paths[0].read_bytes() == paths[1].read_bytes()
    criterion(11, "identical configs produce byte-identical CSV output", ok,
              f"{paths[0].stat().st_size} bytes compared")
    assert ok
