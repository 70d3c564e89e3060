"""Equilibrium predictors, linearized stability and outflow characterization."""

import math
import random
from dataclasses import replace

import pytest
from conftest import diagram_outflow

from hotlanes.analysis import (
    A1ViolationError,
    LinearizedSystem,
    constant_equilibrium,
    loop_matrix,
    max_outflow_cases,
    triangular_growth,
)
from hotlanes.lane_choice import ExponentialVot, LogitChoice, UniformVot
from hotlanes.nfd import FdParams, capacity, critical_density, flow, flow_slope
from hotlanes.presets import apply_overrides
from hotlanes.scenario import DemandProfile, ScenarioConfig

RHO_C = 70.0 / 3.0


def study(hov=2000.0, sov=8600.0):
    """The constant preset on a 10 km corridor with the given constant demand."""
    return replace(apply_overrides(None, "constant", []), corridor_length=10.0,
                   demand=DemandProfile.constant(hov, sov))


class TestEquilibriumShare:
    def test_study_parameters(self):
        p0 = constant_equilibrium(study()).p0
        assert p0 == pytest.approx(13333.0 / 43000.0, rel=1e-3)
        assert p0 == pytest.approx(0.3101, rel=1e-3)

    def test_share_in_unit_interval(self):
        p0 = constant_equilibrium(apply_overrides(None, "constant", [])).p0
        assert 0.0 < p0 < 1.0

    def test_doubling_sov_demand_halves_share(self):
        p0 = constant_equilibrium(study()).p0
        p0_double = constant_equilibrium(study(sov=17200.0)).p0
        assert p0_double == pytest.approx(p0 / 2.0)

    def test_saturating_hov_demand_rejected(self):
        # numerator <= 0 sits on or beyond the overload boundary
        e1 = 10.0 * RHO_C * 100.0 / 5.0 * (1.0 + 1e-9)
        with pytest.raises(A1ViolationError, match="HOV demand"):
            constant_equilibrium(study(hov=e1))

    def test_share_vanishes_near_hov_saturation(self):
        e1 = 10.0 * RHO_C * 100.0 / 5.0
        p0 = constant_equilibrium(study(hov=e1 * (1 - 1e-9))).p0
        assert p0 == pytest.approx(0.0, abs=1e-9)

    def test_low_sov_demand_rejected(self):
        with pytest.raises(A1ViolationError, match="SOV demand"):
            constant_equilibrium(study(sov=3000.0))

    def test_check_a1_lists_all_failures(self):
        failures = study(hov=4700.0, sov=100.0).a1_warnings()
        assert len(failures) == 3

    def test_time_varying_demand_rejected(self):
        with pytest.raises(ValueError, match="constant demand"):
            constant_equilibrium(apply_overrides(None, "trapezoid", []))


def gridlock_study():
    """The triangular-gridlock preset on a 10 km corridor, 2000 HOV and 8600 SOV veh/h."""
    return replace(apply_overrides(None, "triangular-gridlock", []), corridor_length=10.0,
                   demand=DemandProfile.constant(2000.0, 8600.0))


class TestTriangularGrowth:
    def test_initial_condition(self):
        assert triangular_growth(gridlock_study(), 500.0, 0.0) == 500.0

    def test_fixed_point_is_constant(self):
        cfg = gridlock_study()
        p0, e2, w, d, rho_j, L2 = constant_equilibrium(cfg).p0, 8600.0, 20.0, 5.0, 140.0, 10.0
        delta0 = rho_j * L2 - d * e2 * (1 - p0) / w
        for t in (0.1, 1.0, 3.0):
            assert triangular_growth(cfg, delta0, t) == pytest.approx(delta0)

    def test_monotone_growth_above_fixed_point(self):
        vals = [triangular_growth(gridlock_study(), 500.0, t) for t in (0.0, 0.2, 0.4)]
        assert vals[0] < vals[1] < vals[2]

    def test_reads_the_gp_side_of_the_config(self):
        # two GP lanes of half the jam density hold the same jam trip count; the managed
        # lanes' own diagram does not enter
        cfg = gridlock_study()
        half = replace(cfg.fd_gp, rho_j=70.0)
        two_lanes = replace(cfg, fd_gp=half, gp_lanes=2.0)
        assert triangular_growth(two_lanes, 500.0, 0.3) == pytest.approx(
            triangular_growth(cfg, 500.0, 0.3), rel=1e-12)

    def test_raises_as_constant_equilibrium(self):
        with pytest.raises(ValueError, match="constant demand"):
            triangular_growth(apply_overrides(None, "trapezoid", []), 500.0, 0.1)


class TestAtfdGrowthRates:
    """The flow-floor (ATFD) queue and gap lines of ``constant_equilibrium``."""

    def test_study_parameters(self):
        cfg = study()
        pred = constant_equilibrium(cfg)
        c = cfg.fd_gp.c
        assert c == pytest.approx(1866.67, rel=1e-5)
        assert pred.p0 == pytest.approx(constant_equilibrium(cfg).p0)
        assert pred.delta2_rate == pytest.approx(8600.0 * (1 - pred.p0) - c * 10.0 / 5.0, rel=1e-12)
        assert pred.delta2_rate == pytest.approx(2200.0, rel=1e-9)
        assert pred.omega0 == pytest.approx(pred.delta2_rate / (c * 10.0), rel=1e-12)
        assert pred.omega1 == pytest.approx((140.0 - c / 20.0) / c - 0.01, rel=1e-12)
        assert pred.regime == "linear"

    def test_balanced_floor_has_zero_slope(self):
        # delta2' = ((e1 + e2) D - L1 C1 - L2 c) / D: a floor below capacity C2 keeps the
        # queue growing whenever A1 holds, so the slope reaches 0 only with the floor at
        # capacity and total demand at the joint capacity
        fd_ramp = replace(study().fd_gp, c=capacity(study().fd_gp))
        joint = 2.0 * 10.0 * RHO_C * 100.0
        pred = constant_equilibrium(replace(study(sov=joint * (1 + 1e-12) / 5.0 - 2000.0),
                                            fd_gp=fd_ramp))
        assert pred.omega0 == pytest.approx(0.0, abs=1e-12)
        assert pred.delta2_rate == pytest.approx(0.0, abs=1e-6)

    def test_requires_positive_floor(self):
        pred = constant_equilibrium(apply_overrides(None, "triangular-gridlock", []))
        assert pred.regime == "exponential"
        assert math.isnan(pred.omega0) and math.isnan(pred.omega1)
        assert math.isnan(pred.delta2_rate)

    def test_gap_intercept_uses_the_hot_free_flow_speed(self):
        # at the optimum the managed lanes run at critical density, at their own u_f
        cfg = replace(study(), fd_gp=FdParams(u_f=60.0, w=20.0, rho_j=140.0, c=1866.67))
        pred = constant_equilibrium(cfg)
        assert pred.omega1 == pytest.approx((140.0 - 1866.67 / 20.0) / 1866.67 - 1.0 / 100.0)


class TestLinearizedMatrix:
    def test_direct_substitution(self):
        (m11, m12), (m21, m22) = LinearizedSystem(H=1.0, J=0.0, K1=8.0, K2=5.0, L1=10.0).matrix
        assert m11 == pytest.approx(-5.0)
        assert m12 == pytest.approx(8.0)
        assert m21 == pytest.approx(-0.1)
        assert m22 == 0.0

    def test_zero_top_left_when_j_matches(self):
        sys = LinearizedSystem(H=2.0, J=50.0, K1=8.0, K2=5.0, L1=10.0)
        assert sys.matrix[0][0] == pytest.approx(0.0)

    def test_first_row_scales_inversely_with_h(self):
        s1 = LinearizedSystem(H=1.0, J=3.0, K1=8.0, K2=5.0, L1=10.0).matrix
        s2 = LinearizedSystem(H=2.0, J=3.0, K1=8.0, K2=5.0, L1=10.0).matrix
        assert s2[0][0] == pytest.approx(s1[0][0] / 2.0)
        assert s2[0][1] == pytest.approx(s1[0][1] / 2.0)

    def test_non_positive_h_rejected(self):
        with pytest.raises(ValueError):
            LinearizedSystem(H=0.0, J=0.0, K1=8.0, K2=5.0, L1=10.0)

    def test_lane_length_must_be_positive(self):
        # 1e-300 is a length whose loop is finite; at 0 and below the length check rejects it
        assert LinearizedSystem(H=1.0, J=0.0, K1=8.0, K2=5.0, L1=1e-300).stable
        for L1 in (0.0, -0.0, -1.0):
            with pytest.raises(ValueError, match="lane length must be positive"):
                LinearizedSystem(H=1.0, J=0.0, K1=8.0, K2=5.0, L1=L1)


class TestStability:
    def test_worked_eigenvalues(self):
        res = LinearizedSystem(H=1.0, J=0.0, K1=8.0, K2=5.0, L1=10.0)
        eigs = sorted(z.real for z in res.eigenvalues)
        assert eigs[0] == pytest.approx(-4.8345, abs=1e-4)
        assert eigs[1] == pytest.approx(-0.1655, abs=1e-4)
        assert res.stable

    def test_under_critical_always_stable(self):
        rng = random.Random(7)
        for _ in range(50):
            sys = LinearizedSystem(
                H=rng.uniform(0.01, 2.0), J=-rng.uniform(0.01, 50.0),
                K1=rng.uniform(0.1, 20.0), K2=rng.uniform(0.1, 20.0),
                L1=rng.uniform(0.5, 20.0),
            )
            assert sys.stable

    def test_over_critical_needs_large_k2(self):
        unstable = LinearizedSystem(H=1.0, J=100.0, K1=8.0, K2=5.0, L1=10.0)
        assert not unstable.stable
        stable = LinearizedSystem(H=1.0, J=100.0, K1=8.0, K2=15.0, L1=10.0)
        assert stable.stable

    def test_complex_pair_classified_by_real_part(self):
        # small damping, large coupling: complex eigenvalues
        res = LinearizedSystem(H=1.0, J=-0.5, K1=100.0, K2=0.1, L1=1.0)
        assert res.eigenvalues[0].imag != 0.0
        assert res.stable

    def test_root_near_zero_does_not_cancel(self):
        # trace -20, det 4e-299: the roots are -2e-300 and -20, both negative
        res = LinearizedSystem(H=1e300, J=-2e301, K1=40.0, K2=0.0, L1=1.0)
        assert res.eigenvalues == (complex(-2e-300, 0.0), complex(-20.0, 0.0))
        assert res.stable

    def test_squared_half_trace_past_the_float_range(self):
        # trace -1e250 squares past the floats; the roots are -8e-50 and -1e250
        res = LinearizedSystem(H=1e-200, J=0.0, K1=8.0, K2=1e50, L1=1.0)
        small, big = res.eigenvalues
        assert (small.imag, big.imag) == (0.0, 0.0)
        assert small.real == pytest.approx(-8e-50, rel=1e-15)
        assert big.real == pytest.approx(-1e250, rel=1e-15)
        assert res.stable

    def test_centre_is_not_asymptotically_stable(self):
        # trace exactly 0 and determinant 1: the undamped pair +-1j neither grows nor decays
        res = LinearizedSystem(H=1.0, J=2.0, K1=1.0, K2=2.0, L1=1.0)
        assert res.eigenvalues == (1j, -1j)
        assert not res.stable

    def test_saddle_is_unstable(self):
        res = LinearizedSystem(H=1.0, J=0.0, K1=-8.0, K2=5.0, L1=10.0)
        hi, lo = res.eigenvalues
        assert lo.real < 0.0 < hi.real
        assert not res.stable

    @pytest.mark.parametrize("kwargs", [
        {"H": math.inf}, {"J": math.nan}, {"K1": math.inf}, {"K2": -math.inf},
        {"L1": math.nan}, {"H": 1e-300, "K1": 1e10}, {"H": 1e-300, "K2": 1e10},
    ], ids=["H", "J", "K1", "K2", "L1", "det-overflows", "trace-overflows"])
    def test_non_finite_inputs_trace_or_determinant_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            LinearizedSystem(**{"H": 1.0, "J": 0.0, "K1": 8.0, "K2": 5.0, "L1": 10.0, **kwargs})

    def test_extreme_finite_trace_and_determinant_give_finite_roots(self):
        # trace 1.7e308 and det -1e290: the roots are about 1.7e308 and -5.9e-19
        hi, lo = LinearizedSystem(H=1e-300, J=1.7e8, K1=-1e-10, K2=0.0, L1=1.0).eigenvalues
        assert hi.real == pytest.approx(1.7e308, rel=1e-15)
        assert lo.real == pytest.approx(-1e290 / 1.7e308, rel=1e-15)


def two_groups(fd, lanes=1.0):
    """Both lane groups on ``fd`` with ``lanes`` lanes each on a 10 km corridor, D = 5 km."""
    return ScenarioConfig(fd_hot=fd, fd_gp=fd, demand=DemandProfile.constant(0.0, 0.0), corridor_length=10.0,
                          hot_lanes=lanes, gp_lanes=lanes, mean_trip_distance=5.0)


class TestMaxOutflow:
    def test_critical_split_matches_congested_plateau(self, fd_triangular):
        cfg = two_groups(fd_triangular)
        res = max_outflow_cases(cfg, 60.0)
        assert diagram_outflow(cfg, 60.0, RHO_C) == pytest.approx(res.g_c, rel=1e-9)
        assert diagram_outflow(cfg, 60.0, 60.0 - RHO_C) == pytest.approx(res.g_c, rel=1e-9)

    def test_double_jam_has_zero_outflow(self, fd_triangular):
        res = max_outflow_cases(two_groups(fd_triangular), 280.0)
        assert res.max_outflow == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("rho_tot", [30.0, 60.0, 120.0, 200.0, 260.0])
    def test_grid_search_confirms_argmax(self, fd_triangular, rho_tot):
        cfg = two_groups(fd_triangular)
        res = max_outflow_cases(cfg, rho_tot)
        step = 1e-3 * fd_triangular.rho_j
        n = int((res.feasible_hi - res.feasible_lo) / step) + 1
        values = [diagram_outflow(cfg, rho_tot, res.feasible_lo + k * step) for k in range(n)]
        best = max(values)
        assert best == pytest.approx(res.max_outflow, rel=1e-9)
        for k, v in enumerate(values):
            if v >= best * (1.0 - 1e-12):
                rho1 = res.feasible_lo + k * step
                assert res.argmax_lo - step <= rho1 <= res.argmax_hi + step

    def test_floor_diagram_rejected(self, fd_floor):
        with pytest.raises(ValueError):
            max_outflow_cases(two_groups(fd_floor), 60.0)

    def test_a1_applicability_flag(self, fd_triangular):
        assert max_outflow_cases(two_groups(fd_triangular), 60.0).a1_applicable
        assert not max_outflow_cases(two_groups(fd_triangular), 10.0).a1_applicable
        # both bounds are strict: exactly critical, and exactly twice the jam density
        rho_c = critical_density(fd_triangular)
        assert not max_outflow_cases(two_groups(fd_triangular), rho_c).a1_applicable
        assert not max_outflow_cases(two_groups(fd_triangular), 280.0).a1_applicable

    def test_total_density_outside_zero_to_twice_jam_rejected(self, fd_triangular):
        cfg = two_groups(fd_triangular)
        both_jammed = 2.0 * fd_triangular.rho_j
        assert max_outflow_cases(cfg, 0.0).max_outflow == 0.0
        assert max_outflow_cases(cfg, both_jammed).max_outflow == 0.0
        for rho_tot in (-5e-324, math.nextafter(both_jammed, math.inf), math.nan):
            with pytest.raises(ValueError, match="physical range"):
                max_outflow_cases(cfg, rho_tot)

    def test_groups_on_different_diagrams_or_lane_counts_rejected(self, fd_triangular):
        base = two_groups(fd_triangular)
        for cfg in (replace(base, fd_gp=replace(fd_triangular, u_f=80.0)),
                    replace(base, gp_lanes=2.0)):
            with pytest.raises(ValueError, match="one diagram and lane count"):
                max_outflow_cases(cfg, 60.0)

    def test_lanes_scale_the_outflow(self, fd_triangular):
        one, three = (max_outflow_cases(two_groups(fd_triangular, n), 60.0) for n in (1.0, 3.0))
        assert three.max_outflow == pytest.approx(3.0 * one.max_outflow, rel=1e-12)
        assert (three.argmax_lo, three.argmax_hi) == (one.argmax_lo, one.argmax_hi)


# The finite-difference chain that computed H and J before the closed forms of
# loop_matrix, kept as the reference they are checked against.


def ref_share_from_state(lam, xi, fd, L1, D, e1_tilde, e2_tilde):
    """Paying share implied by the plant state: p = (g1(lam) - e1 - xi) / e2."""
    rho = lam + critical_density(fd)
    if rho < 0:
        raise ValueError("state implies a negative density")
    return (flow(fd, rho) * L1 / D - e1_tilde - xi) / e2_tilde


def ref_choice_sensitivity(lam, xi, fd, L1, D, e1_tilde, e2_tilde, direction, step=1e-6):
    """Central difference of ref_share_from_state in ``lam`` or ``xi``."""
    dlam, dxi = (step, 0.0) if direction == "lam" else (0.0, step)
    hi = ref_share_from_state(lam + dlam, xi + dxi, fd, L1, D, e1_tilde, e2_tilde)
    lo = ref_share_from_state(lam - dlam, xi - dxi, fd, L1, D, e1_tilde, e2_tilde)
    return (hi - lo) / (2.0 * step)


def ref_toll(choice, p, omega):
    """The toll at which ``choice.share`` falls to ``p`` at gap ``omega``, by bisection.

    The share falls with the toll, so the bracket [lo, hi] keeps share(lo) > p
    >= share(hi); it halves until its ends are adjacent floats, well inside
    1e-12.  Needs share(0, omega) > p: a non-negative toll.
    """
    lo, hi = 0.0, 1.0
    if not choice.share(lo, omega) > p:
        raise ValueError(f"share {p} needs a negative toll at gap {omega}")
    while choice.share(hi, omega) > p:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if choice.share(mid, omega) > p:
            lo = mid
        else:
            hi = mid


def ref_toll_decomposition(choice, p, omega_a=0.01, omega_b=0.02):
    """(A, B) of u = A omega + B from the bisected tolls at share ``p`` and two gaps."""
    u_a = ref_toll(choice, p, omega_a)
    u_b = ref_toll(choice, p, omega_b)
    a = (u_b - u_a) / (omega_b - omega_a)
    return a, u_a - a * omega_a


def ref_gap_sensitivities(config, lam, xi, omega, step=1e-6):
    """H and J by central differences of the toll line in xi and lam."""
    L1 = config.hot_lanes * config.corridor_length
    args = (config.fd_hot, L1, config.mean_trip_distance,
            config.demand.hov_rates[0], config.demand.sov_rates[0])

    def slope(dlam, dxi):
        a_hi, b_hi = ref_toll_decomposition(
            config.choice, ref_share_from_state(lam + dlam, xi + dxi, *args))
        a_lo, b_lo = ref_toll_decomposition(
            config.choice, ref_share_from_state(lam - dlam, xi - dxi, *args))
        return (a_hi - a_lo) / (2.0 * step) + (b_hi - b_lo) / (2.0 * step) / omega

    return slope(0.0, step), slope(step, 0.0)


def one_lane(fd, choice=ExponentialVot(50.0)):
    """One HOT lane on a 1 km corridor, D = 5 km, 200 HOV and 860 SOV veh/h."""
    return ScenarioConfig(
        fd_hot=fd, fd_gp=fd, demand=DemandProfile.constant(200.0, 860.0),
        corridor_length=1.0, hot_lanes=1.0, mean_trip_distance=5.0, choice=choice,
    )


def sensitivity(rho1, fd, direction, xi=0.0, step=1e-6):
    """Share slope in ``lam`` or ``xi`` at (rho1, xi), read through loop_matrix.

    One HOT lane with the UE mean-50 choice: -J / H = (L1 / D) g1', and the
    UE toll slope -mean / p gives H = mean / (p e2), so p = mean / (H e2) is
    differenced in xi.
    """
    lam = rho1 - critical_density(fd)
    cfg = one_lane(fd)
    if direction == "lam":
        m = loop_matrix(cfg, lam, xi, 0.1)
        return -m.J / (m.H * 860.0)

    def share(xi_):
        return 50.0 / (loop_matrix(cfg, lam, xi_, 0.1).H * 860.0)

    return (share(xi + step) - share(xi - step)) / (2.0 * step)


class TestChoiceSensitivity:
    def test_share_formula_matches_equilibrium(self, fd_floor):
        # at lam = xi = 0 the UE toll slope is -mean / p, so H = mean / (p e2)
        h = loop_matrix(one_lane(fd_floor), 0.0, 0.0, 0.1).H
        p = 50.0 / (h * 860.0)
        assert p == pytest.approx(constant_equilibrium(apply_overrides(None, "constant", [])).p0, rel=1e-9)

    def test_decreasing_in_residual_service(self, fd_floor):
        # at rho1 = 10 the share at xi = 0 is exactly 0 (g1 L1 / D = e1), where
        # the toll is unbounded and loop_matrix raises; the share is linear in
        # xi, so there the slope is read at xi = -0.001 veh/h
        for rho1, xi in ((10.0, -1e-3), (30.0, 0.0), (60.0, 0.0)):
            d = sensitivity(rho1, fd_floor, "xi", xi=xi)
            assert d < 0.0
            assert d == pytest.approx(-1.0 / 860.0, rel=1e-6)

    def test_increasing_in_density_when_under_critical(self, fd_floor):
        d = sensitivity(12.0, fd_floor, "lam")
        assert d > 0.0

    def test_decreasing_on_congested_branch(self, fd_floor):
        d = sensitivity(35.0, fd_floor, "lam")
        assert d < 0.0

    def test_flat_on_flow_floor(self, fd_floor):
        # floor engages at rho = rho_j - c/w = 46.67
        d = sensitivity(60.0, fd_floor, "lam")
        assert d == pytest.approx(0.0, abs=1e-9)

    def test_one_sided_derivatives_bracket_zero_at_critical(self, fd_floor):
        # loop_matrix takes the right-hand slope at the kink by default, the left on request
        rho_c = critical_density(fd_floor)
        m = loop_matrix(one_lane(fd_floor), 0.0, 0.0, 0.1, side="left")
        left = -m.J / (m.H * 860.0)
        right = sensitivity(rho_c, fd_floor, "lam")
        assert left == pytest.approx(1.0 / 5.0 * flow_slope(fd_floor, rho_c, "left") / 860.0)
        assert right == pytest.approx(1.0 / 5.0 * flow_slope(fd_floor, rho_c, "right") / 860.0)
        assert left > 0.0 > right

    @pytest.mark.parametrize("rho1", [12.0, 30.0, 35.0, 60.0])
    @pytest.mark.parametrize("direction", ["lam", "xi"])
    def test_closed_slopes_match_the_reference(self, fd_floor, rho1, direction):
        lam = rho1 - critical_density(fd_floor)
        ref = ref_choice_sensitivity(lam, 0.0, fd_floor, 1.0, 5.0, 200.0, 860.0, direction)
        assert sensitivity(rho1, fd_floor, direction) == pytest.approx(ref, rel=1e-6, abs=1e-12)


class TestGapSensitivities:
    def test_h_positive_for_both_models(self, fd_floor):
        ue = ExponentialVot(50.0)
        logit = LogitChoice(50.0, 1.0)
        for choice in (ue, logit):
            h = loop_matrix(one_lane(fd_floor, choice), -1.0, 0.0, 0.1).H
            assert h > 0.0

    def test_j_sign_tracks_phase_for_ue(self, fd_floor):
        ue = one_lane(fd_floor, ExponentialVot(50.0))
        j_suc = loop_matrix(ue, -1.0, 0.0, 0.1).J
        j_soc = loop_matrix(ue, 5.0, 0.0, 0.1).J
        assert j_suc < 0.0 < j_soc

    def test_logit_gap_term_is_flat(self, fd_floor):
        # the gap-proportional part of the logit toll is the fixed VOT
        logit = LogitChoice(50.0, 1.0)
        p = ref_share_from_state(-1.0, 0.0, fd_floor, 1.0, 5.0, 200.0, 860.0)
        a, b, _, _ = logit.toll_line(p)
        assert a == pytest.approx(50.0, rel=1e-9)
        assert b == pytest.approx(math.log(1.0 / p - 1.0), rel=1e-9)


CONFIGS = {
    "constant": apply_overrides(None, "constant", []),
    "constant-logit": apply_overrides(None, "constant-logit", []),
    "uniform-ue": replace(apply_overrides(None, "constant", []), choice=UniformVot(0.0, 100.0)),
}


class TestLoopMatrix:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("lam", [-1.0, 1.0, 5.0])
    @pytest.mark.parametrize("omega", [0.1, 0.6])
    def test_h_and_j_match_the_reference(self, name, lam, omega):
        cfg = CONFIGS[name]
        sysm = loop_matrix(cfg, lam, 0.0, omega)
        h, j = ref_gap_sensitivities(cfg, lam, 0.0, omega)
        assert sysm.H == pytest.approx(h, rel=1e-6)
        assert sysm.J == pytest.approx(j, rel=1e-6)

    def test_effective_gains(self):
        cfg = apply_overrides(None, "constant", [])
        c, omega = cfg.controller, 0.25
        sysm = loop_matrix(cfg, 1.0, 0.0, omega)
        L1 = cfg.hot_lanes * cfg.corridor_length
        K1, K2 = c.k1 + c.k3 / omega, c.k2 + c.k4 / omega
        assert sysm == LinearizedSystem(sysm.H, sysm.J, K1, K2, L1)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_left_side_at_the_kink_has_the_free_flow_slope(self, name):
        # at lam = 0 only g1' differs between the sides: u_f on the left, -w on the right
        cfg = CONFIGS[name]
        omega, fd, c = 0.25, cfg.fd_hot, cfg.controller
        L1, D = cfg.hot_lanes * cfg.corridor_length, cfg.mean_trip_distance
        left = loop_matrix(cfg, 0.0, 0.0, omega, side="left")
        right = loop_matrix(cfg, 0.0, 0.0, omega, side="right")
        K1, K2 = c.k1 + c.k3 / omega, c.k2 + c.k4 / omega
        for sysm, slope in ((left, fd.u_f), (right, -fd.w)):
            expected = LinearizedSystem(right.H, -right.H * L1 / D * slope, K1, K2, L1)
            for field in ("H", "J", "K1", "K2"):
                assert getattr(sysm, field) == pytest.approx(getattr(expected, field), rel=1e-12)
            for row, want in zip(sysm.matrix, expected.matrix):
                assert row == pytest.approx(want, rel=1e-12)
        assert left.H == right.H
        assert left.stable and right.stable

    @pytest.mark.parametrize("lam", [-1.0, 0.0, 1.0])
    def test_right_side_is_the_default(self, lam):
        cfg = apply_overrides(None, "constant", [])
        assert loop_matrix(cfg, lam, 0.0, 0.25) == loop_matrix(cfg, lam, 0.0, 0.25, side="right")

    @pytest.mark.parametrize("lam", [-1.0, 1.0, 5.0])
    def test_sides_agree_off_the_kink(self, lam):
        cfg = apply_overrides(None, "constant", [])
        assert loop_matrix(cfg, lam, 0.0, 0.25, side="left") == loop_matrix(cfg, lam, 0.0, 0.25)

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError, match="side must be"):
            loop_matrix(apply_overrides(None, "constant", []), 0.0, 0.0, 0.25, side="up")

    def test_negative_density_rejected(self):
        cfg = apply_overrides(None, "constant", [])
        with pytest.raises(ValueError, match="negative density"):
            loop_matrix(cfg, -critical_density(cfg.fd_hot) - 1e-6, 0.0, 0.1)

    @pytest.mark.parametrize("share", [0.0, 1.0])
    def test_logit_share_at_the_bounds_rejected(self, share):
        cfg = apply_overrides(None, "constant-logit", [])
        # xi that puts the share implied by the state at lam = 0 exactly on the bound
        completion = flow(cfg.fd_hot, critical_density(cfg.fd_hot)) * 1.0 / 5.0 - 200.0
        xi = completion - share * 860.0
        with pytest.raises(ValueError, match="target share"):
            loop_matrix(cfg, 0.0, xi, 0.1)

    def test_non_positive_gap_rejected(self):
        with pytest.raises(ValueError, match="gap must be positive"):
            loop_matrix(apply_overrides(None, "constant", []), 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("omega", [math.inf, math.nan])
    def test_gap_that_is_not_finite_rejected(self, omega):
        with pytest.raises(ValueError, match="gap must be positive and finite"):
            loop_matrix(apply_overrides(None, "constant", []), 1.0, 0.0, omega)

    def test_no_sov_demand_rejected(self):
        # the state's share divides by the SOV rate
        cfg = replace(apply_overrides(None, "constant", []), demand=DemandProfile.constant(200.0, 0.0))
        with pytest.raises(ValueError, match="SOV rate must be positive, got 0.0"):
            loop_matrix(cfg, 0.0, 0.0, 0.5)

    @pytest.mark.parametrize("demand", [
        apply_overrides(None, "trapezoid", []).demand,  # the peak rates are not an operating point
        DemandProfile(breakpoints=(0.0, 1.0),  # the HOV rate is flat, the SOV rate is not
                      hov_rates=(200.0, 200.0), sov_rates=(860.0, 900.0)),
    ], ids=["trapezoid", "piecewise"])
    def test_time_varying_demand_rejected(self, demand):
        with pytest.raises(ValueError, match="constant demand"):
            loop_matrix(replace(apply_overrides(None, "constant", []), demand=demand), 0.0, 0.0, 0.25)


CHOICES = {
    "exponential-ue": ExponentialVot(50.0),
    "uniform-ue": UniformVot(10.0, 90.0),
    "logit": LogitChoice(50.0, 1.0),
}


class TestTollLine:
    @pytest.mark.parametrize("name", sorted(CHOICES))
    @pytest.mark.parametrize("p", [0.05, 0.31, 0.8])
    def test_line_is_the_inverse_toll_at_two_gaps(self, name, p):
        # the share round trip on each gap where the line's toll is non-negative
        # (the logit line at p = 0.8 is negative at 0.01)
        choice = CHOICES[name]
        a, b, _, _ = choice.toll_line(p)
        tolls = [(a * omega + b, omega) for omega in (0.01, 0.3)]
        assert any(u >= 0.0 for u, _ in tolls)
        for u, omega in tolls:
            if u >= 0.0:
                assert choice.share(u, omega) == pytest.approx(p, rel=1e-9)
                assert u == pytest.approx(ref_toll(choice, p, omega), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(CHOICES))
    @pytest.mark.parametrize("p", [0.05, 0.31, 0.8])
    def test_slopes_match_central_differences(self, name, p):
        choice = CHOICES[name]
        step = 1e-6
        a_hi, b_hi, _, _ = choice.toll_line(p + step)
        a_lo, b_lo, _, _ = choice.toll_line(p - step)
        _, _, da, db = choice.toll_line(p)
        assert da == pytest.approx((a_hi - a_lo) / (2.0 * step), rel=1e-6, abs=1e-9)
        assert db == pytest.approx((b_hi - b_lo) / (2.0 * step), rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("name, bad", [
        ("exponential-ue", 0.0), ("uniform-ue", 1.5), ("logit", 0.0), ("logit", 1.0),
    ])
    def test_share_outside_the_range_rejected(self, name, bad):
        with pytest.raises(ValueError, match="target share"):
            CHOICES[name].toll_line(bad)


class TestFlowSlope:
    def test_kink_at_critical_density(self, fd_floor):
        assert flow_slope(fd_floor, critical_density(fd_floor), "left") == 100.0
        assert flow_slope(fd_floor, critical_density(fd_floor), "right") == -20.0

    def test_kink_at_floor_entry(self, fd_floor):
        entry = fd_floor.rho_j - fd_floor.c / fd_floor.w
        assert flow_slope(fd_floor, entry, "left") == -20.0
        assert flow_slope(fd_floor, entry, "right") == 0.0

    def test_no_floor_falls_to_jam(self, fd_triangular):
        assert flow_slope(fd_triangular, 139.0) == -20.0
        assert flow_slope(fd_triangular, 140.0, "left") == -20.0
        assert flow_slope(fd_triangular, 140.0, "right") == 0.0

    @pytest.mark.parametrize("rho", [5.0, 30.0, 45.0, 60.0, 120.0])
    def test_matches_central_differences_off_the_kinks(self, fd_floor, rho):
        step = 1e-6
        fd_slope = (flow(fd_floor, rho + step) - flow(fd_floor, rho - step)) / (2.0 * step)
        assert flow_slope(fd_floor, rho) == pytest.approx(fd_slope, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("rho, side", [(-1.0, "right"), (math.inf, "right"), (10.0, "up")])
    def test_bad_input_rejected(self, fd_floor, rho, side):
        with pytest.raises(ValueError):
            flow_slope(fd_floor, rho, side)
