"""Equilibrium predictors, linearized stability and outflow characterization."""

import math
import random

import pytest

from hotlanes.analysis import (
    A1ViolationError,
    atfd_growth_rates,
    check_a1,
    choice_sensitivity,
    equilibrium_share,
    gap_sensitivities,
    linearized_matrix,
    max_outflow_cases,
    share_from_state,
    stability_check,
    triangular_growth,
)
from hotlanes.lane_choice import ExponentialVot, LogitChoice, UeChoice
from hotlanes.nfd import critical_density

RHO_C = 70.0 / 3.0


class TestEquilibriumShare:
    def test_study_parameters(self):
        p0 = equilibrium_share(10.0, 23.333, 100.0, 5.0, 2000.0, 8600.0)
        assert p0 == pytest.approx(13333.0 / 43000.0, rel=1e-3)
        assert p0 == pytest.approx(0.3101, rel=1e-3)

    def test_share_in_unit_interval(self):
        p0 = equilibrium_share(1.0, RHO_C, 100.0, 5.0, 200.0, 860.0)
        assert 0.0 < p0 < 1.0

    def test_doubling_sov_demand_halves_share(self):
        p0 = equilibrium_share(10.0, RHO_C, 100.0, 5.0, 2000.0, 8600.0)
        p0_double = equilibrium_share(10.0, RHO_C, 100.0, 5.0, 2000.0, 17200.0)
        assert p0_double == pytest.approx(p0 / 2.0)

    def test_saturating_hov_demand_rejected(self):
        # numerator <= 0 sits on or beyond the overload boundary
        e1 = 10.0 * RHO_C * 100.0 / 5.0 * (1.0 + 1e-9)
        with pytest.raises(A1ViolationError, match="HOV demand"):
            equilibrium_share(10.0, RHO_C, 100.0, 5.0, e1, 8600.0)

    def test_share_vanishes_near_hov_saturation(self):
        e1 = 10.0 * RHO_C * 100.0 / 5.0
        p0 = equilibrium_share(10.0, RHO_C, 100.0, 5.0, e1 * (1 - 1e-9), 8600.0)
        assert p0 == pytest.approx(0.0, abs=1e-9)

    def test_low_sov_demand_rejected(self):
        with pytest.raises(A1ViolationError, match="SOV demand"):
            equilibrium_share(10.0, RHO_C, 100.0, 5.0, 2000.0, 3000.0)

    def test_check_a1_lists_all_failures(self):
        failures = check_a1(10.0, RHO_C, 100.0, 5.0, 4700.0, 100.0)
        assert len(failures) == 3


class TestTriangularGrowth:
    def test_initial_condition(self):
        assert triangular_growth(500.0, 0.31, 8600.0, 20.0, 5.0, 140.0, 10.0, 0.0) == 500.0

    def test_fixed_point_is_constant(self):
        p0, e2, w, d, rho_j, L2 = 0.31, 8600.0, 20.0, 5.0, 140.0, 10.0
        delta0 = rho_j * L2 - d * e2 * (1 - p0) / w
        for t in (0.1, 1.0, 3.0):
            assert triangular_growth(delta0, p0, e2, w, d, rho_j, L2, t) == pytest.approx(delta0)

    def test_monotone_growth_above_fixed_point(self):
        vals = [triangular_growth(500.0, 0.31, 8600.0, 20.0, 5.0, 140.0, 10.0, t)
                for t in (0.0, 0.2, 0.4)]
        assert vals[0] < vals[1] < vals[2]


class TestAtfdGrowthRates:
    def test_study_parameters(self):
        pred = atfd_growth_rates(
            e2_tilde=8600.0, p0=0.3101, c=1866.7, L2=10.0, D=5.0,
            delta2_t0=466.7, u_f=100.0,
        )
        assert pred.omega0 == pytest.approx(8600.0 * (1 - 0.3101) / 1866.7 - 2.0, rel=1e-12)
        assert pred.omega0 == pytest.approx(1.178, rel=1e-3)
        assert pred.delta2_rate == pytest.approx(pred.omega0 * 1866.7)
        assert pred.omega1 == pytest.approx(466.7 / 1866.7 - 0.01)

    def test_balanced_floor_has_zero_slope(self):
        c, L2, d = 1866.67, 10.0, 5.0
        p0 = 0.31008
        e2 = c * L2 / d / (1.0 - p0)
        pred = atfd_growth_rates(e2, p0, c, L2, d, 500.0, 100.0)
        assert pred.omega0 == pytest.approx(0.0, abs=1e-12)

    def test_requires_positive_floor(self):
        with pytest.raises(ValueError):
            atfd_growth_rates(8600.0, 0.31, 0.0, 10.0, 5.0, 500.0, 100.0)


class TestLinearizedMatrix:
    def test_direct_substitution(self):
        sys = linearized_matrix(H=1.0, J=0.0, K1=8.0, K2=5.0, L1=10.0)
        assert sys.m11 == pytest.approx(-5.0)
        assert sys.m12 == pytest.approx(8.0)
        assert sys.m21 == pytest.approx(-0.1)
        assert sys.m22 == 0.0

    def test_zero_top_left_when_j_matches(self):
        sys = linearized_matrix(H=2.0, J=50.0, K1=8.0, K2=5.0, L1=10.0)
        assert sys.m11 == pytest.approx(0.0)

    def test_first_row_scales_inversely_with_h(self):
        s1 = linearized_matrix(H=1.0, J=3.0, K1=8.0, K2=5.0, L1=10.0)
        s2 = linearized_matrix(H=2.0, J=3.0, K1=8.0, K2=5.0, L1=10.0)
        assert s2.m11 == pytest.approx(s1.m11 / 2.0)
        assert s2.m12 == pytest.approx(s1.m12 / 2.0)

    def test_non_positive_h_rejected(self):
        with pytest.raises(ValueError):
            linearized_matrix(H=0.0, J=0.0, K1=8.0, K2=5.0, L1=10.0)


class TestStability:
    def test_worked_eigenvalues(self):
        sys = linearized_matrix(H=1.0, J=0.0, K1=8.0, K2=5.0, L1=10.0)
        res = stability_check(sys)
        eigs = sorted(z.real for z in res.eigenvalues)
        assert eigs[0] == pytest.approx(-4.8345, abs=1e-4)
        assert eigs[1] == pytest.approx(-0.1655, abs=1e-4)
        assert res.stable

    def test_under_critical_always_stable(self):
        rng = random.Random(7)
        for _ in range(50):
            sys = linearized_matrix(
                H=rng.uniform(0.01, 2.0), J=-rng.uniform(0.01, 50.0),
                K1=rng.uniform(0.1, 20.0), K2=rng.uniform(0.1, 20.0),
                L1=rng.uniform(0.5, 20.0),
            )
            assert stability_check(sys).stable

    def test_over_critical_needs_large_k2(self):
        unstable = linearized_matrix(H=1.0, J=100.0, K1=8.0, K2=5.0, L1=10.0)
        assert not stability_check(unstable).stable
        stable = linearized_matrix(H=1.0, J=100.0, K1=8.0, K2=15.0, L1=10.0)
        assert stability_check(stable).stable

    def test_complex_pair_classified_by_real_part(self):
        # small damping, large coupling: complex eigenvalues
        sys = linearized_matrix(H=1.0, J=-0.5, K1=100.0, K2=0.1, L1=1.0)
        res = stability_check(sys)
        assert res.eigenvalues[0].imag != 0.0
        assert res.stable


class TestMaxOutflow:
    def test_critical_split_matches_congested_plateau(self, fd_triangular):
        res = max_outflow_cases(60.0, fd_triangular, 10.0, 1.0, 5.0)
        assert res.g_a(RHO_C) == pytest.approx(res.g_c, rel=1e-9)
        assert res.g_b(60.0 - RHO_C) == pytest.approx(res.g_c, rel=1e-9)

    def test_double_jam_has_zero_outflow(self, fd_triangular):
        res = max_outflow_cases(280.0, fd_triangular, 10.0, 1.0, 5.0)
        assert res.max_outflow == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("rho_tot", [30.0, 60.0, 120.0, 200.0, 260.0])
    def test_grid_search_confirms_argmax(self, fd_triangular, rho_tot):
        res = max_outflow_cases(rho_tot, fd_triangular, 10.0, 1.0, 5.0)
        step = 1e-3 * fd_triangular.rho_j
        n = int((res.feasible_hi - res.feasible_lo) / step) + 1
        values = [res.outflow(res.feasible_lo + k * step) for k in range(n)]
        best = max(values)
        assert best == pytest.approx(res.max_outflow, rel=1e-9)
        for k, v in enumerate(values):
            if v >= best * (1.0 - 1e-12):
                rho1 = res.feasible_lo + k * step
                assert res.argmax_lo - step <= rho1 <= res.argmax_hi + step

    def test_floor_diagram_rejected(self, fd_floor):
        with pytest.raises(ValueError):
            max_outflow_cases(60.0, fd_floor, 10.0, 1.0, 5.0)

    def test_a1_applicability_flag(self, fd_triangular):
        assert max_outflow_cases(60.0, fd_triangular, 10.0, 1.0, 5.0).a1_applicable
        assert not max_outflow_cases(10.0, fd_triangular, 10.0, 1.0, 5.0).a1_applicable


def sensitivity(rho1, fd, direction, **kwargs):
    """choice_sensitivity at xi = 0 for a one-lane, 1 km HOT group at density rho1, D = 5 km."""
    lam = rho1 - critical_density(fd)
    return choice_sensitivity(lam, 0.0, fd, 1.0, 5.0, 200.0, 860.0, direction, **kwargs)


class TestChoiceSensitivity:
    def test_share_formula_matches_equilibrium(self, fd_floor):
        p = share_from_state(0.0, 0.0, fd_floor, 1.0, 5.0, 200.0, 860.0)
        assert p == pytest.approx(equilibrium_share(1.0, RHO_C, 100.0, 5.0, 200.0, 860.0), rel=1e-9)

    def test_decreasing_in_residual_service(self, fd_floor):
        for rho1 in (10.0, 30.0, 60.0):
            d = sensitivity(rho1, fd_floor, "xi")
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
        left = sensitivity(RHO_C, fd_floor, "lam", side="left")
        right = sensitivity(RHO_C, fd_floor, "lam", side="right")
        assert left > 0.0 > right


class TestGapSensitivities:
    def test_h_positive_for_both_models(self, fd_floor):
        ue = UeChoice(ExponentialVot(50.0))
        logit = LogitChoice(50.0, 1.0)
        for choice in (ue, logit):
            h, _ = gap_sensitivities(choice, fd_floor, 1.0, 5.0, 200.0, 860.0,
                                     lam=-1.0, xi=0.0, omega=0.1)
            assert h > 0.0

    def test_j_sign_tracks_phase_for_ue(self, fd_floor):
        ue = UeChoice(ExponentialVot(50.0))
        _, j_suc = gap_sensitivities(ue, fd_floor, 1.0, 5.0, 200.0, 860.0,
                                     lam=-1.0, xi=0.0, omega=0.1)
        _, j_soc = gap_sensitivities(ue, fd_floor, 1.0, 5.0, 200.0, 860.0,
                                     lam=5.0, xi=0.0, omega=0.1)
        assert j_suc < 0.0 < j_soc

    def test_logit_gap_term_is_flat(self, fd_floor):
        # the gap-proportional part of the logit toll is the fixed VOT
        logit = LogitChoice(50.0, 1.0)
        from hotlanes.analysis import toll_decomposition

        p = share_from_state(-1.0, 0.0, fd_floor, 1.0, 5.0, 200.0, 860.0)
        a, b = toll_decomposition(logit, p)
        assert a == pytest.approx(50.0, rel=1e-9)
        assert b == pytest.approx(math.log(1.0 / p - 1.0), rel=1e-9)
