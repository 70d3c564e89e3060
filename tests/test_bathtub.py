"""Bathtub state, derived quantities and the Euler stepper."""

import math

import pytest

from hotlanes.analysis import equilibrium_share, triangular_growth
from hotlanes.bathtub import (
    BathtubState,
    CorridorState,
    HotGridlockError,
    Inflows,
    SaturationStats,
    density,
    excess_density,
    exit_rate,
    jam_trip_cap,
    residual_service_rate,
    step,
    travel_time_gap,
)

RHO_C = 70.0 / 3.0


def tub(delta, lanes=1.0, length=10.0, d=5.0):
    return BathtubState(delta, lanes, length, d)


class TestDensity:
    def test_empty(self):
        assert density(tub(0.0)) == 0.0

    def test_critical_trip_count(self):
        assert density(tub(233.33)) == pytest.approx(23.333, rel=1e-4)

    def test_jam_trip_count(self):
        assert density(tub(1400.0)) == pytest.approx(140.0)


class TestExitRate:
    def test_empty(self, fd_triangular):
        assert exit_rate(tub(0.0), fd_triangular) == 0.0

    def test_at_critical_density(self, fd_triangular):
        g = exit_rate(tub(233.33), fd_triangular)
        assert g == pytest.approx(233.33 / 5.0 * 100.0)
        assert g == pytest.approx(4666.7, rel=1e-4)

    def test_gridlock_completes_nothing(self, fd_triangular):
        assert exit_rate(tub(1400.0), fd_triangular) == 0.0


class TestStateVariables:
    def test_excess_density_zero_at_critical(self, fd_triangular):
        assert excess_density(tub(10.0 * RHO_C), fd_triangular) == pytest.approx(0.0, abs=1e-12)

    def test_excess_density_positive(self, fd_triangular):
        assert excess_density(tub(350.0), fd_triangular) == pytest.approx(35.0 - RHO_C)
        assert excess_density(tub(350.0), fd_triangular) == pytest.approx(11.667, rel=1e-4)

    def test_excess_density_empty(self, fd_triangular):
        assert excess_density(tub(0.0), fd_triangular) == pytest.approx(-RHO_C)

    def test_residual_zero_when_balanced(self, fd_triangular):
        state = tub(233.33)
        g = exit_rate(state, fd_triangular)
        assert residual_service_rate(state, fd_triangular, g) == 0.0

    def test_residual_at_critical(self, fd_triangular):
        got = residual_service_rate(tub(233.33), fd_triangular, 4000.0)
        assert got == pytest.approx(666.7, rel=1e-3)

    def test_residual_empty_lane(self, fd_triangular):
        assert residual_service_rate(tub(0.0), fd_triangular, 1200.0) == -1200.0


class TestTravelTimeGap:
    def test_equal_speeds(self):
        assert travel_time_gap(80.0, 80.0) == 0.0

    def test_direct_value(self):
        assert travel_time_gap(100.0, 50.0) == pytest.approx(0.01)

    def test_jammed_gp_is_unbounded(self):
        assert travel_time_gap(100.0, 0.0) == math.inf

    def test_hot_gridlock_raises(self):
        with pytest.raises(HotGridlockError):
            travel_time_gap(0.0, 50.0)


def make_corridor(d1, d2, length=10.0, d=5.0):
    return CorridorState(hot=tub(d1, 1.0, length, d), gp=tub(d2, 1.0, length, d))


class TestStep:
    def test_balanced_inflow_is_stationary(self, fd_triangular):
        corridor = make_corridor(100.0, 150.0)
        inflows = Inflows(
            e1_tilde=exit_rate(corridor.hot, fd_triangular),
            e2_tilde=exit_rate(corridor.gp, fd_triangular),
            e21_tilde=0.0,
        )
        out = step(corridor, fd_triangular, fd_triangular, inflows, 1e-3)
        assert out.hot.delta == pytest.approx(100.0, rel=1e-12)
        assert out.gp.delta == pytest.approx(150.0, rel=1e-12)
        assert out.time == pytest.approx(1e-3)

    def test_critical_state_holds_under_matched_demand(self, fd_triangular):
        # inflow L1 rho_c u_f / D holds the lane group exactly at critical
        L1 = 10.0
        corridor = make_corridor(L1 * RHO_C, 0.0)
        e1 = L1 * RHO_C * 100.0 / 5.0
        inflows = Inflows(e1_tilde=e1, e2_tilde=0.0, e21_tilde=0.0)
        state = corridor
        for _ in range(100):
            state = step(state, fd_triangular, fd_triangular, inflows, 1e-4)
        assert state.hot.delta == pytest.approx(L1 * RHO_C, rel=1e-9)

    def test_tracks_congested_closed_form(self, fd_triangular):
        # constant GP inflow, over-critical start: matches the exact solution
        p0 = equilibrium_share(10.0, RHO_C, 100.0, 5.0, 2000.0, 8600.0)
        e2 = 8600.0 * (1.0 - p0)
        corridor = make_corridor(0.0, 420.0)
        inflows = Inflows(e1_tilde=0.0, e2_tilde=e2, e21_tilde=0.0)
        dt = 0.01 / 3600.0
        state = corridor
        worst = 0.0
        for k in range(1, 40_000):
            state = step(state, fd_triangular, fd_triangular, inflows, dt)
            expected = triangular_growth(420.0, p0, 8600.0, 20.0, 5.0, 140.0, 10.0, k * dt)
            worst = max(worst, abs(state.gp.delta - expected) / expected)
        assert worst < 5e-3

    def test_jam_cap_and_saturation_counter(self, fd_triangular):
        corridor = make_corridor(0.0, 1399.9)
        inflows = Inflows(e1_tilde=0.0, e2_tilde=50_000.0, e21_tilde=0.0)
        stats = SaturationStats()
        state = step(corridor, fd_triangular, fd_triangular, inflows, 0.1, stats)
        assert state.gp.delta == 1400.0
        assert stats.gp_clamp_steps == 1
        assert stats.gp_dropped > 0
        assert not stats.hot_clamp_steps

    def test_no_jam_cap_with_flow_floor(self, fd_floor):
        assert jam_trip_cap(tub(0.0), fd_floor) == math.inf
        corridor = make_corridor(0.0, 1399.9)
        inflows = Inflows(e1_tilde=0.0, e2_tilde=50_000.0, e21_tilde=0.0)
        stats = SaturationStats()
        state = step(corridor, fd_floor, fd_floor, inflows, 0.1, stats)
        assert state.gp.delta > 1400.0
        assert not stats.any_clamped

    def test_delta_never_negative(self, fd_triangular):
        corridor = make_corridor(1.0, 0.0)
        inflows = Inflows(e1_tilde=0.0, e2_tilde=0.0, e21_tilde=0.0)
        state = corridor
        for _ in range(50):
            state = step(state, fd_triangular, fd_triangular, inflows, 0.5)
        assert state.hot.delta >= 0.0

    def test_mass_balance(self, fd_triangular):
        corridor = make_corridor(50.0, 80.0)
        inflows = Inflows(e1_tilde=700.0, e2_tilde=900.0, e21_tilde=200.0)
        dt = 1e-4
        state = corridor
        net1 = net2 = 0.0
        for _ in range(2000):
            g1 = exit_rate(state.hot, fd_triangular)
            g2 = exit_rate(state.gp, fd_triangular)
            net1 += dt * (inflows.hot_inflow - g1)
            net2 += dt * (inflows.gp_inflow - g2)
            state = step(state, fd_triangular, fd_triangular, inflows, dt)
        assert state.hot.delta - 50.0 == pytest.approx(net1, rel=1e-9)
        assert state.gp.delta - 80.0 == pytest.approx(net2, rel=1e-9)

    def test_residual_matches_step_difference(self, fd_triangular):
        # xi = -L1 * dlambda/dt holds exactly for the explicit update
        state = make_corridor(120.0, 0.0)
        e1 = 900.0
        inflows = Inflows(e1_tilde=e1, e2_tilde=0.0, e21_tilde=0.0)
        dt = 1e-3
        lam_before = excess_density(state.hot, fd_triangular)
        xi = residual_service_rate(state.hot, fd_triangular, e1)
        after = step(state, fd_triangular, fd_triangular, inflows, dt)
        lam_after = excess_density(after.hot, fd_triangular)
        L1 = state.hot.lane_length
        assert xi + L1 * (lam_after - lam_before) / dt == pytest.approx(0.0, abs=1e-9)


class TestValidation:
    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            tub(-1.0)

    def test_mismatched_geometry_rejected(self):
        with pytest.raises(ValueError):
            CorridorState(hot=tub(0.0, length=10.0), gp=tub(0.0, length=5.0))

    def test_paying_rate_capped_by_sov_rate(self):
        with pytest.raises(ValueError):
            Inflows(e1_tilde=0.0, e2_tilde=100.0, e21_tilde=150.0)

    def test_dt_positive(self, fd_triangular):
        with pytest.raises(ValueError):
            step(make_corridor(0.0, 0.0), fd_triangular, fd_triangular,
                 Inflows(0.0, 0.0, 0.0), 0.0)
