"""Plant quantities and the Euler update, checked through ``run`` and the scalar helpers."""

import math
import warnings

import pytest
from conftest import until_gp_jam

from hotlanes.analysis import constant_equilibrium, triangular_growth
from hotlanes.bathtub import (
    HotGridlockError,
    SaturationStats,
    jam_trip_cap,
)
from hotlanes.lane_choice import ExponentialVot, LogitChoice, UniformVot
from hotlanes.scenario import ConfigError, DemandProfile, ScenarioConfig, run

RHO_C = 70.0 / 3.0


def plant_run(fd, d1=0.0, d2=0.0, e1=0.0, e2=0.0, dt_s=3.6, steps=1, stats=None,
              to_gp_jam=False, mode="hov", choice=ExponentialVot()):
    """One record per step of a 10 km corridor, one lane per group, D = 5 km.

    HOV mode holds the paying share at 0, so the HOT inflow is ``e1`` and the
    GP inflow ``e2``.  Record ``k`` holds the state after ``k`` Euler steps.
    ``to_gp_jam`` ends the records at the first one at GP jam density.
    """
    config = ScenarioConfig(
        fd_hot=fd, fd_gp=fd, demand=DemandProfile(hov_rate=e1, sov_rate=e2),
        corridor_length=10.0, mean_trip_distance=5.0, mode=mode,
        dt_s=dt_s, output_dt_s=dt_s, horizon_h=steps * dt_s / 3600.0,
        initial_hot_trips=d1, initial_gp_trips=d2, choice=choice,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # these plants need not overload the corridor
        return until_gp_jam(config, stats) if to_gp_jam else run(config, stats=stats)


class TestDensity:
    def test_empty(self, fd_triangular):
        assert plant_run(fd_triangular)[0].rho1 == 0.0

    def test_critical_trip_count(self, fd_triangular):
        assert plant_run(fd_triangular, d1=233.33)[0].rho1 == pytest.approx(23.333, rel=1e-4)

    def test_jam_trip_count(self, fd_triangular):
        # on the GP side: managed lanes at jam abort the run
        assert plant_run(fd_triangular, d2=1400.0)[0].rho2 == pytest.approx(140.0)


class TestExitRate:
    def test_empty(self, fd_triangular):
        assert plant_run(fd_triangular)[0].g1 == 0.0

    def test_at_critical_density(self, fd_triangular):
        g = plant_run(fd_triangular, d1=233.33)[0].g1
        assert g == pytest.approx(233.33 / 5.0 * 100.0)
        assert g == pytest.approx(4666.7, rel=1e-4)

    def test_gridlock_completes_nothing(self, fd_triangular):
        assert plant_run(fd_triangular, d2=1400.0)[0].g2 == 0.0


class TestStateVariables:
    def test_excess_density_zero_at_critical(self, fd_triangular):
        lam = plant_run(fd_triangular, d1=10.0 * RHO_C)[0].lam
        assert lam == pytest.approx(0.0, abs=1e-12)

    def test_excess_density_positive(self, fd_triangular):
        lam = plant_run(fd_triangular, d1=350.0)[0].lam
        assert lam == pytest.approx(35.0 - RHO_C)
        assert lam == pytest.approx(11.667, rel=1e-4)

    def test_excess_density_empty(self, fd_triangular):
        assert plant_run(fd_triangular)[0].lam == pytest.approx(-RHO_C)

    def test_residual_zero_when_balanced(self, fd_triangular):
        g = plant_run(fd_triangular, d1=233.33)[0].g1
        assert plant_run(fd_triangular, d1=233.33, e1=g)[0].xi == 0.0

    def test_residual_at_critical(self, fd_triangular):
        got = plant_run(fd_triangular, d1=233.33, e1=4000.0)[0].xi
        assert got == pytest.approx(666.7, rel=1e-3)

    def test_residual_empty_lane(self, fd_triangular):
        assert plant_run(fd_triangular, e1=1200.0)[0].xi == -1200.0


class TestTravelTimeGap:
    def test_equal_speeds(self, fd_triangular):
        assert plant_run(fd_triangular, d1=300.0, d2=300.0)[0].omega == 0.0

    def test_direct_value(self, fd_triangular):
        # an empty HOT group at 100 km/h, GP at 40 veh/km: 20 * (140 - 40) / 40 = 50 km/h
        r = plant_run(fd_triangular, d2=400.0)[0]
        assert (r.v1, r.v2) == (100.0, 50.0)
        assert r.omega == pytest.approx(0.01)

    def test_jammed_gp_is_unbounded(self, fd_triangular):
        assert plant_run(fd_triangular, d2=1400.0)[0].omega == math.inf

    def test_hot_gridlock_raises(self, fd_triangular):
        with pytest.raises(HotGridlockError):
            plant_run(fd_triangular, d1=1400.0, d2=400.0)


class TestStep:
    def test_balanced_inflow_is_stationary(self, fd_triangular):
        start = plant_run(fd_triangular, d1=100.0, d2=150.0)[0]
        rows = plant_run(fd_triangular, d1=100.0, d2=150.0, e1=start.g1, e2=start.g2, steps=2)
        assert rows[1].delta1 == pytest.approx(100.0, rel=1e-12)
        assert rows[1].delta2 == pytest.approx(150.0, rel=1e-12)
        assert rows[1].t == pytest.approx(1e-3)

    def test_critical_state_holds_under_matched_demand(self, fd_triangular):
        # inflow L1 rho_c u_f / D holds the lane group exactly at critical
        L1 = 10.0
        e1 = L1 * RHO_C * 100.0 / 5.0
        rows = plant_run(fd_triangular, d1=L1 * RHO_C, e1=e1, dt_s=0.36, steps=101)
        assert rows[100].delta1 == pytest.approx(L1 * RHO_C, rel=1e-9)

    def test_tracks_congested_closed_form(self, fd_triangular):
        # constant GP inflow, over-critical start: matches the exact solution
        study = ScenarioConfig(
            fd_hot=fd_triangular, fd_gp=fd_triangular,
            demand=DemandProfile(hov_rate=2000.0, sov_rate=8600.0),
            corridor_length=10.0, mean_trip_distance=5.0,
        )
        e2 = 8600.0 * (1.0 - constant_equilibrium(study).p0)
        rows = plant_run(fd_triangular, d2=420.0, e2=e2, dt_s=0.01, steps=40_000)
        worst = 0.0
        for row in rows[1:]:
            expected = triangular_growth(study, 420.0, row.t)
            worst = max(worst, abs(row.delta2 - expected) / expected)
        assert worst < 5e-3

    def test_jam_cap_and_saturation_counter(self, fd_triangular):
        stats = SaturationStats()
        rows = plant_run(fd_triangular, d2=1399.9, e2=50_000.0, dt_s=360.0, steps=2,
                         stats=stats, to_gp_jam=True)
        assert rows[1].delta2 == 1400.0
        assert stats.gp_clamp_steps == 1
        assert stats.gp_dropped > 0
        assert not stats.hot_clamp_steps

    def test_no_jam_cap_with_flow_floor(self, fd_floor):
        assert jam_trip_cap(fd_floor, 10.0) == math.inf
        stats = SaturationStats()
        rows = plant_run(fd_floor, d2=1399.9, e2=50_000.0, dt_s=360.0, steps=2, stats=stats)
        assert rows[1].delta2 > 1400.0
        assert not stats.any_clamped

    def test_delta_never_negative(self, fd_triangular):
        rows = plant_run(fd_triangular, d1=1.0, dt_s=1800.0, steps=51)
        assert rows[50].delta1 >= 0.0

    def test_mass_balance(self, fd_triangular):
        # HOT inflow 700 HOV + 200 paying SOV, GP inflow 900 - 200 SOV
        e1, e2, dt = 700.0 + 200.0, 900.0 - 200.0, 0.36 / 3600.0
        rows = plant_run(fd_triangular, d1=50.0, d2=80.0, e1=e1, e2=e2, dt_s=0.36, steps=2001)
        net1 = net2 = 0.0
        for row in rows[:2000]:
            net1 += dt * (e1 - row.g1)
            net2 += dt * (e2 - row.g2)
        assert rows[2000].delta1 - 50.0 == pytest.approx(net1, rel=1e-9)
        assert rows[2000].delta2 - 80.0 == pytest.approx(net2, rel=1e-9)

    def test_residual_matches_step_difference(self, fd_triangular):
        # xi = -L1 * dlambda/dt holds exactly for the explicit update
        before, after = plant_run(fd_triangular, d1=120.0, e1=900.0, steps=2)
        L1, dt = 10.0, after.t
        assert before.xi + L1 * (after.lam - before.lam) / dt == pytest.approx(0.0, abs=1e-9)


class TestValidation:
    def test_negative_delta_rejected(self, fd_triangular):
        with pytest.raises(ConfigError):
            plant_run(fd_triangular, d1=-1.0)

    def test_only_the_three_choice_models_are_accepted(self, fd_triangular):
        # the loop computes each model's share inline, so a subclass would get its base's formula
        class Overpaying:
            def share(self, u, omega):
                return 1.5  # 150 paying of 100 SOV veh/h

        subclasses = [type(f"My{model.__name__}", (model,), {})()
                      for model in (ExponentialVot, UniformVot, LogitChoice)]
        for choice in (Overpaying(), *subclasses):
            with pytest.raises(ConfigError, match=f"^unknown choice model '{type(choice).__name__}'$"):
                plant_run(fd_triangular, e2=100.0, mode="hot", choice=choice)
