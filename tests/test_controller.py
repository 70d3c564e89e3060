"""Feedback toll law: the posted toll and the integral updates, read from ``run`` records."""

import math
import re
import warnings

import pytest

from hotlanes.controller import ControllerState
from hotlanes.nfd import FdParams, critical_density, speed
from hotlanes.scenario import DemandProfile, ScenarioConfig, run

DEFAULT = ControllerState()
GAINS = (DEFAULT.k1, DEFAULT.k2, DEFAULT.k3, DEFAULT.k4)
FD = FdParams(u_f=100.0, w=20.0, rho_j=140.0)  # triangular: the GP lanes can jam
RHO_C = critical_density(FD)
D = 5.0


def priced_rows(d1=0.0, d2=0.0, hov=0.0, sov=0.0, dt_h=0.1, steps=1, **controller):
    """One record per step of a 1 km corridor, one lane per group, priced from ``controller``.

    Record ``k`` holds the state after ``k`` Euler steps of ``dt_h`` hours.
    """
    config = ScenarioConfig(
        fd_hot=FD, fd_gp=FD, demand=DemandProfile(hov_rate=hov, sov_rate=sov),
        corridor_length=1.0, mean_trip_distance=D, controller=ControllerState(**controller),
        dt_s=3600.0 * dt_h, output_dt_s=3600.0 * dt_h, horizon_h=steps * dt_h,
        initial_hot_trips=d1, initial_gp_trips=d2,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # these corridors need not be overloaded
        return run(config)


def gp_trips_for_gap(omega):
    """GP trip count whose speed puts the gap to empty managed lanes at ``omega``."""
    v2 = 1.0 / (omega + 1.0 / FD.u_f)
    return FD.w * FD.rho_j / (v2 + FD.w)


def tick(a, b, lam, xi, dt_h, k1=DEFAULT.k1, k2=DEFAULT.k2, k3=DEFAULT.k3, k4=DEFAULT.k4):
    """(a, b) after one controller tick from a state at excess density ``lam`` and residual ``xi``.

    The HOT trips sit at ``lam`` above critical density and the HOV rate
    leaves ``xi`` of the service rate unused; there is no SOV demand.  The
    update is checked to be the exact explicit-Euler step of the records'
    own ``lam`` and ``xi``.
    """
    d1 = RHO_C + lam  # veh on the 1 km managed lane
    hov = d1 / D * speed(FD, d1) - xi
    before, after = priced_rows(d1=d1, hov=hov, dt_h=dt_h, steps=2,
                                a=a, b=b, k1=k1, k2=k2, k3=k3, k4=k4)
    assert before.lam == pytest.approx(lam, rel=1e-5, abs=1e-12)
    assert before.xi == pytest.approx(xi, abs=1e-9)
    dt = after.t
    assert after.a == before.a + dt * (k1 * before.lam - k2 * before.xi)
    assert after.b == before.b + dt * (k3 * before.lam - k4 * before.xi)
    return after.a, after.b


class TestToll:
    def test_zero_state_posts_free(self):
        for omega in (0.0, 0.01, 5.0):
            row = priced_rows(d2=gp_trips_for_gap(omega) if omega else 0.0)[0]
            assert row.omega == pytest.approx(omega)
            assert row.u == 0.0

    def test_linear_combination(self):
        row = priced_rows(d2=gp_trips_for_gap(0.01), a=50.0, b=0.2)[0]
        assert row.omega == pytest.approx(0.01)
        assert row.u == pytest.approx(0.7)

    def test_non_negative_clamp(self):
        row = priced_rows(d2=gp_trips_for_gap(0.01), a=10.0, b=-1.0)[0]
        assert row.u == 0.0
        assert row.toll_clamped == 1

    def test_unbounded_gap_posts_ceiling(self):
        row = priced_rows(d2=FD.rho_j, a=1.0, b=1.0, toll_ceiling=123.0)[0]
        assert row.omega == math.inf
        assert row.u == 123.0

    def test_negative_gap_posts_at_zero_gap_and_nobody_pays(self):
        # managed lanes slower than the GP lanes: the toll is posted at gap 0
        for b in (0.3, -0.3):
            row = priced_rows(d1=40.0, sov=500.0, a=10.0, b=b)[0]
            assert row.omega < 0.0
            assert row.p == 0.0 and row.e21_tilde == 0.0
            assert row.u == max(0.0, b)


class TestUpdate:
    def test_stationary_at_reference(self):
        assert tick(3.0, 0.4, 0.0, 0.0, 0.5) == (3.0, 0.4)

    def test_direct_increment(self):
        a, b = tick(0.0, 0.0, 2.0, -100.0, 1.0, 8.0, 5.0, 8.0, 6.0)
        assert a == pytest.approx(516.0)
        assert b == pytest.approx(616.0)

    def test_congestion_raises_both_coefficients(self):
        a, b = tick(1.0, 1.0, 3.0, 0.0, 0.1, *GAINS)
        assert a > 1.0 and b > 1.0

    def test_spare_service_lowers_both_coefficients(self):
        a, b = tick(1.0, 1.0, 0.0, 50.0, 0.1, *GAINS)
        assert a < 1.0 and b < 1.0

    def test_coefficients_not_clamped(self):
        a, b = tick(0.0, 0.0, -5.0, 0.0, 1.0, *GAINS)
        assert a < 0.0 and b < 0.0

    def test_stationary_with_zero_xi_implies_zero_lam(self):
        # if neither coefficient moved and xi == 0, the gains force lam == 0
        for lam in (-2.0, -1e-9, 1e-9, 3.0):
            assert tick(0.0, 0.0, lam, 0.0, 1.0, *GAINS) != (0.0, 0.0)
        assert tick(0.0, 0.0, 0.0, 0.0, 1.0, *GAINS) == (0.0, 0.0)


class TestValidation:
    def test_gains_must_be_positive(self):
        with pytest.raises(ValueError):
            ControllerState(k1=0.0)
        with pytest.raises(ValueError):
            ControllerState(k4=-1.0)

    def test_ceiling_positive(self):
        with pytest.raises(ValueError):
            ControllerState(toll_ceiling=0.0)

    @pytest.mark.parametrize("value", [0, 1.5, math.nan, 2.0])
    def test_decimation_must_be_a_positive_integer(self, value):
        message = f"control decimation must be an integer >= 1, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ControllerState(decimation=value)

    @pytest.mark.parametrize("field", ["a", "b", "k1", "k2", "k3", "k4", "toll_ceiling"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        # min() with a NaN first returns NaN, which a "<= 0" test lets through
        with pytest.raises(ValueError, match="finite"):
            ControllerState(**{field: value})
