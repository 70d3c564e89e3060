"""Feedback toll law: posting and integral updates."""

import math

import pytest

from hotlanes.controller import ControllerState, toll, update


class TestToll:
    def test_zero_state_posts_free(self):
        ctrl = ControllerState(a=0.0, b=0.0)
        for omega in (0.0, 0.01, 5.0):
            assert toll(ctrl, omega) == 0.0

    def test_linear_combination(self):
        assert toll(ControllerState(a=50.0, b=0.2), 0.01) == pytest.approx(0.7)

    def test_non_negative_clamp(self):
        assert toll(ControllerState(a=10.0, b=-1.0), 0.01) == 0.0

    def test_unbounded_gap_posts_ceiling(self):
        ctrl = ControllerState(a=1.0, b=1.0, toll_ceiling=123.0)
        assert toll(ctrl, math.inf) == 123.0

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            toll(ControllerState(), -0.01)


class TestUpdate:
    def test_stationary_at_reference(self):
        ctrl = ControllerState(a=3.0, b=0.4)
        out = update(ctrl, 0.0, 0.0, 0.5)
        assert out.a == ctrl.a and out.b == ctrl.b

    def test_direct_increment(self):
        ctrl = ControllerState(k1=8.0, k2=5.0, k3=8.0, k4=6.0)
        out = update(ctrl, lam=2.0, xi=-100.0, dt=1.0)
        assert out.a == pytest.approx(516.0)
        assert out.b == pytest.approx(616.0)

    def test_congestion_raises_both_coefficients(self):
        ctrl = ControllerState(a=1.0, b=1.0)
        out = update(ctrl, lam=3.0, xi=0.0, dt=0.1)
        assert out.a > ctrl.a and out.b > ctrl.b

    def test_spare_service_lowers_both_coefficients(self):
        ctrl = ControllerState(a=1.0, b=1.0)
        out = update(ctrl, lam=0.0, xi=50.0, dt=0.1)
        assert out.a < ctrl.a and out.b < ctrl.b

    def test_coefficients_not_clamped(self):
        out = update(ControllerState(), lam=-5.0, xi=0.0, dt=1.0)
        assert out.a < 0.0 and out.b < 0.0

    def test_stationary_with_zero_xi_implies_zero_lam(self):
        # if neither coefficient moved and xi == 0, the gains force lam == 0
        ctrl = ControllerState()
        for lam in (-2.0, -1e-9, 1e-9, 3.0):
            out = update(ctrl, lam, 0.0, 1.0)
            assert (out.a, out.b) != (ctrl.a, ctrl.b)
        out = update(ctrl, 0.0, 0.0, 1.0)
        assert (out.a, out.b) == (ctrl.a, ctrl.b)

    def test_dt_positive(self):
        with pytest.raises(ValueError):
            update(ControllerState(), 0.0, 0.0, 0.0)


class TestValidation:
    def test_gains_must_be_positive(self):
        with pytest.raises(ValueError):
            ControllerState(k1=0.0)
        with pytest.raises(ValueError):
            ControllerState(k4=-1.0)

    def test_ceiling_positive(self):
        with pytest.raises(ValueError):
            ControllerState(toll_ceiling=0.0)

    @pytest.mark.parametrize("field", ["a", "b", "k1", "k2", "k3", "k4", "toll_ceiling"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        # min() with a NaN first returns NaN, which a "<= 0" test lets through
        with pytest.raises(ValueError, match="finite"):
            ControllerState(**{field: value})
