"""Feedback toll law: posting and integral updates."""

import math

import pytest

from hotlanes.controller import ControllerState, integrate, posted_toll

DEFAULT = ControllerState()
GAINS = (DEFAULT.k1, DEFAULT.k2, DEFAULT.k3, DEFAULT.k4)


class TestToll:
    def test_zero_state_posts_free(self):
        for omega in (0.0, 0.01, 5.0):
            assert posted_toll(0.0, 0.0, omega, DEFAULT.toll_ceiling) == 0.0

    def test_linear_combination(self):
        assert posted_toll(50.0, 0.2, 0.01, DEFAULT.toll_ceiling) == pytest.approx(0.7)

    def test_non_negative_clamp(self):
        assert posted_toll(10.0, -1.0, 0.01, DEFAULT.toll_ceiling) == 0.0

    def test_unbounded_gap_posts_ceiling(self):
        assert posted_toll(1.0, 1.0, math.inf, 123.0) == 123.0

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            posted_toll(0.0, 0.0, -0.01, DEFAULT.toll_ceiling)


class TestUpdate:
    def test_stationary_at_reference(self):
        assert integrate(3.0, 0.4, 0.0, 0.0, 0.5, *GAINS) == (3.0, 0.4)

    def test_direct_increment(self):
        a, b = integrate(0.0, 0.0, 2.0, -100.0, 1.0, 8.0, 5.0, 8.0, 6.0)
        assert a == pytest.approx(516.0)
        assert b == pytest.approx(616.0)

    def test_congestion_raises_both_coefficients(self):
        a, b = integrate(1.0, 1.0, 3.0, 0.0, 0.1, *GAINS)
        assert a > 1.0 and b > 1.0

    def test_spare_service_lowers_both_coefficients(self):
        a, b = integrate(1.0, 1.0, 0.0, 50.0, 0.1, *GAINS)
        assert a < 1.0 and b < 1.0

    def test_coefficients_not_clamped(self):
        a, b = integrate(0.0, 0.0, -5.0, 0.0, 1.0, *GAINS)
        assert a < 0.0 and b < 0.0

    def test_stationary_with_zero_xi_implies_zero_lam(self):
        # if neither coefficient moved and xi == 0, the gains force lam == 0
        for lam in (-2.0, -1e-9, 1e-9, 3.0):
            assert integrate(0.0, 0.0, lam, 0.0, 1.0, *GAINS) != (0.0, 0.0)
        assert integrate(0.0, 0.0, 0.0, 0.0, 1.0, *GAINS) == (0.0, 0.0)


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
