"""Speed, flow and phase behavior of the fundamental diagram."""

import math

import pytest
from hypothesis import given, strategies as st

from hotlanes.nfd import (
    FdParams,
    capacity,
    classify_phase,
    critical_density,
    flow,
    speed,
)

RHO_C = 70.0 / 3.0  # 20 * 140 / 120


class TestCriticalDensity:
    def test_study_parameters(self, fd_triangular):
        assert critical_density(fd_triangular) == pytest.approx(RHO_C, rel=1e-12)
        assert round(critical_density(fd_triangular), 4) == 23.3333

    def test_symmetric_speeds_give_half_jam(self):
        fd = FdParams(u_f=60.0, w=60.0, rho_j=100.0)
        assert critical_density(fd) == pytest.approx(50.0)

    def test_capacity_and_floor(self, fd_triangular, fd_floor):
        assert capacity(fd_triangular) == pytest.approx(7000.0 / 3.0, rel=1e-12)
        assert round(capacity(fd_triangular), 2) == 2333.33
        assert fd_floor.c == pytest.approx(0.8 * 7000.0 / 3.0)
        assert round(fd_floor.c, 2) == 1866.67

    def test_critical_density_interior(self, fd_triangular):
        rho_c = critical_density(fd_triangular)
        assert 0.0 < rho_c < fd_triangular.rho_j

    @pytest.mark.parametrize("w, rho_j", [(1e308, 140.0), (20.0, 1e308)], ids=["wave", "jam"])
    def test_overflowing_critical_density_rejected(self, w, rho_j):
        # w * rho_j overflows, so the critical density and the capacity would be inf
        with pytest.raises(ValueError, match="finite"):
            FdParams(u_f=100.0, w=w, rho_j=rho_j)


class TestSpeed:
    def test_free_flow_region(self, fd_triangular):
        assert speed(fd_triangular, 10.0) == pytest.approx(100.0)

    def test_zero_density_convention(self, fd_triangular):
        assert speed(fd_triangular, 0.0) == 100.0

    def test_jam_density_zero_speed(self, fd_triangular):
        assert speed(fd_triangular, 140.0) == 0.0

    def test_speed_clamps_at_zero_past_jam_without_a_floor(self, fd_triangular):
        # the wave branch w (rho_j - rho) / rho is exactly 0 at rho_j and negative past it
        for rho in (140.0, math.nextafter(140.0, math.inf), 1e300):
            assert speed(fd_triangular, rho) == 0.0

    def test_floor_keeps_speed_positive_at_jam(self, fd_floor):
        assert speed(fd_floor, 140.0) == pytest.approx(1866.6666666666667 / 140.0)
        assert round(speed(fd_floor, 140.0), 3) == 13.333

    def test_negative_density_rejected(self, fd_triangular):
        with pytest.raises(ValueError):
            speed(fd_triangular, -1.0)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
    def test_non_finite_density_rejected(self, fd_triangular, fd_floor, rho):
        for fd in (fd_triangular, fd_floor):
            with pytest.raises(ValueError, match="finite"):
                speed(fd, rho)


class TestFlow:
    def test_empty_road(self, fd_triangular):
        assert flow(fd_triangular, 0.0) == 0.0

    def test_capacity_at_critical_density(self, fd_triangular):
        assert flow(fd_triangular, RHO_C) == pytest.approx(7000.0 / 3.0, rel=1e-9)

    def test_floor_active_at_high_density(self, fd_floor):
        # congested branch gives 20 * (140 - 130) = 200 < floor
        assert flow(fd_floor, 130.0) == pytest.approx(fd_floor.c, rel=1e-12)

    def test_triangular_decreasing_past_critical(self, fd_triangular):
        rhos = [30.0, 50.0, 90.0, 120.0, 139.0]
        flows = [flow(fd_triangular, r) for r in rhos]
        assert all(a > b for a, b in zip(flows, flows[1:]))


class TestPhase:
    @pytest.mark.parametrize(
        "factor,expected",
        [(0.5, "SUC"), (1.0, "C"), (2.0, "SOC")],
    )
    def test_classification(self, fd_triangular, factor, expected):
        rho = factor * critical_density(fd_triangular)
        assert classify_phase(fd_triangular, rho) == expected

    def test_tolerance_band(self, fd_triangular):
        rho_c = critical_density(fd_triangular)
        assert classify_phase(fd_triangular, rho_c + 5e-10) == "C"
        assert classify_phase(fd_triangular, rho_c + 1e-8) == "SOC"

    def test_negative_density_rejected(self, fd_triangular):
        with pytest.raises(ValueError):
            classify_phase(fd_triangular, -0.1)

    @pytest.mark.parametrize("rho", [math.nan, math.inf])
    def test_non_finite_density_rejected(self, fd_triangular, rho):
        with pytest.raises(ValueError, match="finite"):
            classify_phase(fd_triangular, rho)


class TestParameterValidation:
    def test_positivity(self):
        with pytest.raises(ValueError):
            FdParams(u_f=0.0, w=20.0, rho_j=140.0)
        with pytest.raises(ValueError):
            FdParams(u_f=100.0, w=-1.0, rho_j=140.0)

    def test_floor_bounded_by_capacity(self):
        with pytest.raises(ValueError):
            FdParams(u_f=100.0, w=20.0, rho_j=140.0, c=5000.0)
        # the tolerance covers rounding, not a floor 0.05% above capacity
        cap = capacity(FdParams(u_f=100.0, w=20.0, rho_j=140.0))
        with pytest.raises(ValueError, match="outside"):
            FdParams(u_f=100.0, w=20.0, rho_j=140.0, c=1.0005 * cap)

    def test_floor_at_capacity_is_ramp_diagram(self):
        fd = FdParams(u_f=100.0, w=20.0, rho_j=140.0, c=7000.0 / 3.0)
        # flow stays at capacity for every density past critical
        for rho in (critical_density(fd), 50.0, 100.0, 140.0):
            assert flow(fd, rho) == pytest.approx(7000.0 / 3.0, rel=1e-9)


densities = st.floats(min_value=0.0, max_value=140.0, allow_nan=False)


class TestProperties:
    @given(rho=densities)
    def test_flow_never_exceeds_capacity(self, rho):
        fd = FdParams(u_f=100.0, w=20.0, rho_j=140.0, c=0.0)
        assert flow(fd, rho) <= capacity(fd) * (1 + 1e-12)

    @given(a=densities, b=densities)
    def test_speed_non_increasing(self, a, b):
        fd = FdParams(u_f=100.0, w=20.0, rho_j=140.0, c=1866.0)
        lo, hi = min(a, b), max(a, b)
        assert speed(fd, lo) >= speed(fd, hi) - 1e-12

    @given(rho=densities)
    def test_zero_floor_matches_triangular(self, rho):
        tri = FdParams(u_f=100.0, w=20.0, rho_j=140.0, c=0.0)
        # a vanishing floor converges to the triangular diagram pointwise
        tiny = FdParams(u_f=100.0, w=20.0, rho_j=140.0, c=1e-9)
        assert speed(tiny, rho) == pytest.approx(speed(tri, rho), abs=1e-9)

    @given(rho=densities)
    def test_phase_sign_consistency(self, rho):
        fd = FdParams(u_f=100.0, w=20.0, rho_j=140.0, c=0.0)
        phase = classify_phase(fd, rho)
        diff = rho - critical_density(fd)
        if phase == "SUC":
            assert diff < 0
        elif phase == "SOC":
            assert diff > 0
        else:
            assert phase == "C" and abs(diff) <= 1e-9
