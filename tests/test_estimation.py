"""VOT estimators and observation pooling."""

import itertools
import math
import random
import tracemalloc
from types import SimpleNamespace

import pytest

from hotlanes.estimation import (
    EstimationError,
    estimate_cdf_point,
    estimate_logit_vot,
    pool_cdf_points,
)


def obs(u=1.0, omega=0.02, e2=800.0, e21=400.0):
    """A stand-in for a record: the estimators read only these four fields."""
    return SimpleNamespace(u=u, omega=omega, e2_tilde=e2, e21_tilde=e21)


class TestCdfPoint:
    def test_everyone_pays(self):
        x, f_hat = estimate_cdf_point(obs(e21=800.0))
        assert x == pytest.approx(50.0)
        assert f_hat == 0.0

    def test_nobody_pays(self):
        _, f_hat = estimate_cdf_point(obs(e21=0.0))
        assert f_hat == 1.0

    def test_abscissa_is_toll_to_gap_ratio(self):
        x, _ = estimate_cdf_point(obs(u=0.9, omega=0.03))
        assert x == pytest.approx(30.0)

    def test_zero_gap_not_estimable(self):
        with pytest.raises(EstimationError):
            estimate_cdf_point(obs(omega=0.0))

    def test_unbounded_gap_not_estimable(self):
        with pytest.raises(EstimationError):
            estimate_cdf_point(obs(omega=math.inf))

    def test_zero_demand_not_estimable(self):
        with pytest.raises(EstimationError):
            estimate_cdf_point(obs(u=1.0, omega=0.02, e2=0.0, e21=0.0))

    @pytest.mark.parametrize("u, omega", [(1e308, 0.02), (1.0, 5e-324)])
    def test_overflowing_ratio_not_estimable(self, u, omega):
        with pytest.raises(EstimationError, match="overflows"):
            estimate_cdf_point(obs(u=u, omega=omega))


class TestLogitVot:
    def test_half_share_reads_off_ratio(self):
        assert estimate_logit_vot(obs(u=1.0, omega=0.02, e21=400.0)) == pytest.approx(50.0)

    def test_round_trips_generated_share(self):
        params_vot, alpha, omega = 62.0, 1.3, 0.015
        u = 1.1
        p = 1.0 / (1.0 + math.exp(alpha * (u - params_vot * omega)))
        got = estimate_logit_vot(obs(u=u, omega=omega, e2=1000.0, e21=1000.0 * p), alpha_star=alpha)
        assert got == pytest.approx(params_vot, rel=1e-12)

    def test_boundary_shares_not_estimable(self):
        with pytest.raises(EstimationError):
            estimate_logit_vot(obs(e21=0.0))
        with pytest.raises(EstimationError):
            estimate_logit_vot(obs(e21=800.0))

    def test_subnormal_paying_rate_not_estimable(self):
        # e2 / e21 overflows to inf, so the estimate would be -inf
        with pytest.raises(EstimationError):
            estimate_logit_vot(obs(e21=5e-324))

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            estimate_logit_vot(obs(), alpha_star=0.0)

    @pytest.mark.parametrize("alpha_star", [math.inf, math.nan, -math.inf])
    def test_scale_must_be_finite(self, alpha_star):
        # an infinite scale would give u / omega, and NaN would blame the record's share
        with pytest.raises(ValueError, match="positive and finite") as info:
            estimate_logit_vot(obs(), alpha_star=alpha_star)
        assert not isinstance(info.value, EstimationError)


class TestPooling:
    def test_empty_input(self):
        assert pool_cdf_points([]) == []

    def test_spread_below_a_bin_width_collapses(self):
        # (hi - lo) / num_bins underflows to 0: one bin at lo, not a division by zero
        assert pool_cdf_points([(0.0, 0.2), (5e-324, 0.4)]) == [(0.0, pytest.approx(0.3), 2)]

    def test_single_abscissa_collapses(self):
        pooled = pool_cdf_points([(5.0, 0.2), (5.0, 0.4)])
        assert pooled == [(5.0, pytest.approx(0.3), 2)]

    def test_bins_average_and_count(self):
        points = [(1.0, 0.1), (1.1, 0.3), (9.0, 0.9)]
        pooled = pool_cdf_points(points, num_bins=2)
        assert len(pooled) == 2
        (x0, f0, n0), (x1, f1, n1) = pooled
        assert x0 == pytest.approx(1.05)
        assert f0 == pytest.approx(0.2)
        assert n0 == 2
        assert x1 == pytest.approx(9.0)
        assert f1 == pytest.approx(0.9)
        assert n1 == 1

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            pool_cdf_points([(1.0, 0.5)], num_bins=0)

    @pytest.mark.parametrize("num_bins", [math.inf, math.nan, 1.5, 2.0])
    def test_bin_count_must_be_an_integer(self, num_bins):
        # an infinite count would take the one-abscissa path and report x = 1.0, not 1.5
        with pytest.raises(ValueError, match="integer >= 1"):
            pool_cdf_points([(1.0, 0.5), (2.0, 0.6)], num_bins=num_bins)

    def test_memory_follows_points_not_bins(self):
        # 200 points on 100 distinct abscissas, so bins are shared, pooled into 10^6 bins
        rng = random.Random(8)
        points = [(rng.randrange(100) * 0.37, rng.random()) for _ in range(200)]
        bins = 10**6
        lo, hi = min(x for x, _ in points), max(x for x, _ in points)
        width = (hi - lo) / bins

        def index(point):
            return min(int((point[0] - lo) / width), bins - 1)

        want = []  # a stable sort keeps each bin's points, and so its sums, in input order
        for _, group in itertools.groupby(sorted(points, key=index), key=index):
            group = list(group)
            x_sum = f_sum = 0.0
            for x, f in group:
                x_sum += x
                f_sum += f
            want.append((x_sum / len(group), f_sum / len(group), len(group)))

        tracemalloc.start()
        try:
            got = pool_cdf_points(points, num_bins=bins)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 1_000_000


class TestPayingRateValidation:
    def test_paying_rate_bounded(self):
        # a plain ValueError, not an EstimationError: the row is bad, not merely uninformative
        for estimate in (estimate_cdf_point, estimate_logit_vot):
            with pytest.raises(ValueError, match=r"paying-SOV rate must lie in \[0, SOV rate\]") as info:
                estimate(obs(u=1.0, omega=0.02, e2=100.0, e21=150.0))
            assert not isinstance(info.value, EstimationError)

    @pytest.mark.parametrize("u", [-1.0, -math.inf, math.inf, math.nan])
    def test_toll_non_negative_and_finite(self, u):
        # a toll no run posts makes the row bad for both models, as a paying rate out of range does
        for estimate in (estimate_cdf_point, estimate_logit_vot):
            with pytest.raises(ValueError, match="toll must be non-negative and finite") as info:
                estimate(obs(u=u))
            assert not isinstance(info.value, EstimationError)

    @pytest.mark.parametrize("e2", [math.inf, math.nan])
    def test_sov_rate_finite(self, e2):
        # no run writes a non-finite SOV rate; inf for both rates would give F = inf / inf
        for estimate in (estimate_cdf_point, estimate_logit_vot):
            with pytest.raises(ValueError, match="SOV rate must be finite") as info:
                estimate(obs(e2=e2, e21=math.inf))
            assert not isinstance(info.value, EstimationError)
