"""Paying-share models and the toll lines that invert them."""

import math
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from hotlanes.controller import ControllerState
from hotlanes.lane_choice import ExponentialVot, LogitChoice, UniformVot
from hotlanes.presets import preset
from hotlanes.scenario import DemandProfile, run

UE = ExponentialVot(mean=50.0)
UNIFORM = UniformVot(10.0, 90.0)
UE_MODELS = pytest.mark.parametrize("model", [UE, UNIFORM], ids=["exponential", "uniform"])
LOGIT = LogitChoice(pi_star=50.0, alpha_star=1.0)


def toll(choice, p, omega):
    """The toll ``A * omega + B`` on the model's toll line that yields share ``p``."""
    a, b, _, _ = choice.toll_line(p)
    return a * omega + b


class TestUeShare:
    def test_threshold_at_mean_vot(self):
        assert UE.share(0.5, 0.01) == pytest.approx(math.exp(-1.0))
        assert UE.share(0.5, 0.01) == pytest.approx(0.36788, rel=1e-4)

    @UE_MODELS
    def test_free_toll_everyone_pays(self, model):
        assert model.share(0.0, 0.02) == 1.0

    @UE_MODELS
    def test_unbounded_gap_everyone_pays(self, model):
        assert model.share(3.0, math.inf) == 1.0

    @UE_MODELS
    def test_zero_gap(self, model):
        assert model.share(0.1, 0.0) == 0.0
        assert model.share(0.0, 0.0) == 1.0  # 1 - F(0)

    def test_uniform_threshold_at_and_below_low_everyone_pays(self):
        assert UNIFORM.share(0.1, 0.01) == 1.0  # threshold 10 = low
        assert UNIFORM.share(0.05, 0.01) == 1.0

    def test_uniform_threshold_at_and_above_high_nobody_pays(self):
        assert UNIFORM.share(0.9, 0.01) == 0.0  # threshold 90 = high
        assert UNIFORM.share(2.0, 0.01) == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            UE.share(-0.1, 0.01)
        with pytest.raises(ValueError):
            UE.share(0.1, -0.01)

    @pytest.mark.parametrize("u, omega", [(0.1, -math.inf), (0.1, math.nan), (math.nan, 0.01),
                                          (-math.inf, 0.01)])
    def test_nan_and_negative_infinite_inputs_rejected(self, u, omega):
        for model in (UE, UNIFORM):
            with pytest.raises(ValueError, match="non-negative"):
                model.share(u, omega)


class TestUeInverseToll:
    def test_full_share_is_free(self):
        assert toll(UE, 1.0, 0.02) == 0.0

    def test_mean_vot_point(self):
        assert toll(UE, math.exp(-1.0), 0.01) == pytest.approx(0.5)

    def test_linear_in_gap(self):
        u1 = toll(UE, 0.4, 0.01)
        u2 = toll(UE, 0.4, 0.03)
        assert u2 == pytest.approx(3.0 * u1)

    def test_zero_share_unbounded(self):
        with pytest.raises(ValueError):
            toll(UE, 0.0, 0.01)


# The UE models' share and toll line at the limits, the bounds and inside,
# as the UE choice wrapper over these distributions answered them, float for float.
SHARE_POINTS = [(0.0, 0.0), (0.1, 0.0), (0.0, 0.02), (3.0, math.inf), (0.5, 0.01), (0.1, 0.01),
                (0.05, 0.01), (0.6, 0.01), (0.09, 0.001), (2.0, 0.01), (1.2, 0.02), (1e-300, 0.5)]
TARGETS = (0.1, 0.31, 1.0)
REFERENCE = {
    "exponential": (UE, [
        1.0, 0.0, 1.0, 1.0, 0.36787944117144233, 0.8187307530779818, 0.9048374180359595,
        0.30119421191220214, 0.16529888822158653, 0.01831563888873418, 0.30119421191220214, 1.0,
    ], [
        (115.12925464970228, 0.0, -500.0, 0.0), (58.55914907514725, 0.0, -161.29032258064515, 0.0),
        (-0.0, 0.0, -50.0, 0.0),
    ]),
    "uniform": (UNIFORM, [
        1.0, 0.0, 1.0, 1.0, 0.5, 1.0, 1.0, 0.375, 0.0, 0.0, 0.375, 1.0,
    ], [
        (82.0, 0.0, -80.0, 0.0), (65.19999999999999, 0.0, -80.0, 0.0), (10.0, 0.0, -80.0, 0.0),
    ]),
}


@pytest.mark.parametrize("model, shares, lines", REFERENCE.values(), ids=REFERENCE)
def test_ue_share_and_toll_line_match_the_reference_bit_for_bit(model, shares, lines):
    got_shares = [model.share(u, omega) for u, omega in SHARE_POINTS]
    got_lines = [model.toll_line(p) for p in TARGETS]
    # repr tells -0.0 from 0.0 and prints every float exactly
    assert list(map(repr, got_shares)) == list(map(repr, shares))
    assert list(map(repr, got_lines)) == list(map(repr, lines))


class TestLogitShare:
    def test_half_at_indifference(self):
        assert LOGIT.share(0.5, 0.01) == 0.5

    def test_unbounded_gap(self):
        assert LOGIT.share(2.0, math.inf) == 1.0

    @pytest.mark.parametrize("u, omega", [(0.1, -math.inf), (0.1, math.nan), (math.nan, 0.01),
                                          (-0.1, 0.01), (0.1, -0.01)])
    def test_nan_negative_and_negative_infinite_inputs_rejected(self, u, omega):
        with pytest.raises(ValueError, match="non-negative"):
            LOGIT.share(u, omega)

    def test_direct_value(self):
        assert LOGIT.share(1.0, 0.01) == pytest.approx(1.0 / (1.0 + math.exp(0.5)))
        assert LOGIT.share(1.0, 0.01) == pytest.approx(0.37754, rel=1e-4)


class TestLogitInverseToll:
    def test_half_share(self):
        assert toll(LOGIT, 0.5, 0.01) == pytest.approx(0.5)

    def test_inverse_of_direct_example(self):
        p = 1.0 / (1.0 + math.exp(0.5))
        assert toll(LOGIT, p, 0.01) == pytest.approx(1.0, rel=1e-12)

    def test_boundary_shares_rejected(self):
        for p in (0.0, 1.0):
            with pytest.raises(ValueError):
                toll(LOGIT, p, 0.01)

    def test_share_above_free_share_needs_negative_toll(self):
        free = LOGIT.share(0.0, 0.01)
        assert toll(LOGIT, free + 0.05, 0.01) < 0.0


def split_rows(sov, mode="hot", choice=UE, b0=0.0):
    """Two one-step records of the empty ``constant`` corridor under SOV demand ``sov``.

    The corridor is empty at t = 0, so the gap is 0 and the posted toll is ``b0``.
    """
    config = replace(
        preset("constant"), demand=DemandProfile.constant(0.0, sov), mode=mode,
        choice=choice, controller=ControllerState(b=b0),
        dt_s=1.0, output_dt_s=1.0, horizon_h=2.0 / 3600.0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # SOV demand alone need not overload the corridor
        return run(config)


def logit_toll_for(p):
    """Toll that the constant preset's logit model (scale 1) answers with share p at zero gap."""
    return math.log(1.0 / p - 1.0)


class TestSplitInflow:
    def test_extremes(self):
        nobody = split_rows(500.0, mode="hov")[0]  # no paying option: p = 0
        assert (nobody.e21_tilde, nobody.e2_tilde - nobody.e21_tilde) == (0.0, 500.0)
        everyone = split_rows(500.0)[0]  # zero toll at zero gap: p = 1 - F(0) = 1
        assert (everyone.e21_tilde, everyone.e2_tilde - everyone.e21_tilde) == (500.0, 0.0)

    def test_study_split(self):
        row = split_rows(8600.0, choice=LOGIT, b0=logit_toll_for(0.3101))[0]
        assert row.e21_tilde == pytest.approx(2666.9, rel=1e-4)
        assert row.e2_tilde - row.e21_tilde == pytest.approx(5933.1, rel=1e-4)

    def test_conserves_rate(self):
        # paying and non-paying SOVs together enter the corridor at the SOV rate
        first, second = split_rows(777.0, choice=LOGIT, b0=logit_toll_for(0.41))
        entered = (second.E1 - first.E1) + (second.E2 - first.E2)
        assert entered / second.t == pytest.approx(777.0)


shares = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)
gaps = st.floats(min_value=1e-3, max_value=0.5)


class TestRoundTrips:
    @given(p=shares, omega=gaps)
    def test_ue_round_trip(self, p, omega):
        u = toll(UE, p, omega)
        assert UE.share(u, omega) == pytest.approx(p, rel=1e-10)

    @given(p=st.floats(min_value=1e-6, max_value=0.5), omega=gaps)
    def test_logit_round_trip(self, p, omega):
        u = toll(LOGIT, p, omega)
        if u < 0:
            return  # outside the non-negative toll domain
        assert LOGIT.share(u, omega) == pytest.approx(p, rel=1e-10)

    @given(p=shares, omega=gaps)
    def test_uniform_vot_round_trip(self, p, omega):
        choice = UniformVot(0.0, 80.0)
        u = toll(choice, p, omega)
        assert choice.share(u, omega) == pytest.approx(p, rel=1e-9)


class TestBehavioralPrinciples:
    @given(u=st.floats(min_value=0.05, max_value=3.0), omega=gaps)
    def test_ue_decreasing_in_toll(self, u, omega):
        h = 1e-6
        assert UE.share(u + h, omega) < UE.share(u - h, omega)

    @given(u=st.floats(min_value=0.05, max_value=3.0), omega=gaps)
    def test_ue_increasing_in_gap(self, u, omega):
        h = 1e-7
        assert UE.share(u, omega + h) > UE.share(u, omega - h)

    @given(u=st.floats(min_value=0.0, max_value=3.0),
           omega=st.floats(min_value=1e-3, max_value=0.06))
    def test_logit_monotonicity(self, u, omega):
        # keep the logistic away from float saturation at either tail
        h = 1e-6
        assert LOGIT.share(u + h, omega) < LOGIT.share(u, omega)
        assert LOGIT.share(u, omega + h) > LOGIT.share(u, omega)

    @given(
        pi_lo=st.floats(min_value=0.1, max_value=200.0),
        pi_hi=st.floats(min_value=0.1, max_value=200.0),
        u=st.floats(min_value=0.01, max_value=2.0),
        omega=gaps,
    )
    def test_ue_payers_are_the_upper_tail(self, pi_lo, pi_hi, u, omega):
        # whoever has the higher VOT pays whenever the lower-VOT driver does
        lo, hi = sorted((pi_lo, pi_hi))
        threshold = u / omega
        if lo >= threshold:
            assert hi >= threshold


class TestDistributions:
    def test_exponential_cdf_tail_consistency(self):
        for p in (0.9, 0.5, 0.1):
            assert UE.share(toll(UE, p, 1.0), 1.0) == pytest.approx(p, rel=1e-12)

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            UniformVot(10.0, 10.0)
        with pytest.raises(ValueError):
            UniformVot(-5.0, 10.0)

    def test_non_finite_parameters_rejected(self):
        for build in (
            lambda: ExponentialVot(math.nan), lambda: UniformVot(math.nan, 100.0),
            lambda: UniformVot(0.0, math.inf), lambda: LogitChoice(pi_star=math.inf),
            lambda: LogitChoice(alpha_star=math.nan),
        ):
            with pytest.raises(ValueError, match="finite"):
                build()
