"""Scenario configuration, the closed-loop runner, metrics and the CLI."""

import csv
import gc
import importlib.util
import itertools
import math
import re
import tracemalloc
import warnings
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest
from conftest import until_gp_jam

from hotlanes import cli, scenario
from hotlanes.bathtub import HotGridlockError, SaturationStats
from hotlanes.cli import main
from hotlanes.controller import ControllerState
from hotlanes.lane_choice import ExponentialVot, LogitChoice, UniformVot
from hotlanes.nfd import FdParams, capacity
from hotlanes.presets import _KNOWN_KEYS, PRESETS, apply_overrides
from hotlanes.scenario import (
    ComparisonResult,
    ConfigError,
    DemandProfile,
    LaneMetrics,
    Metrics,
    ScenarioConfig,
    CSV_COLUMNS,
    SimulationRecord,
    compare_hov_hot,
    csv_rows,
    iter_csv,
    iter_run,
    metrics,
    read_csv,
    run,
)


_SPEC = importlib.util.spec_from_file_location(
    "counts_tool", Path(__file__).resolve().parent.parent / "tools" / "counts.py")
counts_tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(counts_tool)


def quiet_run(config, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run(config, **kwargs)


# The GP lanes jam without a flow floor and the toll posts its ceiling: every record is
# finite, but the revenue rate u * e21 * D is not.
JAM_AT_HUGE_CEILING = ["fd.gp.flow_floor_veh_h=0", "controller.toll_ceiling=1e308",
                       "simulation.horizon_h=0.5"]
# Both groups drain from 5e304 trips and stay empty for 3000 h, so each delay is near -1.5e308
# and their sum is not finite; gains of 1e-300 keep the toll coefficients finite.
DRAIN_FROM_HUGE_COUNTS = [
    "fd.jam_veh_km=1e305", "fd.flow_floor_veh_h=0", "demand.hov_veh_h=0", "demand.sov_veh_h=0",
    "simulation.initial_hot_trips=5e304", "simulation.initial_gp_trips=5e304",
    "simulation.horizon_h=3000", "simulation.dt_s=360", "simulation.output_dt_s=3600",
    *(f"controller.k{i}=1e-300" for i in range(1, 5)),
]


def short(config, horizon_h=0.02, dt_s=0.5, **kwargs):
    return replace(config, horizon_h=horizon_h, dt_s=dt_s, output_dt_s=dt_s, **kwargs)


def leaf_fields(obj, prefix=""):
    """{dotted field path: value} of every field of ``obj`` that is not itself a dataclass."""
    if not is_dataclass(obj):
        return {prefix: obj}
    out = {}
    for f in fields(obj):
        out.update(leaf_fields(getattr(obj, f.name), f"{prefix}.{f.name}".lstrip(".")))
    return out


class TestDemandProfile:
    def test_constant(self):
        d = DemandProfile.constant(200.0, 860.0)
        assert d.held_rates(0.0)[:2] == (200.0, 860.0)
        assert d.held_rates(99.0)[:2] == (200.0, 860.0)

    def test_trapezoid_shape(self):
        d = DemandProfile.trapezoid(100.0, 400.0, 0.0, 1.0, 3.0, 4.0)
        assert d.held_rates(0.0)[:2] == (0.0, 0.0)
        assert d.held_rates(0.5)[:2] == (50.0, 200.0)
        assert d.held_rates(2.0)[:2] == (100.0, 400.0)
        assert d.held_rates(3.5)[:2] == (50.0, 200.0)
        assert d.held_rates(5.0)[:2] == (0.0, 0.0)

    def test_trapezoid_breakpoints_must_increase(self):
        with pytest.raises(ConfigError):
            DemandProfile.trapezoid(1.0, 1.0, 0.0, 1.0, 1.0, 2.0)

    def test_piecewise_interpolation(self):
        d = DemandProfile(breakpoints=(0.0, 1.0, 2.0),
                          hov_rates=(0.0, 100.0, 0.0), sov_rates=(0.0, 400.0, 100.0))
        assert d.held_rates(0.5)[:2] == (50.0, 200.0)
        assert d.held_rates(1.5)[:2] == (50.0, 250.0)
        assert d.held_rates(-1.0)[:2] == (0.0, 0.0)
        assert d.held_rates(5.0)[:2] == (0.0, 100.0)

    def test_piecewise_validation(self):
        with pytest.raises(ConfigError):
            DemandProfile(breakpoints=(), hov_rates=(), sov_rates=())
        with pytest.raises(ConfigError):
            DemandProfile(breakpoints=(0.0, 1.0),
                          hov_rates=(1.0, -2.0), sov_rates=(1.0, 1.0))
        with pytest.raises(ConfigError):
            DemandProfile(breakpoints=(0.0, math.nan),
                          hov_rates=(1.0, 2.0), sov_rates=(1.0, 1.0))
        with pytest.raises(ConfigError):
            DemandProfile(breakpoints=(0.0, 1.0),
                          hov_rates=(1.0, 2.0), sov_rates=(1.0, math.inf))
        with pytest.raises(ConfigError):
            DemandProfile.constant(math.nan, 860.0)

    @pytest.mark.parametrize("build, args", [
        *[(DemandProfile.constant, args) for args in (
            (-1.0, 860.0), (200.0, -1.0), (math.nan, 860.0), (200.0, math.inf))],
        *[(DemandProfile.trapezoid, args) for args in (
            (-1.0, 700.0, 0.0, 0.5, 4.5, 5.0), (200.0, -1.0, 0.0, 0.5, 4.5, 5.0),
            (math.inf, 700.0, 0.0, 0.5, 4.5, 5.0), (200.0, math.nan, 0.0, 0.5, 4.5, 5.0),
            (200.0, 700.0, math.nan, 0.5, 4.5, 5.0), (200.0, 700.0, 0.0, math.inf, 4.5, 5.0),
            (200.0, 700.0, 0.0, 0.5, 4.5, -math.inf), (200.0, 700.0, 0.5, 0.5, 4.5, 5.0),
            (200.0, 700.0, 0.0, 0.5, 0.4, 5.0), (200.0, 700.0, 0.0, 0.5, 4.5, 4.5))],
        *[(DemandProfile, args) for args in (
            ((), (), ()), ((0.0, 1.0), (1.0,), (1.0, 2.0)), ((0.0, 1.0), (1.0, 2.0), (1.0,)),
            ((0.0,), (1.0, 2.0), (1.0, 2.0)), ((1.0, 0.0), (1.0, 2.0), (1.0, 2.0)),
            ((0.0, 0.0), (1.0, 2.0), (1.0, 2.0)), ((0.0, 2.0, 1.0), (1.0,) * 3, (1.0,) * 3),
            ((0.0, math.nan), (1.0, 2.0), (1.0, 2.0)), ((0.0, 1.0), (1.0, math.inf), (1.0, 2.0)),
            ((0.0, 1.0), (1.0, 2.0), (math.nan, 2.0)), ((0.0, 1.0), (-1.0, 2.0), (1.0, 2.0)),
            ((0.0, 1.0), (1.0, 2.0), (1.0, -1e-300)))],
    ])
    def test_every_field_of_every_shape_is_checked(self, build, args):
        # a negative or non-finite rate or time, and decreasing, repeated or ragged knots
        with pytest.raises(ConfigError):
            build(*args)

    def test_a_shape_is_its_knots(self):
        assert DemandProfile.constant(200, 860) == DemandProfile((0.0,), (200.0,), (860.0,))
        assert DemandProfile.trapezoid(200.0, 700.0, 0.0, 0.5, 4.5, 5.0) == DemandProfile(
            [0, 0.5, 4.5, 5], [0, 200, 200, 0], [0, 700, 700, 0])
        assert DemandProfile.constant(200.0, 860.0).kind == "constant"
        assert DemandProfile((3.0,), (1.0,), (2.0,)).kind == "constant"
        assert DemandProfile.trapezoid(1.0, 1.0, 0.0, 1.0, 2.0, 3.0).kind == "piecewise"
        # the kind is the rates' shape, not the knot count
        assert DemandProfile((0.0, 1.0), (200.0, 200.0), (860.0, 860.0)).kind == "constant"
        assert DemandProfile((0.0, 1.0), (200.0, 200.0), (860.0, 900.0)).kind == "piecewise"
        # the knots are tuples of floats, a zero rate +0.0
        d = DemandProfile([-0.0, 1], [-0.0, 2], [0, 3])
        assert repr(d) == "DemandProfile(breakpoints=(0.0, 1.0), hov_rates=(0.0, 2.0), sov_rates=(0.0, 3.0))"

    def test_flat_segment_holds_to_its_end(self):
        d = DemandProfile((0.0, 1.0, 2.0, 3.0), (0.0, 5.0, 5.0, 1.0), (1.0, 7.0, 7.0, 7.0))
        assert d.held_rates(1.0) == d.held_rates(1.5) == (5.0, 7.0, 2.0)
        assert d.held_rates(2.0) == (5.0, 7.0, 2.0)  # the ramp down starts from the held rates
        assert d.held_rates(2.5) == (3.0, 7.0, 2.5)
        assert d.held_rates(-4.0) == (0.0, 1.0, 0.0) and d.held_rates(9.0) == (1.0, 7.0, math.inf)

    def test_peak_rates(self):
        d = DemandProfile(breakpoints=(0.0, 1.0),
                          hov_rates=(5.0, 2.0), sov_rates=(1.0, 9.0))
        assert d.peak_rates() == (5.0, 9.0)

    @pytest.mark.parametrize("demand, ends", [
        (DemandProfile.constant(200.0, -0.0),
         {0.0: math.inf, 3.7: math.inf}),
        (DemandProfile.trapezoid(100.0, -0.0, 0.5, 1.0, 3.0, 4.0),
         {-1.0: 0.5, 0.5: 0.5, 0.7: 0.7, 1.0: 3.0, 2.0: 3.0, 3.0: 3.0, 3.5: 3.5,
          4.0: math.inf, 9.0: math.inf}),
        (DemandProfile(breakpoints=(0.5, 1.0, 2.0, 3.0),
                       hov_rates=(0.0, 100.0, 100.0, 20.0), sov_rates=(300.0, 400.0, 400.0, -0.0)),
         {0.0: 0.5, 0.5: 0.5, 0.75: 0.75, 1.0: 2.0, 1.5: 2.0, 2.0: 2.0, 2.5: 2.5,
          3.0: math.inf, 7.0: math.inf}),
    ], ids=["constant", "trapezoid", "piecewise"])
    def test_held_rates_hold_until_their_end(self, demand, ends):
        # on every shape: before, at and between the knots, on a flat segment, and at t_end = inf
        for t, want_end in ends.items():
            hov, sov, t_end = demand.held_rates(t)
            assert t_end == want_end, t
            between = ([t + f * (t_end - t) for f in (0.25, 0.5, 0.999)] if t_end < math.inf
                       else [t + 1e-9, t + 1.0, t + 1e6])
            for s in (t, *between, t_end):
                if s < math.inf:  # bit for bit: a -0.0 rate reads 0.0 on both sides of a knot
                    assert repr(demand.held_rates(s)[:2]) == repr((hov, sov)), (t, s)


def study(fd, demand, choice, horizon_h):
    """A config as the preset factories built one, with the values the study pins."""
    return ScenarioConfig(
        fd_hot=fd, fd_gp=fd, demand=demand, corridor_length=1.0, mean_trip_distance=5.0,
        choice=choice, controller=ControllerState(k1=8.0, k2=5.0, k3=8.0, k4=6.0),
        dt_s=0.1, horizon_h=horizon_h,
    )


_TRIANGULAR = FdParams(u_f=100.0, w=20.0, rho_j=140.0, c=0.0)
_FLOOR = FdParams(u_f=100.0, w=20.0, rho_j=140.0, c=0.8 * capacity(_TRIANGULAR))
_OVERLOAD = DemandProfile.constant(200.0, 860.0)
_UE = ExponentialVot(mean=50.0)
# the configs the deleted preset factories returned, the reference for the override lists
FACTORY_PRESETS = {
    "constant": study(_FLOOR, _OVERLOAD, _UE, 5.0),
    "constant-logit": study(_FLOOR, _OVERLOAD, LogitChoice(pi_star=50.0, alpha_star=1.0), 5.0),
    "trapezoid": study(_FLOOR, DemandProfile.trapezoid(200.0, 700.0, 0.0, 0.5, 4.5, 5.0), _UE, 9.0),
    "triangular-gridlock": study(_TRIANGULAR, _OVERLOAD, _UE, 2.0),
}


class TestConfig:
    @pytest.mark.parametrize("name", sorted(FACTORY_PRESETS))
    def test_preset_matches_the_factory_it_replaces(self, name):
        assert apply_overrides(None, name, []) == FACTORY_PRESETS[name]
        assert repr(apply_overrides(None, name, [])) == repr(FACTORY_PRESETS[name])

    def test_every_preset_is_an_override_list(self):
        assert sorted(PRESETS) == sorted(FACTORY_PRESETS)
        for name, overrides in PRESETS.items():
            assert isinstance(overrides, tuple)
            assert apply_overrides(None, "constant", list(overrides)) == apply_overrides(None, name, [])

    def test_preset_constant_defaults(self):
        cfg = apply_overrides(None, "constant", [])
        assert cfg.demand.held_rates(1.0)[:2] == (200.0, 860.0)
        assert cfg.fd_hot.u_f == 100.0
        assert cfg.fd_gp.c == pytest.approx(0.8 * 7000.0 / 3.0)
        assert cfg.controller.k1 == 8.0 and cfg.controller.k4 == 6.0
        assert cfg.dt_s == 0.1 and cfg.horizon_h == 5.0
        assert not cfg.a1_warnings()

    def test_unknown_preset(self):
        available = "available: constant, constant-logit, trapezoid, triangular-gridlock"
        with pytest.raises(ConfigError, match=f"^unknown preset 'nope'; {available}$"):
            apply_overrides(None, "nope", [])

    def test_trapezoid_preset_warns_at_peak(self):
        cfg = apply_overrides(None, "trapezoid", [])
        assert cfg.a1_warnings()  # peak deliberately below joint capacity

    def test_validation(self):
        cfg = apply_overrides(None, "constant", [])
        with pytest.raises(ConfigError):
            replace(cfg, mode="bus")
        with pytest.raises(ConfigError):
            replace(cfg, dt_s=0.0)
        with pytest.raises(ConfigError):
            replace(cfg, output_dt_s=0.01)  # finer than dt
        # the step loop builds no state objects, so the config is the only check
        for bad in (
            {"dt_s": math.nan}, {"horizon_h": math.inf}, {"output_dt_s": math.nan},
            {"corridor_length": math.inf}, {"mean_trip_distance": math.nan},
            {"initial_hot_trips": math.nan}, {"initial_gp_trips": math.inf},
            {"hot_lanes": 0.5}, {"gp_lanes": math.nan},
        ):
            with pytest.raises(ConfigError):
                replace(cfg, **bad)

    def test_initial_trips_within_the_jam_cap(self, tmp_path, capsys):
        # no flow floor: a group holds at most rho_j * L trips
        cfg = apply_overrides(None, "triangular-gridlock", [])
        for field in ("initial_hot_trips", "initial_gp_trips"):
            assert replace(cfg, **{field: 140.0})  # exactly at the cap
            with pytest.raises(ConfigError, match=f"^{field} = 1000 exceeds the jam cap 140$"):
                replace(cfg, **{field: 1000.0})
            assert replace(apply_overrides(None, "constant", []), **{field: 1e300})  # a flow floor: no cap
        out = tmp_path / "over.csv"
        assert main(["run", "--preset", "triangular-gridlock",
                     "--set", "simulation.initial_gp_trips=1000",
                     "--set", "simulation.horizon_h=0.001", "--set", "simulation.output_dt_s=0.1",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: initial_gp_trips = 1000 exceeds")
        assert not out.exists()

    def test_step_ceiling(self):
        cfg = replace(apply_overrides(None, "constant", []), dt_s=1.0, output_dt_s=1.0)
        ceiling = ScenarioConfig.MAX_STEPS
        replace(cfg, horizon_h=0.5 * ceiling / 3600.0)
        for bad in ({"horizon_h": 2.0 * ceiling / 3600.0}, {"horizon_h": 1e9},
                    {"horizon_h": 1e300, "dt_s": 1e-10, "output_dt_s": 1e-10}):
            with pytest.raises(ConfigError, match="steps"):
                replace(cfg, **bad)

    def test_load_ini(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(
            "[scenario]\npreset = constant\n"
            "[simulation]\nhorizon_h = 0.5\ndt_s = 0.2\n"
            "[demand]\nkind = constant\nhov_veh_h = 150\nsov_veh_h = 700\n"
            "[controller]\nk1 = 9\na0 = 2.5\n"
            "[fd]\nflow_floor_veh_h = 1000\n"
        )
        cfg = apply_overrides(str(path), None, [])
        assert cfg.horizon_h == 0.5
        assert cfg.dt_s == 0.2
        assert cfg.demand.held_rates(0.0)[:2] == (150.0, 700.0)
        assert cfg.controller.k1 == 9.0
        assert cfg.controller.a == 2.5
        assert cfg.fd_hot.c == cfg.fd_gp.c == 1000.0

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[simulation]\nhorizonn_h = 1\n")
        with pytest.raises(ConfigError):
            apply_overrides(str(path), None, [])
        path.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(ConfigError):
            apply_overrides(str(path), None, [])

    def test_overrides(self):
        cfg = apply_overrides(None, "constant", ["simulation.horizon_h=1.5", "choice.model=logit"])
        assert cfg.horizon_h == 1.5
        assert cfg.choice == LogitChoice()

    def test_choice_override_keeps_the_preset_model(self):
        cfg = apply_overrides(None, "constant-logit", ["choice.logit_vot=40"])
        assert cfg.choice == LogitChoice(pi_star=40.0, alpha_star=1.0)
        cfg = apply_overrides(None, "constant", ["choice.vot_family=uniform", "choice.vot_high=80"])
        assert cfg.choice == UniformVot(0.0, 80.0)

    def test_partial_demand_keeps_the_other_rate(self):
        cfg = apply_overrides(None, "constant", ["demand.sov_veh_h=900"])
        assert cfg.demand == DemandProfile.constant(200.0, 900.0)

    def test_partial_demand_keeps_the_trapezoid(self):
        cfg = apply_overrides(None, "trapezoid", ["demand.sov_peak_veh_h=650"])
        assert cfg.demand == DemandProfile.trapezoid(200.0, 650.0, 0.0, 0.5, 4.5, 5.0)

    def test_a_switch_starts_its_section_afresh(self):
        # a kind the user sets drops the preset's demand keys; constant, the study base's
        # kind, keeps the base's rates where the stack sets none
        assert apply_overrides(None, "trapezoid", ["demand.kind=constant"]).demand == (
            DemandProfile.constant(200.0, 860.0))
        assert apply_overrides(None, "trapezoid", ["demand.kind=constant", "demand.sov_veh_h=700"]
                               ).demand == DemandProfile.constant(200.0, 700.0)
        # the preset's own kind is no switch: the user's keys merge into the preset's
        peak = ["demand.hov_peak_veh_h=210", "demand.kind=trapezoid", "demand.ramp_down_end_h=6"]
        assert apply_overrides(None, "trapezoid", peak).demand == (
            DemandProfile.trapezoid(210.0, 700.0, 0.0, 0.5, 4.5, 6.0))
        # another model or family starts from the class's defaults
        assert apply_overrides(None, "constant-logit", ["choice.model=ue"]).choice == ExponentialVot()
        assert apply_overrides(None, "constant-logit", ["choice.vot_family=uniform"]).choice == (
            UniformVot())
        assert apply_overrides(None, "constant-logit", ["choice.model=logit", "choice.logit_scale=2"]
                               ).choice == LogitChoice(pi_star=50.0, alpha_star=2.0)

    @pytest.mark.parametrize("preset_name, overrides, missing", [
        ("constant", ["demand.kind=trapezoid", "demand.ramp_up_start_h=0", "demand.ramp_up_end_h=1",
                      "demand.ramp_down_start_h=2", "demand.ramp_down_end_h=3"],
         "hov_peak_veh_h, sov_peak_veh_h"),
        ("constant", ["demand.kind=trapezoid", "demand.hov_peak_veh_h=1", "demand.sov_peak_veh_h=2"],
         "ramp_up_start_h, ramp_up_end_h, ramp_down_start_h, ramp_down_end_h"),
        ("trapezoid", ["demand.kind=piecewise", "demand.breakpoints_h=0,1"],
         "hov_rates_veh_h, sov_rates_veh_h"),
    ], ids=["trapezoid-peaks", "trapezoid-times", "piecewise-rates"])
    def test_a_kind_needs_every_key(self, preset_name, overrides, missing):
        kind = overrides[0].split("=")[1]
        with pytest.raises(ConfigError, match=rf"^\[demand\] kind '{kind}' needs {missing}$"):
            apply_overrides(None, preset_name, overrides)

    def test_demand_key_of_another_kind_rejected(self):
        with pytest.raises(ConfigError, match="does not apply to demand kind 'trapezoid'"):
            apply_overrides(None, "trapezoid", ["demand.sov_veh_h=900"])

    def test_override_changes_only_the_field_it_names(self):
        # A key of another demand kind or choice model runs on ``constant``
        # switched to that kind or model; the switch itself is in both configs.
        trapezoid = ["demand.kind=trapezoid", "demand.hov_peak_veh_h=200", "demand.sov_peak_veh_h=860",
                     "demand.ramp_up_start_h=0", "demand.ramp_up_end_h=1",
                     "demand.ramp_down_start_h=2", "demand.ramp_down_end_h=3"]
        piecewise = ["demand.kind=piecewise", "demand.breakpoints_h=0,1",
                     "demand.hov_rates_veh_h=200,200", "demand.sov_rates_veh_h=860,860"]
        logit, uniform = ["choice.model=logit"], ["choice.vot_family=uniform"]
        # key -> (new value, the fields it may change, the switch it needs)
        cases = {
            "demand.hov_veh_h": ("300", {"demand.hov_rates"}, []),
            "demand.sov_veh_h": ("900", {"demand.sov_rates"}, []),
            "demand.hov_peak_veh_h": ("300", {"demand.hov_rates"}, trapezoid),
            "demand.sov_peak_veh_h": ("900", {"demand.sov_rates"}, trapezoid),
            "demand.ramp_up_start_h": ("0.5", {"demand.breakpoints"}, trapezoid),
            "demand.ramp_up_end_h": ("1.5", {"demand.breakpoints"}, trapezoid),
            "demand.ramp_down_start_h": ("2.5", {"demand.breakpoints"}, trapezoid),
            "demand.ramp_down_end_h": ("4", {"demand.breakpoints"}, trapezoid),
            "demand.breakpoints_h": ("0,2", {"demand.breakpoints"}, piecewise),
            "demand.hov_rates_veh_h": ("100,300", {"demand.hov_rates"}, piecewise),
            "demand.sov_rates_veh_h": ("500,900", {"demand.sov_rates"}, piecewise),
            "geometry.corridor_km": ("2", {"corridor_length"}, []),
            "geometry.hot_lanes": ("2", {"hot_lanes"}, []),
            "geometry.gp_lanes": ("3", {"gp_lanes"}, []),
            "geometry.mean_trip_km": ("4", {"mean_trip_distance"}, []),
            "choice.expected_vot": ("40", {"choice.mean"}, []),
            "choice.logit_vot": ("40", {"choice.pi_star"}, logit),
            "choice.logit_scale": ("2", {"choice.alpha_star"}, logit),
            "choice.vot_low": ("10", {"choice.low"}, uniform),
            "choice.vot_high": ("90", {"choice.high"}, uniform),
            "simulation.dt_s": ("0.5", {"dt_s"}, []),
            "simulation.horizon_h": ("2", {"horizon_h"}, []),
            "simulation.output_dt_s": ("2", {"output_dt_s"}, []),
            "simulation.initial_hot_trips": ("10", {"initial_hot_trips"}, []),
            "simulation.initial_gp_trips": ("20", {"initial_gp_trips"}, []),
            "controller.k1": ("9", {"controller.k1"}, []),
            "controller.k2": ("6", {"controller.k2"}, []),
            "controller.k3": ("9", {"controller.k3"}, []),
            "controller.k4": ("7", {"controller.k4"}, []),
            "controller.a0": ("1.5", {"controller.a"}, []),
            "controller.b0": ("0.5", {"controller.b"}, []),
            "controller.toll_ceiling": ("20", {"controller.toll_ceiling"}, []),
            "controller.decimation": ("10", {"controller.decimation"}, []),
        }
        fd_cases = {"free_flow_kmh": ("120", "u_f"), "wave_kmh": ("25", "w"),
                    "jam_veh_km": ("150", "rho_j"), "flow_floor_veh_h": ("1000", "c")}
        for key, (value, field) in fd_cases.items():
            cases[f"fd.{key}"] = (value, {f"fd_hot.{field}", f"fd_gp.{field}"}, [])
            cases[f"fd.hot.{key}"] = (value, {f"fd_hot.{field}"}, [])
            cases[f"fd.gp.{key}"] = (value, {f"fd_gp.{field}"}, [])
        switches = {"scenario.preset", "demand.kind", "choice.model", "choice.vot_family",
                    "simulation.mode"}
        assert set(cases) == {f"{s}.{k}" for s, keys in _KNOWN_KEYS.items() for k in keys} - switches

        for key, (value, changed, switch) in cases.items():
            base = leaf_fields(apply_overrides(None, "constant", switch))
            got = leaf_fields(apply_overrides(None, "constant", [*switch, f"{key}={value}"]))
            assert {f for f in base if got[f] != base[f]} == changed, key

    def test_each_group_diagram_is_built_once_from_one_floor_key(self):
        # the floor has one key, flow_floor_veh_h; a fraction of capacity is not a key
        for section in ("fd", "fd.hot", "fd.gp"):
            with pytest.raises(ConfigError) as info:
                apply_overrides(None, "constant", [f"{section}.flow_floor_fraction=0.5"])
            assert str(info.value) == f"unknown key 'flow_floor_fraction' in section [{section}]"
        # at u_f = 20 the base floor exceeds capacity, but no group ends with that diagram
        cfg = apply_overrides(None, "constant", [
            "fd.free_flow_kmh=20", "fd.hot.flow_floor_veh_h=0", "fd.gp.flow_floor_veh_h=0"])
        assert cfg.fd_hot == cfg.fd_gp == FdParams(u_f=20.0, w=20.0, rho_j=140.0, c=0.0)

    def test_command_line_preset_beats_the_file(self, tmp_path):
        path = tmp_path / "preset.ini"
        path.write_text("[scenario]\npreset = constant\n")
        assert apply_overrides(str(path), None, []) == apply_overrides(None, "constant", [])
        assert apply_overrides(str(path), "trapezoid", []) == apply_overrides(None, "trapezoid", [])
        # --set still beats --preset
        cfg = apply_overrides(str(path), "trapezoid", ["scenario.preset=constant-logit"])
        assert cfg == apply_overrides(None, "constant-logit", [])

    def test_bad_override_shape(self):
        with pytest.raises(ConfigError):
            apply_overrides(None, "constant", ["horizon=2"])

    def test_per_group_fd_sections(self, tmp_path):
        path = tmp_path / "split.ini"
        path.write_text(
            "[scenario]\npreset = constant\n"
            "[fd.gp]\nflow_floor_veh_h = 466.5\n"
        )
        cfg = apply_overrides(str(path), None, [])
        assert cfg.fd_gp == replace(apply_overrides(None, "constant", []).fd_gp, c=466.5)
        assert cfg.fd_hot == apply_overrides(None, "constant", []).fd_hot


class TestRunner:
    def test_zero_demand_stays_empty(self):
        cfg = short(apply_overrides(None, "constant", []))
        cfg = replace(cfg, demand=DemandProfile.constant(0.0, 0.0))
        records = quiet_run(cfg)
        assert all(r.delta1 == 0.0 and r.delta2 == 0.0 for r in records)
        assert all(r.u == 0.0 for r in records)
        assert all(r.g1 == 0.0 and r.g2 == 0.0 for r in records)

    def test_record_internal_consistency(self):
        cfg = short(apply_overrides(None, "constant", []), horizon_h=0.05, dt_s=0.25)
        records = quiet_run(cfg)
        L1 = cfg.hot_lanes * cfg.corridor_length
        for r in records:
            assert r.rho1 == pytest.approx(r.delta1 / L1, rel=1e-12)
            assert r.E1 - r.G1 == pytest.approx(r.delta1 - cfg.initial_hot_trips, abs=1e-9)
            assert r.E2 - r.G2 == pytest.approx(r.delta2 - cfg.initial_gp_trips, abs=1e-9)
            assert 0.0 <= r.p <= 1.0
            assert r.e21_tilde == pytest.approx(r.p * r.e2_tilde)

    def test_emits_first_and_last_steps(self):
        cfg = short(apply_overrides(None, "constant", []), horizon_h=0.01, dt_s=0.5)
        records = quiet_run(cfg)
        assert records[0].t == 0.0
        n_steps = round(cfg.horizon_h * 3600 / cfg.dt_s)
        assert records[-1].t == pytest.approx((n_steps - 1) * cfg.dt_s / 3600.0)

    def test_output_decimation(self):
        cfg = replace(apply_overrides(None, "constant", []), horizon_h=0.01, dt_s=0.5, output_dt_s=2.0)
        records = quiet_run(cfg)
        gaps = [round((b.t - a.t) * 3600.0, 6) for a, b in zip(records, records[1:])]
        assert all(g == 2.0 for g in gaps[:-1])
        assert 0.0 < gaps[-1] <= 2.0  # final step is always emitted

    @pytest.mark.parametrize("output_dt_s", [36.5, 1e308])
    def test_interval_past_horizon_records_first_and_last(self, output_dt_s):
        cfg = replace(apply_overrides(None, "constant", []), horizon_h=0.01, dt_s=0.5,
                      output_dt_s=output_dt_s)
        records = quiet_run(cfg)
        assert [round(r.t * 3600.0, 6) for r in records] == [0.0, 35.5]
        assert records == quiet_run(replace(cfg, output_dt_s=36.0))

    def test_control_decimation_holds_toll(self):
        cfg = apply_overrides(None, "constant", [])
        cfg = short(cfg, horizon_h=0.01, dt_s=0.1, initial_gp_trips=46.67,
                    controller=replace(cfg.controller, decimation=10))
        records = quiet_run(cfg)
        for i in range(0, len(records) - 10, 10):
            window = records[i : i + 10]
            assert len({r.u for r in window}) == 1

    @pytest.mark.parametrize("decimation", [7, 10])
    def test_toll_clamped_flags_the_last_tick(self, decimation):
        # toll_clamped is 1 exactly when the toll the last controller tick computed was
        # negative before its clamp, and holds, as the toll does, until the next tick; the
        # flag flips on the ramp up and settles at 1 as the pulse ends at 5 h
        cfg = apply_overrides(None, "trapezoid", [])
        cfg = short(cfg, horizon_h=5.0, dt_s=0.5,
                    controller=replace(cfg.controller, decimation=decimation))
        ceiling = cfg.controller.toll_ceiling
        flagged = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for i, r in enumerate(iter_run(cfg)):
                if i % decimation == 0:  # a tick: record i holds the coefficients it uses
                    gap = max(r.omega, 0.0)
                    posted = ceiling if gap == math.inf else r.a * gap + r.b
                assert r.u == max(posted, 0.0), r
                assert r.toll_clamped == (1 if posted < 0.0 else 0), r
                flagged.append(r.toll_clamped)
        assert len(flagged) == 36000 and 0 < sum(flagged) < len(flagged)

    def test_hov_mode_forces_zero_share(self):
        cfg = short(apply_overrides(None, "trapezoid", []), horizon_h=0.05, dt_s=0.5)
        records = quiet_run(replace(cfg, mode="hov"))
        assert all(r.p == 0.0 and r.u == 0.0 and r.e21_tilde == 0.0 for r in records)

    def test_hov_and_hot_share_demand(self):
        cfg = short(apply_overrides(None, "trapezoid", []), horizon_h=0.05, dt_s=0.5)
        hov = quiet_run(replace(cfg, mode="hov"))
        hot = quiet_run(replace(cfg, mode="hot"))
        assert [r.e1_tilde for r in hov] == [r.e1_tilde for r in hot]
        assert [r.e2_tilde for r in hov] == [r.e2_tilde for r in hot]

    def test_hot_gridlock_aborts(self):
        fd = FdParams(u_f=100.0, w=20.0, rho_j=140.0, c=0.0)
        cfg = replace(
            apply_overrides(None, "constant", []),
            fd_hot=fd, fd_gp=fd,
            demand=DemandProfile.constant(2000.0, 0.0),
            horizon_h=2.0, dt_s=1.0, output_dt_s=1.0,
        )
        with pytest.raises(HotGridlockError):
            quiet_run(cfg)

    def test_stream_ends_where_the_consumer_stops(self):
        cfg = replace(apply_overrides(None, "triangular-gridlock", []), horizon_h=2.0, dt_s=0.5,
                      output_dt_s=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = until_gp_jam(cfg)
        assert records[-1].rho2 == pytest.approx(140.0, rel=1e-9)
        assert records[-1].t < 2.0
        assert all(r.rho2 < 140.0 * (1.0 - 1e-12) for r in records[:-1])

    def test_negative_gap_means_nobody_pays(self):
        # HOT preloaded over-critical, GP free: paying would slow you down
        cfg = short(apply_overrides(None, "constant", []), horizon_h=0.005, dt_s=0.5,
                    initial_hot_trips=60.0, initial_gp_trips=0.0)
        records = quiet_run(cfg)
        assert records[0].omega < 0.0
        assert records[0].p == 0.0

    def test_saturation_stats_filled(self):
        cfg = replace(apply_overrides(None, "triangular-gridlock", []), horizon_h=1.5, dt_s=0.5,
                      output_dt_s=5.0)
        stats = SaturationStats()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            until_gp_jam(cfg, stats)
        assert stats.gp_clamp_steps > 0
        assert stats.gp_dropped > 0.0

    def test_reused_stats_flag_only_this_runs_clamps(self):
        # a 300 s step drains a lane group past zero after the first row
        cfg = replace(apply_overrides(None, "constant", []), horizon_h=1.0, dt_s=300.0, output_dt_s=300.0,
                      initial_hot_trips=10.0, initial_gp_trips=10.0)
        stats = SaturationStats()
        first = quiet_run(cfg, stats=stats)
        assert stats.hot_clamp_steps + stats.gp_clamp_steps > 0
        assert (first[0].hot_clamped, first[0].gp_clamped) == (0, 0)
        assert quiet_run(cfg, stats=stats) == first

    def test_toll_tracks_a_short_peak(self):
        # two-hour plateau: no equilibrium, toll rises through the peak and
        # falls once demand recedes
        cfg = replace(
            apply_overrides(None, "trapezoid", []),
            demand=DemandProfile.trapezoid(200.0, 700.0, 0.0, 0.5, 2.5, 3.0),
            horizon_h=5.0, dt_s=1.0, output_dt_s=30.0,
        )
        records = quiet_run(cfg)
        peak = max(records, key=lambda r: r.u)
        assert 0.4 <= peak.t <= 3.2
        assert records[-1].u < 0.1 * peak.u
        mid = [r for r in records if 1.0 <= r.t <= 2.5]
        assert mid[-1].u > mid[0].u
        assert any(abs(r.lam) > 0.5 for r in records)  # never settles

    def test_dt_refinement_first_order(self):
        base = replace(apply_overrides(None, "constant", []), horizon_h=0.3, initial_gp_trips=46.67)
        terminal = {}
        for dt_s in (0.4, 0.2, 0.1):
            cfg = replace(base, dt_s=dt_s, output_dt_s=0.4)
            terminal[dt_s] = quiet_run(cfg)[-1].lam
        d1 = abs(terminal[0.4] - terminal[0.2])
        d2 = abs(terminal[0.2] - terminal[0.1])
        assert 1.4 < d1 / d2 < 2.8


def count_step_loop(config) -> dict:
    """``tools/counts.py``'s counts of one run of the step loop, with the collector paused.

    No finalizer of earlier garbage runs inside the count.
    """
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return counts_tool.count_loop(scenario._stream, config)
    finally:
        if gc_was_enabled:
            gc.enable()


# a piecewise profile over the counted 0.05 h: a ramp, a flat interior segment from
# 0.01 to 0.03 h, a ramp, and the end rates held for good from 0.04 h
FLAT_INTERIOR = DemandProfile((0.0, 0.01, 0.03, 0.04), (100.0, 200.0, 200.0, 150.0),
                              (600.0, 900.0, 900.0, 800.0))


class TestStepLoopCalls:
    @pytest.mark.parametrize("name, choice", [("constant", None), ("constant-logit", None),
                                              ("constant", UniformVot(10.0, 90.0))],
                             ids=["constant", "constant-logit", "constant-uniform"])
    def test_at_most_a_quarter_python_call_per_step(self, name, choice):
        """A run of each choice model on constant demand makes no call per step.

        Counted are the generator's resumptions and the loop's calls; the count
        does not depend on timing.  A loop that calls the share or the demand
        every step makes more than one call a step.
        """
        config = replace(apply_overrides(None, name, []), horizon_h=0.05)
        if choice is not None:
            config = replace(config, choice=choice)
        assert count_step_loop(config)["python_calls"] <= 0.25

    # (Python calls, C calls) of one run over counts_tool.HORIZON_H, 1,800 steps: the 182
    # resumptions of the generator (one per record and one at its end), the set-up's
    # helpers and the demand reads.  Bytecodes are not pinned: they depend on the
    # CPython version.
    PINNED_CALLS = {
        "constant": (187, 2529),
        "constant-logit": (187, 2530),
        "trapezoid": (1986, 809),  # every step of the counted span is on the ramp up
        "triangular-gridlock": (187, 2529),
        "flat-interior": (908, 2529),  # the flat segment's 720 steps read the demand once
    }

    @pytest.mark.parametrize("name", sorted(PINNED_CALLS))
    def test_pinned_calls_per_run(self, name):
        """A change that adds work to the step loop changes a pin here and says so."""
        if name == "flat-interior":
            config = replace(apply_overrides(None, "constant", []), demand=FLAT_INTERIOR)
        else:
            config = apply_overrides(None, name, [])
        got = count_step_loop(replace(config, horizon_h=counts_tool.HORIZON_H))
        steps = got["steps"]
        assert steps == 1800
        assert (round(got["python_calls"] * steps), round(got["c_calls"] * steps)) == self.PINNED_CALLS[name]


class TestMetrics:
    def test_zero_delay_when_curves_coincide(self):
        cfg = short(apply_overrides(None, "constant", []))
        cfg = replace(cfg, demand=DemandProfile.constant(0.0, 0.0))
        m = metrics(quiet_run(cfg), cfg.mean_trip_distance)
        assert m.total_delay == 0.0
        assert m.revenue == 0.0

    def test_equilibrium_segment_mean_travel_time(self):
        # stationary at critical density: mean time = D / u_f by Little's law
        rows = []
        delta = 10.0 * 70.0 / 3.0
        g_rate = delta / 5.0 * 100.0
        for k in range(11):
            t = k * 0.1
            rows.append(SimulationRecord(
                t=t, delta1=delta, delta2=0.0, rho1=70.0 / 3.0, rho2=0.0,
                v1=100.0, v2=100.0, omega=0.0, lam=0.0, xi=0.0, a=0.0, b=0.0,
                u=0.0, p=0.0, e1_tilde=g_rate, e2_tilde=0.0, e21_tilde=0.0,
                g1=g_rate, g2=0.0, E1=delta + g_rate * t, E2=0.0,
                G1=g_rate * t, G2=0.0, phase1="C", phase2="SUC",
                toll_clamped=0, hot_clamped=0, gp_clamped=0,
            ))
        m = metrics(rows, 5.0)
        assert m.hot.mean_travel_time == pytest.approx(5.0 / 100.0, rel=1e-9)

    def test_a_window_counts_only_its_own_trips(self):
        records = quiet_run(short(apply_overrides(None, "constant", []), horizon_h=0.05, dt_s=0.5))
        first, last = records[100], records[-1]
        m = metrics(records[100:], 5.0)
        assert m.hot.served == last.G1 - first.G1 > 0 and m.gp.served == last.G2 - first.G2 > 0
        assert m.hot.initiated == last.E1 - first.E1 and m.gp.initiated == last.E2 - first.E2

    def test_served_not_above_initiated(self):
        cfg = short(apply_overrides(None, "constant", []), horizon_h=0.05, dt_s=0.25)
        m = metrics(quiet_run(cfg), cfg.mean_trip_distance)
        assert m.hot.served <= m.hot.initiated + 1e-9
        assert m.gp.served <= m.gp.initiated + 1e-9

    def test_compare_returns_both_modes(self):
        cfg = short(apply_overrides(None, "trapezoid", []), horizon_h=0.1, dt_s=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = compare_hov_hot(cfg)
        assert isinstance(result.hov, Metrics) and isinstance(result.hot, Metrics)
        assert isinstance(result.hov.hot, LaneMetrics)

    @pytest.mark.parametrize("hov, hot, ratio", [
        (math.inf, math.inf, 1.0), (0.0, 0.0, 1.0), (-0.01, 0.0, 1.0), (0.0, -0.02, 1.0),
        (0.3, 0.3, 1.0), (0.3, 0.1, 3.0), (0.1, 0.0, math.inf), (math.inf, 0.5, math.inf),
        (0.0, 0.2, 0.0),
    ])
    def test_peak_gap_ratio(self, hov, hot, ratio):
        # equal peaks and two peaks that are not positive compare as 1, never as nan or inf
        lane = LaneMetrics(0.0, 0.0, 0.0, 0.0)
        result = ComparisonResult(hov=Metrics(lane, lane, hov, 0.0, 1),
                                  hot=Metrics(lane, lane, hot, 0.0, 1))
        assert result.peak_gap_ratio == pytest.approx(ratio)

    def test_compare_revenue_overflow_raises(self):
        # the GP lanes jam, the toll posts the ceiling 1e308 and u * e21 * D overflows the sum
        cfg = apply_overrides(None, "constant", JAM_AT_HUGE_CEILING)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert all(math.isfinite(r.u) for r in run(cfg))
            with pytest.raises(OverflowError, match="^revenue over 1801 records is not finite"):
                compare_hov_hot(cfg)

    def test_compare_warns_a1_once_at_the_caller(self):
        cfg = short(apply_overrides(None, "trapezoid", []), horizon_h=0.1, dt_s=1.0)
        with pytest.warns(UserWarning, match="demand assumption violated") as caught:
            compare_hov_hot(cfg)
        assert [str(w.message) for w in caught] == [
            f"demand assumption violated at peak: {msg}" for msg in cfg.a1_warnings()
        ]
        assert all(w.filename == __file__ for w in caught)

    def test_run_warns_a1_at_the_caller(self):
        cfg = short(apply_overrides(None, "trapezoid", []), horizon_h=0.01, dt_s=1.0)
        with pytest.warns(UserWarning, match="demand assumption violated") as caught:
            run(cfg)
        assert len(caught) == len(cfg.a1_warnings())
        assert all(w.filename == __file__ for w in caught)

    def test_iter_run_warns_a1_at_the_call_before_the_first_record(self):
        cfg = short(apply_overrides(None, "trapezoid", []), horizon_h=0.01, dt_s=1.0)
        with pytest.warns(UserWarning, match="demand assumption violated") as caught:
            records = iter_run(cfg)
        assert len(caught) == len(cfg.a1_warnings())
        assert all(w.filename == __file__ for w in caught)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert next(records).t == 0.0

    def test_needs_records(self):
        with pytest.raises(ValueError):
            metrics([], 5.0)
        with pytest.raises(ValueError):
            metrics(iter([]), 5.0)

    def test_fold_of_the_stream_equals_fold_of_the_list(self):
        cfg = short(apply_overrides(None, "constant", []), horizon_h=0.05, dt_s=0.5, initial_gp_trips=60.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = run(cfg)
            streamed = metrics(iter_run(cfg), cfg.mean_trip_distance)
        assert streamed == metrics(records, cfg.mean_trip_distance)
        assert streamed.records == len(records)
        assert streamed.revenue > 0.0 and streamed.total_delay > 0.0

    def test_streamed_metrics_hold_no_record_list(self):
        cfg = replace(apply_overrides(None, "constant", []), horizon_h=0.1, output_dt_s=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tracemalloc.start()
            try:
                records = run(cfg)
                _, list_peak = tracemalloc.get_traced_memory()
                del records
                tracemalloc.reset_peak()
                metrics(iter_run(cfg), cfg.mean_trip_distance)
                _, stream_peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert stream_peak < list_peak / 10


def csv_module_read(path):
    """The records the csv-module reader gives for ``path``, or its error message.

    This is the reader ``read_csv`` was before it split lines itself, held to
    the header, cell characters, phase labels and flags ``csv_rows`` writes;
    the parity tests hold the two to the same records and the same messages.
    """
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None) or [""]  # a line without cells is one empty cell
            for i, (got, want) in enumerate(itertools.zip_longest(header, CSV_COLUMNS), 1):
                if got != want:
                    raise ConfigError(
                        f"header column {i} is {got!r} where csv_rows writes {want!r}")
            labels, flags = {"SUC": "SUC", "C": "C", "SOC": "SOC"}, {"0": 0, "1": 1}
            kinds = [labels.__getitem__ if c in ("phase1", "phase2")
                     else flags.__getitem__ if c.endswith("_clamped") else float
                     for c in CSV_COLUMNS]
            for row in filter(None, reader):
                if len(row) != len(header):
                    raise ConfigError(f"{len(row)} cells under a {len(header)}-column header")
                if any(not cell.isascii() or any(ch in cell for ch in '"\0_ \t\v\f') for cell in row):
                    raise ConfigError("a quote, NUL, '_', blank or non-ASCII character in the row")
                out.append(SimulationRecord(*(k(cell) for k, cell in zip(kinds, row))))
        except (ValueError, csv.Error) as exc:
            return f"{path}, line {reader.line_num}: {exc}"
        except KeyError as exc:
            return f"{path}, line {reader.line_num}: cell {exc} is not SUC, C, SOC, 0 or 1"
    return out


def reprs(records):
    """Records as cell reprs, so nan equals nan and -0.0 differs from 0.0."""
    return [tuple(map(repr, r)) for r in records]


class TestCsv:
    def test_round_trip(self, tmp_path):
        cfg = short(apply_overrides(None, "constant", []), horizon_h=0.01, dt_s=0.5)
        records = quiet_run(cfg)
        path = tmp_path / "out.csv"
        list(csv_rows(records, str(path)))
        again = read_csv(str(path))
        assert len(again) == len(records)
        for a, b in zip(records, again):
            assert b.delta1 == pytest.approx(a.delta1, rel=1e-8)
            assert b.p == pytest.approx(a.p, rel=1e-8)
            assert b.phase1 == a.phase1

    def test_round_trip_keeps_each_label_and_flag_in_its_column(self, tmp_path):
        cells = [("SUC", "SOC", 1, 0, 1), ("C", "SUC", 0, 1, 0), ("SOC", "C", 0, 0, 1)]
        records = [SimulationRecord(*(0.25 * k,) * CSV_COLUMNS.index("phase1"), *row)
                   for k, row in enumerate(cells)]
        path = tmp_path / "cells.csv"
        list(csv_rows(records, str(path)))
        assert read_csv(str(path)) == records

    def test_deterministic_bytes(self, tmp_path):
        cfg = short(apply_overrides(None, "constant", []), horizon_h=0.01, dt_s=0.5)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        list(csv_rows(quiet_run(cfg), str(p1)))
        list(csv_rows(quiet_run(cfg), str(p2)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_names_every_field(self, tmp_path):
        cfg = short(apply_overrides(None, "constant", []), horizon_h=0.005, dt_s=0.5)
        path = tmp_path / "h.csv"
        list(csv_rows(quiet_run(cfg), str(path)))
        header = path.read_text().splitlines()[0].split(",")
        assert header == list(SimulationRecord._fields)

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,delta1\n0,0\n")
        with pytest.raises(ConfigError):
            read_csv(str(path))

    @staticmethod
    def written_lines(tmp_path):
        cfg = short(apply_overrides(None, "constant", []), horizon_h=0.005, dt_s=0.5)
        path = tmp_path / "run.csv"
        list(csv_rows(quiet_run(cfg), str(path)))
        return path, path.read_text().splitlines()

    def test_truncated_file_names_the_line(self, tmp_path):
        path, lines = self.written_lines(tmp_path)
        last = lines[-1]
        path.write_text("\n".join(lines[:-1] + [last[: len(last) // 2]]) + "\n")
        with pytest.raises(ConfigError, match=rf"line {len(lines)}: \d+ cells"):
            read_csv(str(path))

    def test_non_numeric_cell_names_the_line(self, tmp_path):
        path, lines = self.written_lines(tmp_path)
        cells = lines[2].split(",")
        cells[CSV_COLUMNS.index("omega")] = "abc"
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="line 3: .*'abc'"):
            read_csv(str(path))

    def test_trailing_blank_line_skipped(self, tmp_path):
        path, lines = self.written_lines(tmp_path)
        want = read_csv(str(path))
        path.write_text("\n".join(lines) + "\n\n")
        assert read_csv(str(path)) == want

    def test_records_are_tuples_in_column_order(self, tmp_path):
        path, _ = self.written_lines(tmp_path)
        record = read_csv(str(path))[0]
        assert record == tuple(getattr(record, c) for c in CSV_COLUMNS)
        assert record._replace(u=1.5).u == 1.5

    def test_iter_csv_streams_the_records_of_read_csv(self, tmp_path):
        path, _ = self.written_lines(tmp_path)
        records = iter_csv(str(path))
        assert next(records) == read_csv(str(path))[0]
        assert [next(records), *records] == read_csv(str(path))[1:]

    # read_csv against the csv module's reader on the files csv_rows writes
    EDGES = {"omega": math.inf, "lam": math.nan, "xi": -0.0, "a": 1e-300, "b": 1e300, "u": -1e300}

    @pytest.fixture
    def written(self, tmp_path):
        """(path, text) of a ``csv_rows`` file whose third row holds the edge cells."""
        records = quiet_run(short(apply_overrides(None, "constant", []), horizon_h=0.002, dt_s=0.5))
        records[2] = records[2]._replace(**self.EDGES)
        path = tmp_path / "edges.csv"
        list(csv_rows(records, str(path)))
        return path, path.read_bytes().decode("utf-8")

    def same_as_csv_module(self, path):
        want = csv_module_read(str(path))
        if isinstance(want, str):
            with pytest.raises(ConfigError) as caught:
                read_csv(str(path))
            assert str(caught.value) == want
            return want
        assert reprs(read_csv(str(path))) == reprs(want)
        return want

    def test_edge_cells_survive(self, written):
        path, _ = written
        got = read_csv(str(path))[2]
        assert reprs([got])[0] == reprs([got._replace(**self.EDGES)])[0]
        assert self.same_as_csv_module(path)

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("final", [True, False], ids=["final-newline", "no-final-newline"])
    def test_line_endings(self, written, ending, final):
        path, text = written
        lines = text.split("\r\n")[:-1]
        path.write_text(ending.join(lines) + (ending if final else ""), encoding="utf-8", newline="")
        assert len(self.same_as_csv_module(path)) == len(lines) - 1

    # the written column behind each cell (None: a "note" cell), and the first header column
    # that differs: (its number, its cell, the column csv_rows writes there)
    OTHER_LAYOUTS = {
        "reordered": ([*range(len(CSV_COLUMNS) - 1, 12, -1), *range(13)], (1, "gp_clamped", "t")),
        "extra-leading": ([None, *range(len(CSV_COLUMNS))], (1, "note", "t")),
        "missing": ([i for i, c in enumerate(CSV_COLUMNS) if c != "omega"], (8, "lam", "omega")),
        "extra-trailing": ([*range(len(CSV_COLUMNS)), None], (29, "note", None)),
    }

    @pytest.mark.parametrize("case", OTHER_LAYOUTS)
    def test_only_the_written_layout_is_read(self, written, case):
        path, text = written
        order, (number, cell, column) = self.OTHER_LAYOUTS[case]
        rows = [line.split(",") for line in text.split("\r\n")[:-1]]
        lines = [",".join("note" if i is None else row[i] for i in order) for row in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        message = (f"{path}, line 1: header column {number} is {cell!r} "
                   f"where csv_rows writes {column!r}")
        with pytest.raises(ConfigError) as caught:
            read_csv(str(path))
        assert str(caught.value) == message
        assert self.same_as_csv_module(path) == message

    @pytest.mark.parametrize("case", [
        "truncated", "bad-cell", "missing-column", "empty", "header-only", "blank-then-bad",
    ])
    def test_errors_and_line_numbers(self, written, case):
        path, text = written
        lines = text.split("\r\n")[:-1]
        want_line = {"truncated": len(lines), "bad-cell": 5, "missing-column": 1, "empty": 0,
                     "header-only": None, "blank-then-bad": 7}[case]
        # the header cases name the first column that differs from csv_rows's header
        want_header = {"missing-column": "header column 1 is 'delta1' where csv_rows writes 't'",
                       "empty": "header column 1 is '' where csv_rows writes 't'"}.get(case)
        if case == "truncated":
            lines[-1] = lines[-1][: len(lines[-1]) // 2]
        elif case == "bad-cell":
            cells = lines[4].split(",")
            cells[CSV_COLUMNS.index("u")] = "1.0.0"
            lines[4] = ",".join(cells)
        elif case == "missing-column":
            lines = [",".join(line.split(",")[1:]) for line in lines]
        elif case == "empty":
            lines = []
        elif case == "header-only":
            lines = lines[:1]
        else:
            cells = lines[6].split(",")
            cells[CSV_COLUMNS.index("gp_clamped")] = "yes"
            lines[5:7] = ["", ",".join(cells)]
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        got = self.same_as_csv_module(path)
        if want_line is None:
            assert got == []
        else:
            assert got.startswith(f"{path}, line {want_line}: ")
        if want_header:
            assert got == f"{path}, line {want_line}: {want_header}"

    FOREIGN = "a quote, NUL, '_', blank or non-ASCII character in the row"

    @pytest.mark.parametrize("row, column, cell, message", [
        (3, "phase1", '"free"', FOREIGN), (3, "phase1", "fr\0ee", FOREIGN),
        (0, "phase1", '"phase1"', "header column 24 is '\"phase1\"' where csv_rows writes 'phase1'"),
        (3, "gp_clamped", "1_0", FOREIGN), (3, "u", " 1_5 ", FOREIGN), (3, "u", "\u0661\u0665", FOREIGN),
        (3, "phase1", "XYZ", "cell 'XYZ' is not SUC, C, SOC, 0 or 1"),
        (3, "toll_clamped", "+1", "cell '+1' is not SUC, C, SOC, 0 or 1"),
    ], ids=["quoted", "nul", "quoted-header", "underscore-flag", "blank-toll", "non-ascii-toll",
            "unknown-label", "signed-flag"])
    def test_quoted_cell_and_nul_name_the_line(self, written, row, column, cell, message):
        # float() and int() would read ' 1_5 ', '1_0', Arabic-Indic digits and '+1'
        path, text = written
        lines = text.split("\r\n")[:-1]
        cells = lines[row].split(",")
        cells[CSV_COLUMNS.index(column)] = cell
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"edges\.csv, line {row + 1}: {re.escape(message)}"):
            read_csv(str(path))
        if '"' not in cell:  # to the csv module a quote is syntax, not a cell character
            assert self.same_as_csv_module(path).endswith(message)


class TestCli:
    def test_run_and_estimate_ue(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main([
            "run", "--preset", "constant",
            "--set", "simulation.horizon_h=0.02",
            "--set", "simulation.dt_s=0.5",
            "--set", "simulation.initial_gp_trips=46.67",
            "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        code = main(["estimate", "--records", str(out), "--model", "ue", "--bins", "5"])
        assert code == 0
        assert "cdf_estimate" in capsys.readouterr().out

    @pytest.mark.parametrize("model", ["ue", "logit"])
    def test_estimate_holds_no_record_list(self, model, tmp_path, capsys):
        path = tmp_path / "every-step.csv"  # output_dt_s is the preset's dt_s
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["run", "--preset", "constant", "--set", "simulation.horizon_h=0.05",
                         "--set", "simulation.output_dt_s=0.1", "--out", str(path)]) == 0
        tracemalloc.start()
        try:
            records = read_csv(str(path))
            _, list_peak = tracemalloc.get_traced_memory()
            del records
            tracemalloc.reset_peak()
            assert main(["estimate", "--records", str(path), "--model", model]) == 0
            _, estimate_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert estimate_peak < list_peak / 10

    def test_the_one_parser_keeps_no_state_between_calls(self):
        first = cli._PARSER.parse_args(["run", "--preset", "constant", "--set", "a.b=1", "--out", "x"])
        again = cli._PARSER.parse_args(["run", "--preset", "constant", "--out", "x"])
        assert first.overrides == ["a.b=1"] and again.overrides == []

    def test_estimate_infeasible_exit_code(self, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        main([
            "run", "--preset", "constant",
            "--set", "demand.kind=constant",
            "--set", "demand.hov_veh_h=0",
            "--set", "demand.sov_veh_h=0",
            "--set", "simulation.horizon_h=0.005",
            "--set", "simulation.dt_s=0.5",
            "--out", str(out),
        ])
        assert main(["estimate", "--records", str(out), "--model", "logit"]) == 3

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "missing.ini"), "--out", "x.csv"]) == 1
        assert main(["run", "--set", "a.b=1", "--out", "x.csv"]) == 1

    @pytest.mark.parametrize("content", [
        b"horizon_h = 1\n", b"[simulation]\ndt_s = 1\ndt_s = 2\n",
        b"[simulation]\nhorizon_h = %(x)s\n", b"[simulation]\ndt_s = \xff\n",
    ], ids=["no-section", "repeated-key", "interpolation", "not-utf-8"])
    def test_config_file_that_does_not_parse_exits_1(self, content, tmp_path, capsys):
        path, out = tmp_path / "bad.ini", tmp_path / "run.csv"
        path.write_bytes(content)
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "override",
        [
            "demand.sov_veh_h=nan", "geometry.hot_lanes=0.5", "simulation.dt_s=nan",
            "controller.k1=-1", "controller.k1=abc", "controller.k1=nan",
            "fd.free_flow_kmh=nan", "fd.free_flow_kmh=abc", "fd.gp.flow_floor_veh_h=abc",
            "choice.expected_vot=nan", "choice.vot_low=nan",
            "choice.vot_high=inf", "choice.logit_vot=inf", "choice.logit_scale=nan",
            "simulation.dt_s=%", "simulation.dt_s=%(x)s", "DEFAULT.x=1",
        ],
    )
    def test_invalid_value_exits_1_without_output(self, override, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main(["run", "--preset", "constant", "--set", override, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert not out.exists()
        dotted, value = override.split("=")
        section, key = dotted.rsplit(".", 1)
        if value == "abc":  # a value that does not parse is named with its section and key
            assert f"[{section}] {key} = 'abc'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--model", "ue", "--bins", "0"],
            ["--model", "logit", "--alpha-star", "0"],
            ["--model", "logit", "--alpha-star", "nan"],
        ],
        ids=["bins-0", "alpha-star-0", "alpha-star-nan"],
    )
    def test_invalid_estimate_argument_exits_1(self, argv, tmp_path, capsys):
        out = tmp_path / "run.csv"
        args = ["--set", "simulation.horizon_h=0.02", "--set", "simulation.dt_s=0.5",
                "--set", "simulation.initial_gp_trips=60"]
        assert main(["run", "--preset", "constant-logit", *args, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["estimate", "--records", str(out), *argv]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize(
        "argv",
        [["--at-time", "nan"], ["--set", "choice.expected_vot=nan"], ["--at-time", "-1"]],
        ids=["at-time-nan", "expected-vot-nan", "at-time-negative-gap"],
    )
    def test_invalid_analyze_input_exits_1(self, argv, capsys):
        assert main(["analyze", "--preset", "constant", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert "nan" not in captured.out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--preset", "constant"], "the following arguments are required: --out"),
            (["run", "--preset", "constant", "--out", "x.csv", "--bogus"],
             "unrecognized arguments: --bogus"),
            (["estimate", "--records", "x.csv", "--model", "nope"], "argument --model: invalid"),
            (["analyze", "--preset", "constant", "--at-time", "abc"],
             "argument --at-time: invalid float value: 'abc'"),
            (["analyze", "--preset", "constant", "--phase-offset", "1"],
             "unrecognized arguments: --phase-offset 1"),
            (["estimate", "--records", "x.csv", "--model", "ue", "--bins", "2.5"],
             "argument --bins: invalid int value: '2.5'"),
            (["nope"], "argument command: invalid choice: 'nope'"),
            ([], "the following arguments are required: command"),
        ],
        ids=["missing-out", "unknown-option", "unknown-model", "at-time-text", "phase-offset",
             "bins-float", "unknown-command", "no-command"],
    )
    def test_usage_error_is_a_config_error(self, argv, message, capsys):
        # exit 2 means a runtime abort; a bad command line is a config error with its usage
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}")
        assert "\nusage: hotlanes" in err

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["estimate", "-h"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: hotlanes")

    def test_estimate_of_truncated_records_exits_1(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        args = ["--set", "simulation.horizon_h=0.005", "--set", "simulation.dt_s=0.5"]
        assert main(["run", "--preset", "constant", *args, "--out", str(out)]) == 0
        out.write_text(out.read_text()[:-40])
        capsys.readouterr()
        assert main(["estimate", "--records", str(out), "--model", "ue"]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize(
        "preset_name, overrides",
        [
            ("constant", ["choice.model=probit"]),
            ("constant", ["choice.vot_family=gamma"]),
            ("constant", ["choice.expected_vot=-1"]),
            ("constant-logit", ["choice.logit_scale=-1"]),
            ("constant", ["choice.vot_family=uniform", "choice.vot_low=90", "choice.vot_high=10"]),
            ("constant", ["choice.logit_vot=40"]),
            ("constant-logit", ["choice.expected_vot=40"]),
            ("trapezoid", ["demand.sov_veh_h=900"]),
        ],
        ids=["unknown-model", "unknown-family", "negative-mean", "negative-scale",
             "uniform-low-above-high", "logit-key-under-ue", "ue-key-under-logit",
             "constant-key-on-trapezoid"],
    )
    def test_choice_or_demand_key_outside_the_model_exits_1(
            self, preset_name, overrides, tmp_path, capsys):
        out = tmp_path / "run.csv"
        argv = ["run", "--preset", preset_name, "--set", "simulation.horizon_h=0.01"]
        for item in overrides:
            argv += ["--set", item]
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_estimate_of_out_of_range_record_exits_1(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        args = ["--set", "simulation.horizon_h=0.01", "--out", str(out)]
        assert main(["run", "--preset", "constant", *args]) == 0
        lines = out.read_text().split("\n")
        cells = lines[3].split(",")  # the third record
        e2 = float(cells[CSV_COLUMNS.index("e2_tilde")])
        cells[CSV_COLUMNS.index("e21_tilde")] = repr(2.0 * e2)
        lines[3] = ",".join(cells)
        out.write_text("\n".join(lines))
        capsys.readouterr()
        assert main(["estimate", "--records", str(out), "--model", "ue"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {out}, row 3 ")
        assert "paying-SOV rate" in err

    def test_gridlock_exit_code(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main([
            "run", "--preset", "triangular-gridlock",
            "--set", "demand.hov_veh_h=2000",
            "--set", "demand.sov_veh_h=0",
            "--set", "simulation.dt_s=1.0",
            "--set", "simulation.horizon_h=2.0",
            "--out", str(out),
        ])
        assert code == 2
        # no SOV demand breaks A1, and the CLI prints each warning as a line before the abort
        *warned, abort = capsys.readouterr().err.splitlines()
        assert all(line.startswith("warning: demand assumption violated") for line in warned)
        assert abort.startswith("runtime abort: managed lanes gridlocked")
        # the CSV holds every record streamed before the abort, one per second
        records = read_csv(str(out))
        assert [round(r.t * 3600.0) for r in records] == list(range(len(records)))
        assert len(records) > 1
        assert records[-1].rho1 < 140.0

    # 187.9 * 2.85 / 2.85 rounds one ulp below 187.9, so a HOT count clamped at that cap ran
    # on at v1 = 3e-15 km/h and exited 0, while 188.0 aborted; a count past the cap is the gridlock
    @pytest.mark.parametrize("jam", ["187.9", "188.0"])
    def test_hot_count_past_its_jam_cap_aborts(self, jam, tmp_path, capsys):
        sets = [f"fd.hot.jam_veh_km={jam}", "geometry.corridor_km=2.85",
                "demand.hov_veh_h=50000", "simulation.horizon_h=0.5"]
        with pytest.raises(HotGridlockError):
            quiet_run(apply_overrides(None, "triangular-gridlock", sets))
        argv = ["run", "--preset", "triangular-gridlock", "--out", str(tmp_path / "run.csv")]
        assert main([*argv, *(arg for s in sets for arg in ("--set", s))]) == 2
        abort = capsys.readouterr().err.splitlines()[-1]
        assert abort.startswith("runtime abort: managed lanes gridlocked"), abort

    def test_analyze_reports_equilibrium(self, capsys):
        assert main(["analyze", "--preset", "constant"]) == 0
        out = capsys.readouterr().out
        assert "p0 = 0.310078" in out
        # both sides of the kink at the equilibrium, with the effective gains at the
        # gap omega(2 h) = 0.250714 h/km; only the flow slope g1' differs between them
        assert ("under-critical (lam=0, p=p0): H=0.1875, J=-3.75, K1=39.9088, K2=28.9316, "
                "eigenvalues [-1.23+0j, -173.1+0j] -> stable\n") in out
        assert ("over-critical (lam=0, p=p0): H=0.1875, J=0.75, K1=39.9088, K2=28.9316, "
                "eigenvalues [-1.43+0j, -148.9+0j] -> stable\n") in out

    def test_analyze_reads_a_flat_knot_list_as_constant_demand(self, capsys):
        assert main(["analyze", "--preset", "constant"]) == 0
        constant = capsys.readouterr().out
        flat = ["--set", "demand.kind=piecewise", "--set", "demand.breakpoints_h=0,1",
                "--set", "demand.hov_rates_veh_h=200,200", "--set", "demand.sov_rates_veh_h=860,860"]
        assert main(["analyze", "--preset", "constant", *flat]) == 0
        assert capsys.readouterr().out == constant
        assert "p0 = 0.310078" in constant and "gap line omega(t)" in constant

    @pytest.mark.parametrize("k2, right_real", [
        (1.0, "-2.15"), (0.6, "-0.4899"), (0.4, "0.34"), (0.2, "1.17"), (0.1, "1.585"),
    ])
    def test_analyze_kink_sides_disagree_at_low_gains(self, k2, right_real, capsys):
        # k1 = k3 = 8 and k4 = k2 / 2 at the gap omega(7.5 h): the over-critical side is a
        # spiral whose real part turns positive below k2 = 0.6, while the under-critical
        # side stays stable (ROADMAP item 3: -2.15, -0.49, +0.34, +1.17, +1.59 per h)
        argv = ["analyze", "--preset", "constant", "--at-time", "7.5",
                "--set", f"controller.k2={k2}", "--set", f"controller.k4={k2 / 2}"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        under, over = lines[-2], lines[-1]
        assert over.startswith("over-critical (lam=0, p=p0)")
        assert f"eigenvalues [{right_real}+" in over
        assert over.endswith("-> stable" if right_real.startswith("-") else "-> unstable")
        assert under.startswith("under-critical (lam=0, p=p0)")
        real_parts = [complex(z).real for z in under.split("[")[1].split("]")[0].split(", ")]
        assert max(real_parts) < 0.0 and under.endswith("-> stable")

    def test_analyze_checks_each_group_against_its_own_diagram(self, capsys):
        # GP capacity 60 * 35 = 2100 veh/h/lane, so e2*D = 2150 overloads the GP lanes;
        # the managed lanes keep 2333.33, and the joint capacity is 4433.33
        argv = ["analyze", "--preset", "constant", "--set", "fd.gp.free_flow_kmh=60",
                "--set", "demand.sov_veh_h=430"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "SOV demand does not overload" not in out
        assert "warning: total demand below joint capacity: 3150 <= 4433.33\n" in out

    def test_analyze_states_a_failed_a1_check_once(self, capsys):
        # each failed inequality is a warning line; the verdict names them without repeating
        assert main(["analyze", "--preset", "constant", "--set", "demand.sov_veh_h=100"]) == 0
        assert capsys.readouterr().out == (
            "critical density: 23.3333 veh/km/lane, capacity: 2333.33 veh/h/lane\n"
            "warning: SOV demand does not overload the GP lanes: e2*D = 500 <= 2333.33\n"
            "warning: total demand below joint capacity: 1500 <= 4666.67\n"
            "no equilibrium: the overload (A1) conditions above fail\n")

    @pytest.mark.parametrize("overrides", [
        ["choice.expected_vot=1e308"], ["controller.k2=1e308"], ["demand.sov_veh_h=1e308"],
        ["controller.k1=1e308"], ["fd.flow_floor_veh_h=1e-310"],
    ], ids=["expected-vot", "k2", "sov-demand", "k1", "subnormal-floor"])
    def test_analyze_past_the_float_range_is_a_config_error(self, overrides, capsys):
        # each overflows H, J, the trace, the determinant or the gap line
        argv = ["analyze", "--preset", "constant"]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: no valid linearization at the equilibrium:")
        assert "nan" not in captured.out and "inf" not in captured.out

    def test_analyze_verdict_does_not_read_a_root_that_rounds_to_zero(self, capsys):
        # H ~ 2.2e298: the left side's trace is -20 and its determinant ~1.8e-297 > 0,
        # so both roots are negative; the right side's trace is +4
        argv = ["analyze", "--preset", "constant", "--set", "choice.model=logit",
                "--set", "choice.logit_scale=1e-300"]
        assert main(argv) == 0
        under, over = capsys.readouterr().out.splitlines()[-2:]
        assert under.endswith("eigenvalues [-9.204e-299+0j, -20+0j] -> stable")
        assert over.endswith("eigenvalues [4+0j, 4.602e-298+0j] -> unstable")

    @pytest.mark.parametrize("preset_name, overrides, dropped", [
        # an Euler overshoot takes the GP count below 0; the floor makes the jam cap infinite
        ("constant", ["simulation.dt_s=300", "simulation.output_dt_s=300",
                      "simulation.initial_hot_trips=10", "simulation.initial_gp_trips=10"], 0.0),
        # no floor: the GP count reaches the jam cap rho_j * L2 = 140
        ("triangular-gridlock", ["simulation.horizon_h=0.35"], 0.004459805088771418),
    ], ids=["zero", "jam-cap"])
    def test_run_names_both_clamp_bounds(self, preset_name, overrides, dropped, tmp_path, capsys):
        argv = ["run", "--preset", preset_name, "--out", str(tmp_path / "run.csv")]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "trip count clamped at 0 or the jam cap: managed 0 steps, gp 1 steps; "
            "dropped at the jam cap: gp 0.0 veh")
        stats = SaturationStats()
        quiet_run(apply_overrides(None, preset_name, overrides), stats=stats)
        assert stats == SaturationStats(gp_clamp_steps=1, gp_dropped=dropped)

    @pytest.mark.parametrize("model", ["ue", "logit"])
    def test_analyze_without_a_flow_floor_has_no_gap_line(self, model, capsys):
        outs = []
        for at_time in ("2", "0.5"):
            argv = ["analyze", "--preset", "triangular-gridlock", "--at-time", at_time,
                    "--set", f"choice.model={model}"]
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "no gap line to linearize on" in outs[0]
        assert "eigenvalues" not in outs[0]

    def test_compare_smoke(self, capsys):
        code = main([
            "compare", "--preset", "trapezoid",
            "--set", "simulation.horizon_h=0.05",
            "--set", "simulation.dt_s=1.0",
        ])
        assert code == 0
        assert "peak gap ratio" in capsys.readouterr().out

    @pytest.mark.parametrize("overrides", [
        ["fd.gp.flow_floor_veh_h=0", "simulation.horizon_h=0.5"],  # both runs jam: inf / inf
        ["simulation.horizon_h=0.01"],  # neither run has a positive gap: 0 / 0
    ], ids=["both-jam", "no-gap"])
    def test_compare_equal_peaks_print_ratio_one(self, overrides, capsys):
        argv = ["compare", "--preset", "constant"]
        for item in overrides:
            argv += ["--set", item]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(argv) == 0
        assert capsys.readouterr().out.endswith(" peak gap ratio (HOV/HOT) 1\n")

    @pytest.mark.parametrize("overrides, line", [
        (JAM_AT_HUGE_CEILING, "revenue over 1801 records is not finite (inf)"),
        (DRAIN_FROM_HUGE_COUNTS, "total delay over 3001 records is not finite (-inf)"),
    ], ids=["revenue", "total-delay"])
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_summary_overflow_is_a_runtime_abort(self, command, overrides, line, tmp_path, capsys):
        argv = [command, "--preset", "constant"]
        for item in overrides:
            argv += ["--set", item]
        if command == "run":
            argv += ["--out", str(tmp_path / "run.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(argv) == 2
        out, err = capsys.readouterr()
        assert not re.search(r"\b(?:nan|inf)\b", out), out
        assert err == f"runtime abort: {line}\n"
