"""Built-in scenario presets and the INI config loader.

The presets pin the numerical study defaults: a triangular diagram with
u_f = 100 km/h, w = 20 km/h, jam density 140 veh/km/lane and a flow floor at
80% of capacity, integral gains (8, 5, 8, 6), an exponential VOT with mean
$50/h, and a unit-length corridor with one lane per group.

The demand magnitudes are reconstructed, not published: 200 HOV and 860 SOV
veh/h overload the corridor, leave the managed lanes under-used without
pricing, and put the equilibrium paying share near 0.31.  The unit corridor
keeps the gain magnitudes matched to the state magnitudes; demand scales
with corridor length if you change the geometry.
"""

import configparser
from dataclasses import replace

from .controller import ControllerState
from .lane_choice import ExponentialVot, LogitChoice, UeChoice, UniformVot
from .nfd import FdParams, capacity
from .scenario import ConfigError, DemandProfile, ScenarioConfig

__all__ = ["PRESETS", "preset", "load_config", "apply_overrides", "section_help"]


def _vi_fd(floor_fraction: float = 0.8) -> FdParams:
    base = FdParams(u_f=100.0, w=20.0, rho_j=140.0, c=0.0)
    return replace(base, c=floor_fraction * capacity(base))


def constant_demand() -> ScenarioConfig:
    """Constant overload demand on the flow-floor diagram, UE choice."""
    return ScenarioConfig(
        fd_hot=_vi_fd(),
        fd_gp=_vi_fd(),
        demand=DemandProfile(kind="constant", hov_rate=200.0, sov_rate=860.0),
        corridor_length=1.0,
        mean_trip_distance=5.0,
        choice=UeChoice(ExponentialVot(mean=50.0)),
        controller=ControllerState(k1=8.0, k2=5.0, k3=8.0, k4=6.0),
        dt_s=0.1,
        horizon_h=5.0,
    )


def constant_demand_logit() -> ScenarioConfig:
    """Constant demand with the fixed-VOT logit choice model."""
    return replace(constant_demand(), choice=LogitChoice(pi_star=50.0, alpha_star=1.0))


def trapezoid_peak() -> ScenarioConfig:
    """A peak-period demand pulse sized for the HOV-vs-HOT comparison.

    The peak keeps total demand just below joint capacity so pricing can
    actually protect the GP lanes; without pricing they hypercongest for the
    whole peak.
    """
    return replace(
        constant_demand(),
        demand=DemandProfile(
            kind="trapezoid",
            hov_rate=200.0,
            sov_rate=700.0,
            t0=0.0,
            t1=0.5,
            t2=4.5,
            t3=5.0,
        ),
        horizon_h=9.0,
    )


def triangular_gridlock() -> ScenarioConfig:
    """Constant overload demand with no flow floor; gridlocks in finite time."""
    fd = FdParams(u_f=100.0, w=20.0, rho_j=140.0, c=0.0)
    return replace(constant_demand(), fd_hot=fd, fd_gp=fd, horizon_h=2.0)


PRESETS = {
    "constant": constant_demand,
    "constant-logit": constant_demand_logit,
    "trapezoid": trapezoid_peak,
    "triangular-gridlock": triangular_gridlock,
}


def preset(name: str) -> ScenarioConfig:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None


_FD_FIELDS = {"free_flow_kmh": "u_f", "wave_kmh": "w", "jam_veh_km": "rho_j"}
_FD_KEYS = (*_FD_FIELDS, "flow_floor_fraction", "flow_floor_veh_h")

_SCALARS = {
    # (section, key) -> (config attr, type)
    ("geometry", "corridor_km"): ("corridor_length", float),
    ("geometry", "hot_lanes"): ("hot_lanes", float),
    ("geometry", "gp_lanes"): ("gp_lanes", float),
    ("geometry", "mean_trip_km"): ("mean_trip_distance", float),
    ("simulation", "dt_s"): ("dt_s", float),
    ("simulation", "horizon_h"): ("horizon_h", float),
    ("simulation", "output_dt_s"): ("output_dt_s", float),
    ("simulation", "mode"): ("mode", str),
    ("simulation", "initial_hot_trips"): ("initial_hot_trips", float),
    ("simulation", "initial_gp_trips"): ("initial_gp_trips", float),
    ("controller", "decimation"): ("control_decimation", int),
}

_CONTROLLER_KEYS = {
    "k1": "k1", "k2": "k2", "k3": "k3", "k4": "k4",
    "a0": "a", "b0": "b", "toll_ceiling": "toll_ceiling",
}


def _parse_fd(cp: configparser.ConfigParser, section: str, base: FdParams) -> FdParams:
    fd = replace(base, c=0.0, **_updates(cp, section, _FD_FIELDS, "a diagram", _FD_KEYS))
    if cp.has_option(section, "flow_floor_veh_h"):
        return replace(fd, c=_convert(cp, section, "flow_floor_veh_h", float))
    if cp.has_option(section, "flow_floor_fraction"):
        return replace(fd, c=_convert(cp, section, "flow_floor_fraction", float) * capacity(fd))
    return replace(fd, c=base.c)


# Per demand kind and per choice class: INI key -> field it sets.
_DEMAND_FIELDS = {
    "constant": {"hov_veh_h": "hov_rate", "sov_veh_h": "sov_rate"},
    "trapezoid": {"hov_peak_veh_h": "hov_rate", "sov_peak_veh_h": "sov_rate",
                  "ramp_up_start_h": "t0", "ramp_up_end_h": "t1",
                  "ramp_down_start_h": "t2", "ramp_down_end_h": "t3"},
    "piecewise": {"breakpoints_h": "breakpoints", "hov_rates_veh_h": "hov_rates",
                  "sov_rates_veh_h": "sov_rates"},
}

_CHOICE_FIELDS = {
    LogitChoice: {"logit_vot": "pi_star", "logit_scale": "alpha_star"},
    ExponentialVot: {"expected_vot": "mean"},
    UniformVot: {"vot_low": "low", "vot_high": "high"},
}

_VOT_FAMILIES = {"exponential": ExponentialVot, "uniform": UniformVot}


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in raw.split(","))


def _updates(cp: configparser.ConfigParser, section: str, fields: dict[str, str], what: str,
             extra: tuple[str, ...], typ=float) -> dict[str, object]:
    """{field: value} of the section's keys; a key outside ``fields`` and ``extra`` is an error."""
    foreign = sorted(set(cp[section]) - set(fields) - set(extra))
    if foreign:
        raise ConfigError(f"[{section}] {', '.join(foreign)} does not apply to {what}")
    return {attr: _convert(cp, section, key, typ)
            for key, attr in fields.items() if cp.has_option(section, key)}


def _parse_demand(cp: configparser.ConfigParser, base: DemandProfile) -> DemandProfile:
    """The preset's profile with ``kind`` and that kind's ``[demand]`` keys applied."""
    kind = cp.get("demand", "kind", fallback=base.kind)
    if kind not in _DEMAND_FIELDS:
        raise ConfigError(f"unknown demand kind {kind!r}")
    typ = _float_list if kind == "piecewise" else float
    return replace(base, kind=kind, **_updates(
        cp, "demand", _DEMAND_FIELDS[kind], f"demand kind {kind!r}", ("kind",), typ))


def _parse_choice(cp: configparser.ConfigParser, base):
    """The preset's choice model with the ``[choice]`` keys of the resulting model applied.

    A switch of model or VOT family starts from the new class's defaults.
    """
    model = cp.get("choice", "model", fallback="logit" if isinstance(base, LogitChoice) else "ue")
    current = base.dist if isinstance(base, UeChoice) else base
    if model == "logit":
        cls, what, extra = LogitChoice, "the logit model", ("model",)
    elif model == "ue":
        family = cp.get("choice", "vot_family",
                        fallback="uniform" if isinstance(current, UniformVot) else "exponential")
        if family not in _VOT_FAMILIES:
            raise ConfigError(f"unknown VOT family {family!r}")
        cls, what = _VOT_FAMILIES[family], f"UE choice, {family} VOT"
        extra = ("model", "vot_family")
    else:
        raise ConfigError(f"unknown choice model {model!r}")
    start = current if isinstance(current, cls) else cls()
    chosen = replace(start, **_updates(cp, "choice", _CHOICE_FIELDS[cls], what, extra))
    return chosen if model == "logit" else UeChoice(chosen)


def _convert(cp: configparser.ConfigParser, section: str, key: str, typ):
    raw = cp.get(section, key)
    try:
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None


def _build_from_parser(cp: configparser.ConfigParser) -> ScenarioConfig:
    config = preset(cp.get("scenario", "preset", fallback="constant"))
    updates: dict[str, object] = {}
    if cp.has_section("fd"):
        updates["fd_hot"] = updates["fd_gp"] = _parse_fd(cp, "fd", config.fd_hot)
    for group, attr in (("fd.hot", "fd_hot"), ("fd.gp", "fd_gp")):
        if cp.has_section(group):
            updates[attr] = _parse_fd(cp, group, updates.get(attr, getattr(config, attr)))
    if cp.has_section("demand"):
        updates["demand"] = _parse_demand(cp, config.demand)
    if cp.has_section("choice"):
        updates["choice"] = _parse_choice(cp, config.choice)
    for (section, key), (attr, typ) in _SCALARS.items():
        if cp.has_option(section, key):
            updates[attr] = _convert(cp, section, key, typ)
    ctrl_kwargs = {
        attr: _convert(cp, "controller", key, float)
        for key, attr in _CONTROLLER_KEYS.items()
        if cp.has_option("controller", key)
    }
    if ctrl_kwargs:
        updates["controller"] = replace(config.controller, **ctrl_kwargs)
    return replace(config, **updates)


def load_config(path: str) -> ScenarioConfig:
    """Load a scenario from an INI file; unknown keys are rejected."""
    return apply_overrides(path, None, [])


def apply_overrides(config_or_none, preset_name: str | None, overrides: list[str]) -> ScenarioConfig:
    """Resolve a config from an optional file, preset name and key=value overrides.

    Overrides use ``section.key=value`` with the same keys as the INI format.
    A file or value that does not parse, a bad value and an unknown key raise
    :class:`ConfigError`.
    """
    cp = configparser.ConfigParser()
    # Every constructor rejects a bad value with ValueError (ConfigError is
    # one), and so does the parser a bad section name, a bad '%' and a file
    # not in the locale's encoding; a file that is not INI and a missing
    # interpolation key raise configparser.Error.
    try:
        if preset_name:
            cp["scenario"] = {"preset": preset_name}
        if config_or_none is not None:
            read = cp.read(config_or_none)
            if not read:
                raise ConfigError(f"cannot read config file {config_or_none!r}")
        for item in overrides:
            if "=" not in item or "." not in item.split("=", 1)[0]:
                raise ConfigError(f"override {item!r} is not of the form section.key=value")
            dotted, value = item.split("=", 1)
            section, key = dotted.rsplit(".", 1)
            if not cp.has_section(section):
                cp.add_section(section)
            cp.set(section, key.strip(), value.strip())
        _reject_unknown(cp)
        return _build_from_parser(cp)
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(str(exc)) from None


_KNOWN_SECTIONS = {"scenario", "fd", "fd.hot", "fd.gp", "demand", "geometry", "choice", "simulation", "controller"}

_KNOWN_KEYS = {
    "scenario": {"preset"},
    "fd": set(_FD_KEYS),
    "fd.hot": set(_FD_KEYS),
    "fd.gp": set(_FD_KEYS),
    "demand": {"kind"}.union(*_DEMAND_FIELDS.values()),
    "geometry": {k for (s, k) in _SCALARS if s == "geometry"},
    "choice": {"model", "vot_family"}.union(*_CHOICE_FIELDS.values()),
    "simulation": {k for (s, k) in _SCALARS if s == "simulation"},
    "controller": set(_CONTROLLER_KEYS) | {"decimation"},
}


def _reject_unknown(cp: configparser.ConfigParser) -> None:
    if cp.defaults():
        raise ConfigError(f"section [DEFAULT] takes no keys, got {sorted(cp.defaults())}")
    for section in cp.sections():
        if section not in _KNOWN_SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")


def section_help() -> str:
    lines = ["Config sections and keys:"]
    for section in sorted(_KNOWN_SECTIONS):
        lines.append(f"  [{section}]: {', '.join(sorted(_KNOWN_KEYS[section]))}")
    return "\n".join(lines)
