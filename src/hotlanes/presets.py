"""Built-in scenario presets and the INI config loader.

The study base sets a triangular diagram with u_f = 100 km/h, w = 20 km/h,
jam density 140 veh/km/lane and a flow floor at 80% of capacity on the
ScenarioConfig defaults: integral gains (8, 5, 8, 6), an exponential VOT with
mean $50/h, and a unit-length corridor with one lane per group.

The demand magnitudes are reconstructed, not published: 200 HOV and 860 SOV
veh/h overload the corridor, leave the managed lanes under-used without
pricing, and put the equilibrium paying share near 0.31.  The unit corridor
keeps the gain magnitudes matched to the state magnitudes; demand scales
with corridor length if you change the geometry.  Each preset is a list of
``section.key=value`` overrides, the ``--set`` syntax, applied to the base.
"""

import configparser
from dataclasses import replace

from .lane_choice import ExponentialVot, LogitChoice, UniformVot
from .nfd import FdParams, capacity
from .scenario import ConfigError, DemandProfile, ScenarioConfig

__all__ = ["PRESETS", "preset", "apply_overrides", "section_help"]


def _vi_fd() -> FdParams:
    base = FdParams(u_f=100.0, w=20.0, rho_j=140.0, c=0.0)
    return replace(base, c=0.8 * capacity(base))


# The study base: constant overload demand on the flow-floor diagram; the rest is default.
_BASE = ScenarioConfig(
    fd_hot=_vi_fd(), fd_gp=_vi_fd(),
    demand=DemandProfile.constant(200.0, 860.0),
)

# Each preset is the base with its ``section.key=value`` overrides applied.
PRESETS = {
    "constant": (),
    "constant-logit": ("choice.model=logit", "choice.logit_vot=50", "choice.logit_scale=1"),
    # A peak-period pulse for the HOV-vs-HOT comparison.  The peak keeps total
    # demand just below joint capacity so pricing can actually protect the GP
    # lanes; without pricing they hypercongest for the whole peak.
    "trapezoid": ("demand.kind=trapezoid", "demand.hov_peak_veh_h=200",
                  "demand.sov_peak_veh_h=700", "demand.ramp_up_start_h=0",
                  "demand.ramp_up_end_h=0.5", "demand.ramp_down_start_h=4.5",
                  "demand.ramp_down_end_h=5", "simulation.horizon_h=9"),
    # No flow floor: constant overload gridlocks the GP lanes in finite time.
    "triangular-gridlock": ("fd.flow_floor_veh_h=0", "simulation.horizon_h=2"),
}


def preset(name: str) -> ScenarioConfig:
    """The study base with the named preset's overrides applied."""
    return _build(_stack(name, configparser.ConfigParser()))


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in raw.split(","))


# The config schema: per table, INI key -> (field it sets, type its value converts to).
# The fixed sections take one table each; [fd], [fd.hot] and [fd.gp] share one.
_FD = {"free_flow_kmh": ("u_f", float), "wave_kmh": ("w", float), "jam_veh_km": ("rho_j", float),
       "flow_floor_veh_h": ("c", float)}
_FIXED = {
    "scenario": {"preset": ("preset", str)},
    "fd": _FD, "fd.hot": _FD, "fd.gp": _FD,
    "geometry": {"corridor_km": ("corridor_length", float), "hot_lanes": ("hot_lanes", float),
                 "gp_lanes": ("gp_lanes", float), "mean_trip_km": ("mean_trip_distance", float)},
    "simulation": {"dt_s": ("dt_s", float), "horizon_h": ("horizon_h", float),
                   "output_dt_s": ("output_dt_s", float), "mode": ("mode", str),
                   "initial_hot_trips": ("initial_hot_trips", float),
                   "initial_gp_trips": ("initial_gp_trips", float)},
    "controller": {"k1": ("k1", float), "k2": ("k2", float), "k3": ("k3", float),
                   "k4": ("k4", float), "a0": ("a", float), "b0": ("b", float),
                   "toll_ceiling": ("toll_ceiling", float),
                   "decimation": ("decimation", int)},
}
# A variant section takes the table its switch keys pick, and those keys: [demand] one
# per ``kind``; [choice] one per ``model``, and under ``model = ue`` one per ``vot_family``.
_SWITCHES = {"demand": ("kind",), "choice": ("model", "vot_family")}
_DEMAND = {
    "constant": {"hov_veh_h": ("hov_rate", float), "sov_veh_h": ("sov_rate", float)},
    "trapezoid": {"hov_peak_veh_h": ("hov_peak", float), "sov_peak_veh_h": ("sov_peak", float),
                  "ramp_up_start_h": ("t0", float), "ramp_up_end_h": ("t1", float),
                  "ramp_down_start_h": ("t2", float), "ramp_down_end_h": ("t3", float)},
    "piecewise": {"breakpoints_h": ("breakpoints", _float_list),
                  "hov_rates_veh_h": ("hov_rates", _float_list),
                  "sov_rates_veh_h": ("sov_rates", _float_list)},
}
_BUILD_DEMAND = {"constant": DemandProfile.constant, "trapezoid": DemandProfile.trapezoid,
                 "piecewise": DemandProfile}
_CHOICE = {  # values of the first n switch keys -> (class, what its table applies to, table)
    ("logit",): (LogitChoice, "the logit model",
                 {"logit_vot": ("pi_star", float), "logit_scale": ("alpha_star", float)}),
    ("ue", "exponential"): (ExponentialVot, "UE choice, exponential VOT",
                            {"expected_vot": ("mean", float)}),
    ("ue", "uniform"): (UniformVot, "UE choice, uniform VOT",
                        {"vot_low": ("low", float), "vot_high": ("high", float)}),
}
_KNOWN_KEYS = {
    **{section: set(table) for section, table in _FIXED.items()},
    "demand": set(_SWITCHES["demand"]).union(*_DEMAND.values()),
    "choice": set(_SWITCHES["choice"]).union(*(table for *_, table in _CHOICE.values())),
}


def _read(cp: configparser.ConfigParser, section: str, table: dict | None = None,
          switches: tuple[str, ...] = (), what: str = "") -> dict[str, object]:
    """{field: value} of the section's keys, converted by their types in ``table``.

    ``table`` defaults to the fixed section's, and a missing section reads as
    empty.  Every key outside ``table`` and ``switches`` is rejected.
    """
    if not cp.has_section(section):
        return {}
    keys, table = cp[section], _FIXED[section] if table is None else table
    foreign = [key for key in keys if key not in table and key not in switches]
    unknown = [key for key in foreign if key not in _KNOWN_KEYS[section]]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in section [{section}]")
    if foreign:
        raise ConfigError(f"[{section}] {', '.join(sorted(foreign))} does not apply to {what}")
    values = {}
    for key, (field, typ) in table.items():
        if key in keys:
            raw = keys[key]
            try:
                values[field] = typ(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None
    return values


def _parse_demand(cp: configparser.ConfigParser) -> DemandProfile:
    """The profile of the stack's ``kind``, from its keys; only constant has defaults, the base's rates."""
    kind = cp.get("demand", "kind", fallback="constant")
    if kind not in _DEMAND:
        raise ConfigError(f"unknown demand kind {kind!r}")
    values = _read(cp, "demand", _DEMAND[kind], _SWITCHES["demand"], f"demand kind {kind!r}")
    if kind == "constant":  # defaults: the study base's one knot
        values = dict(zip(("hov_rate", "sov_rate"), _BASE.demand.peak_rates()), **values)
    if missing := [key for key, (field, _) in _DEMAND[kind].items() if field not in values]:
        raise ConfigError(f"[demand] kind {kind!r} needs {', '.join(missing)}")
    return _BUILD_DEMAND[kind](**values)


def _parse_choice(cp: configparser.ConfigParser):
    """The stack's choice model, from its keys over the base's value or, for another class, its defaults."""
    base = _BASE.choice
    model = cp.get("choice", "model", fallback="logit" if isinstance(base, LogitChoice) else "ue")
    family = cp.get("choice", "vot_family",
                    fallback="uniform" if isinstance(base, UniformVot) else "exponential")
    variant = (model, family) if model == "ue" else (model,)
    if variant not in _CHOICE:
        raise ConfigError(f"unknown VOT family {family!r}" if model == "ue"
                          else f"unknown choice model {model!r}")
    cls, what, table = _CHOICE[variant]
    start = base if isinstance(base, cls) else cls()
    return replace(start, **_read(cp, "choice", table, _SWITCHES["choice"][:len(variant)], what))


def _build(cp: configparser.ConfigParser) -> ScenarioConfig:
    """The study base with the stack's keys applied; [fd.hot] or [fd.gp] beats [fd] for its group."""
    updates = {}
    shared = _read(cp, "fd")
    for group, attr in (("fd.hot", "fd_hot"), ("fd.gp", "fd_gp")):
        if values := {**shared, **_read(cp, group)}:
            updates[attr] = replace(getattr(_BASE, attr), **values)
    if cp.has_section("demand"):
        updates["demand"] = _parse_demand(cp)
    if cp.has_section("choice"):
        updates["choice"] = _parse_choice(cp)
    updates.update(_read(cp, "geometry"), **_read(cp, "simulation"))
    if controller := _read(cp, "controller"):
        updates["controller"] = replace(_BASE.controller, **controller)
    return replace(_BASE, **updates)


def _stack(name: str, user: configparser.ConfigParser) -> configparser.ConfigParser:
    """The named preset's keys with the user's set on top.

    A switch key (``kind``, ``model`` or ``vot_family``) that the user sets to
    another value than the preset's own drops the preset's keys of its section.
    """
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    cp = _parser(None, PRESETS[name])
    for section in user.sections():
        if any(user.get(section, key) != cp.get(section, key, fallback=None)
               for key in _SWITCHES.get(section, ()) if user.has_option(section, key)):
            cp.remove_section(section)
        cp.read_dict({section: dict(user.items(section, raw=True))})
    return cp


def apply_overrides(path: str | None, preset_name: str | None, overrides: list[str]) -> ScenarioConfig:
    """Resolve a config from an optional file, preset name and key=value overrides.

    Overrides use ``section.key=value`` with the same keys as the INI format.
    The preset name is the override ``scenario.preset=NAME``.  The config is
    built once over the study base from one stack of keys: the preset's list,
    then the file, then the overrides in order.  A ``kind``, ``model`` or
    ``vot_family`` set to a value the preset's list does not give it drops the
    preset's keys of its section.  A file or value that does not parse, a bad
    value and an unknown key raise :class:`ConfigError`.
    """
    if preset_name:
        overrides = [f"scenario.preset={preset_name}", *overrides]
    # Every constructor rejects a bad value with ValueError (ConfigError is
    # one), and so does the parser a bad section name, a bad '%' and a file
    # not in the locale's encoding; a file that is not INI and a missing
    # interpolation key raise configparser.Error.
    try:
        user = _parser(path, overrides)
        return _build(_stack(_read(user, "scenario").get("preset", "constant"), user))
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(str(exc)) from None


def _parser(path: str | None, overrides) -> configparser.ConfigParser:
    """The INI file at ``path``, if any, with the ``section.key=value`` overrides set on top.

    A key in [DEFAULT], which the parser would copy into every section, and an
    unknown section are rejected.
    """
    cp = configparser.ConfigParser()
    if path is not None and not cp.read(path):
        raise ConfigError(f"cannot read config file {path!r}")
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        dotted, value = item.split("=", 1)
        section, key = dotted.rsplit(".", 1)
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key.strip(), value.strip())
    if cp.defaults():
        raise ConfigError(f"section [DEFAULT] takes no keys, got {sorted(cp.defaults())}")
    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
    return cp


def section_help() -> str:
    lines = ["Config sections and keys:"]
    for section in sorted(_KNOWN_KEYS):
        lines.append(f"  [{section}]: {', '.join(sorted(_KNOWN_KEYS[section]))}")
    return "\n".join(lines)
