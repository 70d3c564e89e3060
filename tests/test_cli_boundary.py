"""The CLI at the config boundary: every key at every edge value exits cleanly."""

import contextlib
import io
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

import hotlanes
from hotlanes.cli import main
from hotlanes.presets import _KNOWN_KEYS, PRESETS, apply_overrides
from hotlanes.scenario import CSV_COLUMNS, read_csv

EDGE_VALUES = ("nan", "inf", "-1", "0", "1e300", "1e308", "", "abc")
# a record cell also meets the far ends of the floats: overflowing ratios and subnormal gaps
CELL_VALUES = EDGE_VALUES + ("-inf", "-1e308", "1.7e308", "5e-324", "1e-320")
KEYS = sorted(f"{section}.{key}" for section, keys in _KNOWN_KEYS.items() for key in keys)
FLOAT_COLUMNS = CSV_COLUMNS[: CSV_COLUMNS.index("phase1")]
NAN = re.compile(r"\bnan\b", re.IGNORECASE)
# a float, or a part of a complex number, that is not finite: nan, inf, nanj, infj
NON_FINITE = re.compile(r"\b(?:nan|inf)j?\b", re.IGNORECASE)
# run and compare print no NaN, inf only as the gap of a jammed GP lane group, and no
# number of more than 20 digits
SUMMARY_MISPRINTS = re.compile(r"\bnan\b|(?<!max gap )\binf\b|\d(?:\.?\d){20}", re.IGNORECASE)
# the --set overrides of the edge-value test: each key at each edge value, a jam whose
# toll ceiling near the float limit leaves every record finite but overflows the revenue,
# and a HOT speed at a subnormal flow floor, too small for a finite reciprocal
EDGE_CASES = [*([f"{key}={value}"] for key in KEYS for value in EDGE_VALUES),
              ["fd.gp.flow_floor_veh_h=0", "controller.toll_ceiling=1e308",
               "simulation.horizon_h=0.5"],
              ["fd.hot.flow_floor_veh_h=1e-320", "simulation.initial_hot_trips=140"]]


def non_finite_cells(path):
    """The float columns that hold a NaN or inf in the record CSV at ``path``.

    The gap may be +inf, which it is while the GP lanes are jammed.
    """
    return sorted({c for r in read_csv(str(path)) for c in FLOAT_COLUMNS
                   if not (math.isfinite(getattr(r, c)) or (c == "omega" and r.omega == math.inf))})


def call(argv, capsys, forbidden=None):
    """(exit code or None, failure text or None) of one in-process call.

    Stdout that matches the ``forbidden`` pattern is a failure too.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # A1 warnings are expected here
            code = main(argv)
    except (Exception, SystemExit) as exc:
        capsys.readouterr()
        return None, f"raised {exc!r}"
    out, err = capsys.readouterr()
    if code not in (0, 1, 2, 3):
        return code, f"exit {code}"
    if code == 1 and not err.startswith("config error:"):
        return code, f"exit 1 without a config error line: {err!r}"
    if forbidden and forbidden.search(out):
        return code, f"printed {forbidden.search(out).group()!r}: {out!r}"
    return code, None


def call_estimate(records, model, capsys):
    """``call`` of ``estimate`` on ``records``, where a NaN printed and a runtime abort also fail."""
    code, failure = call(["estimate", "--records", str(records), "--model", model], capsys, NAN)
    return code, failure or (f"exit {code}" if code == 2 else None)


@pytest.mark.parametrize("command", ["run", "analyze", "compare"])
def test_every_key_at_every_edge_value_exits_cleanly(command, tmp_path, capsys):
    out = tmp_path / "run.csv"
    failures = []
    for overrides in EDGE_CASES:
        # Every edge value runs at most 0.01 h; it comes last, so it is the one
        # in effect for simulation.horizon_h too, where the step ceiling rejects 1e300.
        argv = [command, "--preset", "constant", "--set", "simulation.horizon_h=0.01"]
        for item in overrides:
            argv += ["--set", item]
        if command == "run":
            argv += ["--out", str(out)]
        # analyze prints only finite numbers, or exits 1
        code, failure = call(argv, capsys,
                             NON_FINITE if command == "analyze" else SUMMARY_MISPRINTS)
        case = " ".join(map(repr, overrides))
        if failure:
            failures.append(f"{case}: {failure}")
        if code == 1 and out.exists():
            failures.append(f"{case}: exit 1 left a CSV")
        if command == "run" and code == 0 and non_finite_cells(out):
            failures.append(f"{case}: exit 0 wrote non-finite {non_finite_cells(out)}")
        out.unlink(missing_ok=True)
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("model", ["ue", "logit"])
def test_estimate_options_at_every_edge_value_exit_cleanly(model, tmp_path, capsys):
    failures = []
    # each model reads records of both presets; a UE run's paying rates reach
    # subnormal values near 0.043 h, where a logit vote overflows
    for base in ("constant", "constant-logit"):
        records = tmp_path / f"{base}.csv"
        assert main(["run", "--preset", base, "--set", "simulation.horizon_h=0.05",
                     "--set", "simulation.output_dt_s=0.1", "--out", str(records)]) == 0
        for option in ("--bins", "--alpha-star"):
            for value in EDGE_VALUES:
                argv = ["estimate", "--records", str(records), "--model", model, f"{option}={value}"]
                _, failure = call(argv, capsys)
                if failure:
                    failures.append(f"{base} {option}={value!r}: {failure}")
        _, failure = call(["estimate", "--records", str(records), "--model", model], capsys)
        if failure:
            failures.append(f"{base} defaults: {failure}")
        # one cell edited in the first of 20 estimable rows; a toll no run writes is a
        # config error
        lines = records.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        row = next(i for i, r in enumerate(read_csv(str(records)), 1)
                   if r.omega > 0.0 and 0.0 < r.e21_tilde < r.e2_tilde)
        edited = tmp_path / "edited.csv"
        # the two rates are also edited together, where inf / inf would print a NaN CDF cell
        for columns in ("u", "omega", "e2_tilde", "e21_tilde", "e2_tilde e21_tilde"):
            for value in CELL_VALUES:
                cells = lines[row].split(",")
                for column in columns.split():
                    cells[header.index(column)] = value
                rows = [lines[0], ",".join(cells), *lines[row + 1:row + 20]]
                edited.write_text("\n".join(rows) + "\n", encoding="utf-8")
                code, failure = call_estimate(edited, model, capsys)
                if not failure and columns == "u" and value in ("nan", "inf", "-1", "-inf", "-1e308"):
                    failure = None if code == 1 else f"exit {code} on a toll of {value}"
                if failure:
                    failures.append(f"{base} row {row} {columns}={value!r}: {failure}")
        # every row with a finite toll near the float ceiling: finite votes, so a finite mean
        cells = [line.split(",") for line in lines[1:]]
        for c in cells:
            c[header.index("u")], c[header.index("omega")] = "1e308", "1"
        edited.write_text("\n".join([lines[0], *map(",".join, cells)]) + "\n", encoding="utf-8")
        code, failure = call_estimate(edited, model, capsys)
        if failure or code != 0:
            failures.append(f"{base} every u=1e308, omega=1: {failure or f'exit {code}'}")
    assert not failures, "\n".join(failures)


def test_analyze_options_at_every_edge_value_exit_cleanly(capsys):
    failures = []
    for value in EDGE_VALUES:
        _, failure = call(["analyze", "--preset", "constant", f"--at-time={value}"], capsys,
                          NON_FINITE)
        if failure:
            failures.append(f"--at-time={value!r}: {failure}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("command, overrides", [
    ("run", []), ("compare", []), ("run", ["simulation.mode=hov"]),
], ids=["run", "compare", "run-hov-mode"])
def test_state_overflow_at_full_horizon_is_a_runtime_abort(command, overrides, tmp_path, capsys):
    # In HOV mode the toll coefficients stay put and only the HOT-lane trips
    # grow, by dt * 1e308 a step, until they overflow near 1.8 h.
    out = tmp_path / "run.csv"
    argv = [command, "--preset", "constant", "--set", "demand.hov_veh_h=1e308"]
    for item in overrides:
        argv += ["--set", item]
    if command == "run":
        argv += ["--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # A1 warnings are expected here
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime abort:") and " at t=" in err
    if command == "run":  # the rows before the abort stay, and they are finite
        assert read_csv(str(out))
        assert not non_finite_cells(out)


# case -> (command line, the start of a line its stdout holds)
SUMMARY_LINES = {
    # 10 + 10 initial trips and no demand: a coarse step clamped at 0 serves only those
    "zero clamp": (["run", "--preset", "constant", "--set", "demand.hov_veh_h=0",
                    "--set", "demand.sov_veh_h=0", "--set", "simulation.initial_hot_trips=10",
                    "--set", "simulation.initial_gp_trips=10", "--set", "simulation.dt_s=360",
                    "--set", "simulation.output_dt_s=360", "--set", "simulation.horizon_h=1"],
                   "served: managed 10.0 veh, gp 10.0 veh;"),
    # a finite delay sum of about 300 digits in fixed point
    "huge sum": (["compare", "--preset", "constant", "--set", "simulation.horizon_h=0.01",
                  "--set", "demand.hov_veh_h=1e300"],
                 "HOT (priced): total delay 4.97226e+295 veh h, managed served 3.7 veh, "
                 "gp served 0.8 veh, max gap 0 h/km, revenue $0.00"),
}


@pytest.mark.parametrize("argv, line", SUMMARY_LINES.values(), ids=SUMMARY_LINES)
def test_summary_lines(argv, line, tmp_path, capsys):
    out = tmp_path / "run.csv"
    if argv[0] == "run":
        argv = [*argv, "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # A1 warnings are expected here
        assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert any(shown.startswith(line) for shown in stdout.splitlines()), stdout
    assert not SUMMARY_MISPRINTS.search(stdout), stdout
    if argv[0] == "run":  # no trip was initiated
        assert all(r.E1 == 0.0 and r.E2 == 0.0 for r in read_csv(str(out)))


def hotlanes_process(argv, tmp_path, warning_filter):
    """(exit code, stdout, stderr) of ``python -m hotlanes`` under a warning filter."""
    env = {**os.environ, "PYTHONWARNINGS": warning_filter,
           "PYTHONPATH": str(Path(hotlanes.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "hotlanes", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def a1_argv(command):
    """A short ``run`` or ``compare`` of the trapezoid preset, whose peak breaks A1."""
    out = ["--out", "run.csv"] if command == "run" else []
    return [command, "--preset", "trapezoid", "--set", "simulation.horizon_h=0.01", *out]


@pytest.mark.parametrize("warning_filter", ["default", "ignore"])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_a1_warning_is_one_plain_line(command, warning_filter, tmp_path):
    code, _, err = hotlanes_process(a1_argv(command), tmp_path, warning_filter)
    assert code == 0
    shown = [] if warning_filter == "ignore" else apply_overrides(None, "trapezoid", []).a1_warnings()
    assert err.splitlines() == [f"warning: demand assumption violated at peak: {msg}" for msg in shown]


@pytest.mark.parametrize("command", ["run", "compare"])
def test_a1_warning_made_an_error_is_a_config_error(command, tmp_path):
    code, out, err = hotlanes_process(a1_argv(command), tmp_path, "error")
    assert code == 1 and out == ""
    assert err == f"config error: demand assumption violated at peak: " \
                  f"{apply_overrides(None, 'trapezoid', []).a1_warnings()[0]}\n"
    assert not (tmp_path / "run.csv").exists()


def test_closed_stdout_exits_141_silently(tmp_path):
    # the reader closes the pipe before the child starts, so every write to stdout fails
    env = {**os.environ, "PYTHONPATH": str(Path(hotlanes.__file__).parents[1])}
    argv = ["run", "--preset", "constant", "--set", "simulation.horizon_h=0.01", "--out", "x.csv"]
    child = subprocess.Popen([sys.executable, "-m", "hotlanes", *argv], cwd=tmp_path, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 141 and err == b""
    assert len(read_csv(str(tmp_path / "x.csv"))) == 37  # the record every 1 s of 36 s, and the last


@pytest.mark.parametrize("command", ["run", "estimate"])
def test_directory_path_is_a_config_error(command, tmp_path, capsys):
    # run cannot write its CSV to a directory, and estimate cannot read one
    if command == "run":
        argv = ["run", "--preset", "constant", "--set", "simulation.horizon_h=0.01",
                "--out", str(tmp_path)]
    else:
        argv = ["estimate", "--records", str(tmp_path), "--model", "ue"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # A1 warnings are expected here
        assert main(argv) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not list(tmp_path.iterdir())


NOT_A_FLOAT = "could not convert string to float"
# case -> (--preset, config file text or None, --set overrides, the whole stderr line)
CONFIG_ERRORS = {
    "unknown section": ("constant", None, ["bogus.x=1"], "unknown config section [bogus]"),
    "unknown key, fixed section": ("constant", None, ["simulation.horizonn_h=1"],
                                   "unknown key 'horizonn_h' in section [simulation]"),
    "unknown key, variant section": ("constant", None, ["demand.bogus=1"],
                                     "unknown key 'bogus' in section [demand]"),
    "key of another demand kind": ("trapezoid", None, ["demand.sov_veh_h=900"],
                                   "[demand] sov_veh_h does not apply to demand kind 'trapezoid'"),
    "keys of another demand kind": ("trapezoid", None, ["demand.sov_veh_h=1", "demand.hov_veh_h=1"],
                                    "[demand] hov_veh_h, sov_veh_h does not apply to demand kind "
                                    "'trapezoid'"),
    "key of another choice model": ("constant", None, ["choice.logit_vot=40"],
                                    "[choice] logit_vot does not apply to UE choice, "
                                    "exponential VOT"),
    "key of the UE model under logit": ("constant-logit", None, ["choice.expected_vot=40"],
                                        "[choice] expected_vot does not apply to the logit model"),
    "vot_family under logit": ("constant", None,
                               ["choice.model=logit", "choice.vot_family=uniform"],
                               "[choice] vot_family does not apply to the logit model"),
    "bad fd value": ("constant", None, ["fd.wave_kmh=fast"],
                     f"[fd] wave_kmh = 'fast': {NOT_A_FLOAT}: 'fast'"),
    "bad demand value": ("constant", None, ["demand.hov_veh_h=x"],
                         f"[demand] hov_veh_h = 'x': {NOT_A_FLOAT}: 'x'"),
    "bad demand list": ("constant", None, ["demand.kind=piecewise", "demand.breakpoints_h=0,a"],
                        f"[demand] breakpoints_h = '0,a': {NOT_A_FLOAT}: 'a'"),
    "bad controller value": ("constant", None, ["controller.k1=x"],
                             f"[controller] k1 = 'x': {NOT_A_FLOAT}: 'x'"),
    "bad decimation": ("constant", None, ["controller.decimation=1.5"],
                       "[controller] decimation = '1.5': invalid literal for int() with base 10: "
                       "'1.5'"),
    "bad simulation value": ("constant", None, ["simulation.dt_s=x"],
                             f"[simulation] dt_s = 'x': {NOT_A_FLOAT}: 'x'"),
    "[DEFAULT] key in a file": ("constant", "[DEFAULT]\nx = 1\n", [],
                                "section [DEFAULT] takes no keys, got ['x']"),
    "[DEFAULT] key in an override": ("constant", None, ["DEFAULT.x=1"],
                                     "Invalid section name: 'DEFAULT'"),
    "unknown preset": ("constant", None, ["scenario.preset=nope"],
                       "unknown preset 'nope'; available: constant, constant-logit, trapezoid, "
                       "triangular-gridlock"),
    "unknown --preset": ("nope", None, [],
                         "unknown preset 'nope'; available: constant, constant-logit, trapezoid, "
                         "triangular-gridlock"),
    "unknown demand kind": ("constant", None, ["demand.kind=sine"], "unknown demand kind 'sine'"),
    "unknown choice model": ("constant", None, ["choice.model=probit"],
                             "unknown choice model 'probit'"),
    "unknown VOT family": ("constant", None, ["choice.vot_family=normal"],
                           "unknown VOT family 'normal'"),
}


@pytest.mark.parametrize("preset, ini, overrides, line", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS)
def test_config_error_texts(preset, ini, overrides, line, tmp_path, capsys):
    argv = ["analyze", "--preset", preset]
    if ini is not None:
        path = tmp_path / "case.ini"
        path.write_text(ini, encoding="utf-8")
        argv += ["--config", str(path)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"config error: {line}\n"


def test_keys_in_the_default_section_are_a_config_error(tmp_path, capsys):
    # the parser copies [DEFAULT] keys into every section, so none is applied as written
    path, out = tmp_path / "default.ini", tmp_path / "run.csv"
    path.write_text("[DEFAULT]\nhorizon_h = 0.01\nbogus = 1\n", encoding="utf-8")
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: section [DEFAULT] takes no keys")
    assert not out.exists()


def test_readme_config_example_runs(tmp_path, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"### Config format\n.*?```ini\n(.*?)```", readme, re.S).group(1)
    path, out = tmp_path / "readme.ini", tmp_path / "run.csv"
    path.write_text(example, encoding="utf-8")
    assert main(["run", "--config", str(path), "--set", "simulation.horizon_h=0.01",
                 "--out", str(out)]) == 0, capsys.readouterr().err
    assert read_csv(str(out))


def test_readme_config_format_names_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = re.search(r"### Config format\n(.*?)\n#", readme, re.S).group(1)
    missing = [f"[{name}] {key}" for name, keys in sorted(_KNOWN_KEYS.items()) for key in sorted(keys)
               if not re.search(rf"\b{key}\b", section)]
    assert not missing


# Values no option or key accepts as they are, or accepts at an edge.  A
# real command line cannot pass a NUL byte, so none is drawn.
HOSTILE = (*EDGE_VALUES, "-inf", "-0", "1e-300", " ", "%", "%(x)s", "%%", "1,2", "0x10", "1_0",
           "\u0661", "=", "[x]", "DEFAULT", "constant", "piecewise", "logit", "uniform", "hov")
VALUES = (*HOSTILE, "1", "0.5", "2", "100", "ue", "exponential", "trapezoid", "hot")
HOSTILE_KEYS = ("DEFAULT.x", "simulation", ".dt_s", "simulation.", "fd.hot.x", "x.y", "demand.kind.x")
# The file contents --config reads: a valid piecewise file, and files that do not parse.
INI_FILES = {
    "piecewise.ini": "[demand]\nkind = piecewise\nbreakpoints_h = 0, 0.005\n"
                     "hov_rates_veh_h = 100, 200\nsov_rates_veh_h = 500, 900\n",
    "no-header.ini": "horizon_h = 1\n",
    "interpolation.ini": "[simulation]\nhorizon_h = %(x)s\n",
    "duplicate.ini": "[simulation]\ndt_s = 1\ndt_s = 2\n",
    "default.ini": "[DEFAULT]\nx = 1\n",
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory holding a short record file, the INI files and the run outputs."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in INI_FILES.items():
        (root / name).write_text(text, encoding="utf-8")
    (root / "latin1.ini").write_bytes(b"[simulation]\ndt_s = \xff\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["run", "--preset", "constant", "--set", "simulation.horizon_h=0.02",
                     "--out", str(root / "records.csv")]) == 0
    return root


def file_argument(names):
    """A path inside the fuzz directory: a file, the directory itself or a missing file."""
    return st.sampled_from((*names, "", "missing", "missing/x")).map(
        lambda name: lambda root: os.path.join(root, name))


@st.composite
def argvs(draw):
    """A command line in parts; paths are callables of the fuzz directory."""
    command = draw(st.sampled_from(("run", "analyze", "compare", "estimate")))
    if not draw(st.integers(0, 9)):  # a command that does not exist
        command = draw(st.sampled_from(HOSTILE))
    parts = [command]
    if command == "estimate":
        parts += ["--records", draw(file_argument(("records.csv", "piecewise.ini")))]
        parts += ["--model", draw(st.sampled_from(("ue", "logit", "UE", "", "nan")))]
        for option in ("--bins", "--alpha-star"):
            if draw(st.booleans()):
                parts.append(f"{option}={draw(st.sampled_from(VALUES))}")
        return parts
    if draw(st.integers(0, 3)):
        parts += ["--preset", draw(st.sampled_from((*sorted(PRESETS), "abc")))]
    if not draw(st.integers(0, 3)):
        parts += ["--config", draw(file_argument((*INI_FILES, "latin1.ini")))]
    for _ in range(draw(st.integers(0, 3))):
        key, value = draw(st.sampled_from((*KEYS, *HOSTILE_KEYS))), draw(st.sampled_from(VALUES))
        # mostly section.key=value; sometimes a bare value, which has no '='
        parts += ["--set", f"{key}={value}" if draw(st.integers(0, 5)) else value]
    if command == "analyze":
        if draw(st.booleans()):
            parts.append(f"--at-time={draw(st.sampled_from(VALUES))}")
    # every run ends by 0.01 h; the step ceiling rejects a dt_s that would take long
    parts += ["--set", "simulation.horizon_h=0.01"]
    if command == "run":
        parts += ["--out", draw(file_argument(("run.csv",)))]
    return parts


@settings(derandomize=True, deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(parts=argvs())
def test_fuzzed_argv_exits_cleanly(parts, fuzz_dir):
    """Every command line exits 0 to 3 without a traceback; exit 1 prints a config error line."""
    argv = [part(str(fuzz_dir)) if callable(part) else part for part in parts]
    out = fuzz_dir / "run.csv"
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")  # A1 warnings are expected here
        code = main(argv)  # a usage error is a config error, not a SystemExit
    err = stderr.getvalue()
    event(f"{argv[0]}: exit {code}")
    assert code in (0, 1, 2, 3), (argv, code, err)
    if argv[0] == "analyze":
        assert not NON_FINITE.search(stdout.getvalue()), (argv, stdout.getvalue())
    if argv[0] in ("run", "compare"):
        assert not SUMMARY_MISPRINTS.search(stdout.getvalue()), (argv, stdout.getvalue())
    if code == 1:
        assert err.startswith("config error:"), (argv, err)
        assert not out.exists(), argv
    if code == 2:
        assert err.startswith("runtime abort:"), (argv, err)
