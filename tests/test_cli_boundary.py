"""The CLI at the config boundary: every key at every edge value exits cleanly."""

import warnings

import pytest

from hotlanes.cli import main
from hotlanes.presets import _KNOWN_KEYS

EDGE_VALUES = ("nan", "inf", "-1", "0", "1e300", "", "abc")
KEYS = sorted(f"{section}.{key}" for section, keys in _KNOWN_KEYS.items() for key in keys)


def call(argv, capsys):
    """(exit code or None, failure text or None) of one in-process call."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # A1 warnings are expected here
            code = main(argv)
    except (Exception, SystemExit) as exc:
        capsys.readouterr()
        return None, f"raised {exc!r}"
    err = capsys.readouterr().err
    if code not in (0, 1, 2, 3):
        return code, f"exit {code}"
    if code == 1 and not err.startswith("config error:"):
        return code, f"exit 1 without a config error line: {err!r}"
    return code, None


@pytest.mark.parametrize("command", ["run", "analyze", "compare"])
def test_every_key_at_every_edge_value_exits_cleanly(command, tmp_path, capsys):
    out = tmp_path / "run.csv"
    failures = []
    for key in KEYS:
        for value in EDGE_VALUES:
            # Every call runs at most 0.01 h; the edge value comes last, so it
            # is the one in effect for simulation.horizon_h too, where the step
            # ceiling rejects 1e300.
            argv = [command, "--preset", "constant", "--set", "simulation.horizon_h=0.01",
                    "--set", f"{key}={value}"]
            if command == "run":
                argv += ["--out", str(out)]
            code, failure = call(argv, capsys)
            if failure:
                failures.append(f"{key}={value!r}: {failure}")
            if code == 1 and out.exists():
                failures.append(f"{key}={value!r}: exit 1 left a CSV")
            out.unlink(missing_ok=True)
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("model", ["ue", "logit"])
def test_estimate_options_at_every_edge_value_exit_cleanly(model, tmp_path, capsys):
    records = tmp_path / "run.csv"
    base = "constant-logit" if model == "logit" else "constant"
    assert main(["run", "--preset", base, "--set", "simulation.horizon_h=0.01",
                 "--set", "simulation.initial_gp_trips=60", "--out", str(records)]) == 0
    failures = []
    for option in ("--bins", "--alpha-star"):
        for value in EDGE_VALUES:
            argv = ["estimate", "--records", str(records), "--model", model, f"{option}={value}"]
            _, failure = call(argv, capsys)
            if failure:
                failures.append(f"{option}={value!r}: {failure}")
    assert not failures, "\n".join(failures)


def test_analyze_options_at_every_edge_value_exit_cleanly(capsys):
    failures = []
    for option in ("--at-time", "--phase-offset"):
        for value in EDGE_VALUES:
            argv = ["analyze", "--preset", "constant", f"{option}={value}"]
            _, failure = call(argv, capsys)
            if failure:
                failures.append(f"{option}={value!r}: {failure}")
    assert not failures, "\n".join(failures)
