"""The CLI at the config boundary: every key at every edge value exits cleanly."""

import warnings

import pytest

from hotlanes.cli import main
from hotlanes.presets import _KNOWN_KEYS

EDGE_VALUES = ("nan", "inf", "-1", "0", "1e300", "", "abc")
# simulation.horizon_h is left out: at 1e300 the run has no step ceiling and
# does not end.  Every other call runs at most 0.01 h.
KEYS = sorted(
    f"{section}.{key}" for section, keys in _KNOWN_KEYS.items() for key in keys
    if (section, key) != ("simulation", "horizon_h")
)


@pytest.mark.parametrize("command", ["run", "analyze", "compare"])
def test_every_key_at_every_edge_value_exits_cleanly(command, tmp_path, capsys):
    out = tmp_path / "run.csv"
    failures = []
    for key in KEYS:
        for value in EDGE_VALUES:
            argv = [command, "--preset", "constant", "--set", f"{key}={value}",
                    "--set", "simulation.horizon_h=0.01"]
            if command == "run":
                argv += ["--out", str(out)]
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # A1 warnings are expected here
                    code = main(argv)
            except (Exception, SystemExit) as exc:
                failures.append(f"{key}={value!r}: raised {exc!r}")
                continue
            finally:
                capsys.readouterr()
            if code not in (0, 1, 2, 3):
                failures.append(f"{key}={value!r}: exit {code}")
            if code == 1 and out.exists():
                failures.append(f"{key}={value!r}: exit 1 left a CSV")
            out.unlink(missing_ok=True)
    assert not failures, "\n".join(failures)
