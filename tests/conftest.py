"""Shared fixtures and the acceptance-criterion reporter.

Acceptance tests register one line per criterion; the lines are printed in a
dedicated section of the terminal summary so a full run shows every
criterion's verdict even under output capture.
"""

from dataclasses import replace

import pytest

from hotlanes.nfd import FdParams, capacity, flow
from hotlanes.scenario import iter_run

_CRITERION_LINES: list[tuple[int, str, bool, str]] = []


def record_criterion(num: int, description: str, passed: bool, detail: str = "") -> None:
    _CRITERION_LINES.append((num, description, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for num, desc, ok, detail in sorted(_CRITERION_LINES):
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] criterion {num:2d}: {desc}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line, green=ok, red=not ok)


@pytest.fixture(scope="session")
def criterion():
    """Callable recording one acceptance-criterion verdict for the summary."""
    return record_criterion


@pytest.fixture(scope="session")
def fd_triangular() -> FdParams:
    """The numerical-study diagram without a flow floor."""
    return FdParams(u_f=100.0, w=20.0, rho_j=140.0, c=0.0)


@pytest.fixture(scope="session")
def fd_floor(fd_triangular) -> FdParams:
    """The numerical-study diagram with the flow floor at 80% of capacity."""
    return FdParams(
        u_f=100.0, w=20.0, rho_j=140.0, c=0.8 * capacity(fd_triangular)
    )


def diagram_outflow(config, rho_tot: float, rho1: float) -> float:
    """Corridor outflow [veh/h] read from the diagram at HOT-side density ``rho1`` of ``rho_tot``.

    Both groups run on ``config.fd_hot`` with ``config.hot_lanes`` lanes each, as
    :func:`hotlanes.analysis.max_outflow_cases` requires.
    """
    scale = config.hot_lanes * config.corridor_length / config.mean_trip_distance
    rho2 = rho_tot - rho1
    return scale * (flow(config.fd_hot, rho1) + flow(config.fd_hot, rho2))


def until_gp_jam(config, stats=None):
    """The run's records at every step, through the first one at GP jam density.

    The stream is left there, so ``stats`` counts the steps before that record.
    """
    config = replace(config, output_dt_s=config.dt_s)
    jam = config.fd_gp.rho_j * (config.gp_lanes * config.corridor_length) * (1.0 - 1e-12)
    records = []
    for record in iter_run(config, stats):
        records.append(record)
        if record.delta2 >= jam:
            break
    return records
