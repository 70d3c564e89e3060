"""Pinned CSV digests and saturation counts of short runs.

The digests were taken from the step loop that rebuilt its state objects on
every step; the scalar kernel must reproduce them byte for byte.  The
``constant`` and ``triangular-gridlock`` ``every-step`` digests were taken
from the ``csv.writer`` writer that the one-template writer replaced.  The
``until-gp-jam`` digest and stats are those the step loop's former built-in
stop at GP jam density wrote for the same config at every-step cadence.  The
``coarse-step``, ``decimation7`` and ``constant-logit/every-step`` pins were
taken from the loop that called one helper function per formula, before that
arithmetic moved inline.  The ``constant/piecewise`` and
``trapezoid/every-step`` pins were taken from the loop that read the demand
profile at every step, before it read it only where the rates change.  The
``trapezoid/decimation7`` pin was re-taken when ``toll_clamped`` became the
flag of the toll the last controller tick posted; it differs from the earlier
pin only in that column.  The ``constant/coarse-step`` pin was re-taken when
a step clamped at 0 began to serve only the trips that existed; it differs
from the earlier pin only in the E and G columns.  The ``hot-gridlock`` abort
was re-pinned when the HOT jam-cap clamp was deleted: the count past the cap
now meets the gridlock at the next step, so the message reports the density
past the jam and the stats count no HOT clamp or drop.  A change that alters
the numerics or the bytes on purpose must say so and pin new digests.
"""

import csv
import hashlib
import io
import math
import warnings
from dataclasses import replace

import pytest
from conftest import until_gp_jam

from hotlanes.bathtub import HotGridlockError, SaturationStats
from hotlanes.lane_choice import UniformVot
from hotlanes.presets import apply_overrides
from hotlanes.scenario import CSV_COLUMNS, DemandProfile, SimulationRecord, csv_rows, run


def case_config(case: str):
    """The config of a pinned case; every horizon is 0.25 h."""
    name, _, variant = case.partition("/")
    cfg = replace(apply_overrides(None, name, []), horizon_h=0.25)
    step = cfg.dt_s / 3600.0  # the loop's step in hours: step i is at t = i * step
    if variant == "every-step":
        cfg = replace(cfg, output_dt_s=cfg.dt_s)
        if name == "trapezoid":
            # the pulse moved into the horizon, t1 and t2 on step times: every ramp
            # step and both inclusive plateau ends are recorded
            cfg = replace(cfg, demand=DemandProfile.trapezoid(
                200.0, 700.0, 100.5 * step, 2000 * step, 5000 * step, 7000.5 * step))
    elif variant == "coarse-step":
        # a 300 s step drains a lane group past zero: the lower clamp engages
        cfg = replace(cfg, dt_s=300.0, output_dt_s=300.0,
                      initial_hot_trips=10.0, initial_gp_trips=10.0)
    elif variant == "decimation10":
        cfg = replace(cfg, controller=replace(cfg.controller, decimation=10))
    elif variant == "decimation7":
        # the controller ticks out of step with the 10-step record cadence
        cfg = replace(cfg, controller=replace(cfg.controller, decimation=7))
    elif variant == "hov":
        cfg = replace(cfg, mode="hov")
    elif variant == "uniform-vot":
        cfg = replace(cfg, choice=UniformVot(10.0, 90.0))
    elif variant == "initial-trips":
        cfg = replace(cfg, initial_hot_trips=30.0, initial_gp_trips=60.0)
    elif variant == "short-pulse":
        # the whole pulse and its tail fit in the horizon: the toll clamps at 0
        cfg = replace(cfg, demand=DemandProfile.trapezoid(200.0, 700.0, 0.0, 0.05, 0.15, 0.2))
    elif variant == "piecewise":
        # breakpoints on and off step times, a flat interior segment (1500 to
        # 3000) and held end rates before the first and after the last, every step
        cfg = replace(cfg, output_dt_s=cfg.dt_s, demand=DemandProfile(
            breakpoints=tuple(k * step for k in (300.5, 1500, 3000, 4500.25, 6000, 8000.7)),
            hov_rates=(150.0, 250.0, 250.0, 100.0, 300.0, 200.0),
            sov_rates=(600.0, 1000.0, 1000.0, 500.0, 900.0, 700.0)))
    elif variant == "until-gp-jam":  # consumed by until_gp_jam
        cfg = replace(cfg, initial_gp_trips=130.0)
    elif variant == "hot-gridlock":
        cfg = replace(cfg, initial_gp_trips=130.0,
                      demand=DemandProfile.constant(2000.0, 3000.0))
    elif variant:
        raise KeyError(case)
    return cfg


# case -> (sha256 of the CSV, final SaturationStats as
# (hot_clamp_steps, gp_clamp_steps, hot_dropped, gp_dropped))
PINNED = {
    "constant": (
        "44f9c4c31d5a3a876749e7e906c1fa65ca93f64cffee648197a4d0a5136375f0",
        (0, 0, 0.0, 0.0),
    ),
    "constant-logit": (
        "4c01afb1ca54c2cf1267e2d02dceeba4fa2ff375df2a00bd004e058cca9013a2",
        (0, 0, 0.0, 0.0),
    ),
    "trapezoid": (
        "2b27069ea54010499b0c808dfaa41bcba36fbfd4eca88aeca59edcc9d75b341d",
        (0, 0, 0.0, 0.0),
    ),
    "triangular-gridlock": (
        "5b82d49b7c051e098f6580381edb65f2821d2323c90bcaa0e15bec3e0525e2db",
        (0, 1, 0.0, 0.004459805088771418),
    ),
    "constant/every-step": (
        "0fc68c92e600413965451bc88ea4c0b2c48d0ebabe535243a21e5a16e6a5b34d",
        (0, 0, 0.0, 0.0),
    ),
    "triangular-gridlock/every-step": (
        "919ef440a09bd89a662d79df4cad94ae74f408ed0aac05abaa120ddf66326fdf",
        (0, 1, 0.0, 0.004459805088771418),
    ),
    "constant/coarse-step": (
        "2410baaa02e10c5ef66a46e59277ee28c36c0b5ad6970468c282ec84a7ace82e",
        (0, 1, 0.0, 0.0),
    ),
    "constant-logit/every-step": (
        "4091a6dee6104a3024a187ea1bfdaaa55284d58a379d5354eba5b31169b293b8",
        (0, 0, 0.0, 0.0),
    ),
    "constant/decimation10": (
        "9558367c67ab4e6c54aa803bff4ceb288594bf66ca6a78b776ec630fc2188f20",
        (0, 0, 0.0, 0.0),
    ),
    "constant/hov": (
        "e73376f10aee04bed653727a7d776f13ed9d2a742c3b7fd31b91e47c16473751",
        (0, 0, 0.0, 0.0),
    ),
    "constant/uniform-vot": (
        "5607f3c19748eca55857fcda603f14143ddf24161ab73c2da79374076e1e523b",
        (0, 0, 0.0, 0.0),
    ),
    "constant/initial-trips": (
        "6c23de01c6183f040d63afe1811cc878a920753194a8747f80db4dd3286e169d",
        (0, 0, 0.0, 0.0),
    ),
    "trapezoid/hov": (
        "abfdb7913eebeca75bc3b0c3c9cb52e86b9e5f62516219c7abd067f45f469414",
        (0, 0, 0.0, 0.0),
    ),
    "trapezoid/decimation7": (
        "a61c15267702836a6d1f08dbe8d177ed69c974bcbe7e039367afd41fccbcb5cd",
        (0, 0, 0.0, 0.0),
    ),
    "trapezoid/short-pulse": (
        "5f28a17e9e856573d06839b995c82758a042d7daa42fb90f0f951f7c75fd18e4",
        (0, 0, 0.0, 0.0),
    ),
    "constant/piecewise": (
        "f6ded91adea5bddcb92262353afc88b3bd203d38753371a07246d0bc8f817641",
        (0, 0, 0.0, 0.0),
    ),
    "trapezoid/every-step": (
        "faf1bb040eb84ce6bc8cca16de527f3106f5695dc10b4fa3978017d0042e8286",
        (0, 0, 0.0, 0.0),
    ),
    "triangular-gridlock/until-gp-jam": (
        "5ca950a82fb4d3fc23bcc197f45b1d15ae324751c30999471de24cad5311eedf",
        (0, 1, 0.0, 0.008957186338818701),
    ),
}

# case -> (message of the HotGridlockError, SaturationStats when it was raised)
PINNED_GRIDLOCK = {
    "triangular-gridlock/hot-gridlock": (
        "managed lanes gridlocked at t=0.0315 h (rho1=140.021)",
        (0, 1, 0.0, 0.052432159319636185),
    ),
}


def run_case(case: str, stats: SaturationStats):
    cfg = case_config(case)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if case.endswith("/until-gp-jam"):
            return until_gp_jam(cfg, stats)
        return run(cfg, stats=stats)


def stats_tuple(stats: SaturationStats):
    return (stats.hot_clamp_steps, stats.gp_clamp_steps, stats.hot_dropped, stats.gp_dropped)


@pytest.mark.parametrize("case", sorted(PINNED))
def test_csv_and_stats_match_pinned(case, tmp_path):
    stats = SaturationStats()
    path = tmp_path / "run.csv"
    list(csv_rows(run_case(case, stats), str(path)))
    digest, want_stats = PINNED[case]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert stats_tuple(stats) == want_stats


@pytest.mark.parametrize("case", sorted(PINNED_GRIDLOCK))
def test_gridlock_abort_matches_pinned(case):
    stats = SaturationStats()
    with pytest.raises(HotGridlockError) as info:
        run_case(case, stats)
    message, want_stats = PINNED_GRIDLOCK[case]
    assert str(info.value) == message
    assert stats_tuple(stats) == want_stats


def csv_writer_bytes(records) -> bytes:
    """The records as ``csv.writer`` writes them, floats through ``'{:.9g}'.format``."""
    n_float = CSV_COLUMNS.index("phase1")
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([*map("{:.9g}".format, r[:n_float]), *r[n_float:]])
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("omega", [math.inf, math.nan, -0.0, 1e-300, 1e300, -1e300, 5e-324])
def test_template_writer_matches_csv_writer(omega, tmp_path):
    base = dict.fromkeys(CSV_COLUMNS, 0.0) | {
        "phase1": "SUC", "phase2": "SOC", "toll_clamped": 1, "hot_clamped": 0, "gp_clamped": 1,
    }
    records = [
        SimulationRecord(**base | {"omega": omega}),
        SimulationRecord(**base | {"t": 1 / 3, "delta1": -2.5e-7, "u": 123456789.123, "omega": omega}),
    ]
    path = tmp_path / "run.csv"
    list(csv_rows(records, str(path)))
    assert path.read_bytes() == csv_writer_bytes(records)
