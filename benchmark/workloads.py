"""Seeded workload generators, the set-up step and the checked operations.

The benchmark exercises hotlanes through its public API and its in-process CLI.
A workload seed only ever reaches this module: the program receives the
generated ``section.key=value`` overrides, never the seed.

Every hotlanes function is looked up through its module at call time
(``scenario.run``, ``cli.main``), so the tracer's wrappers see the calls.
"""

import contextlib
import csv
import hashlib
import io
import math
import os
import random
import re
import time
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace

from hotlanes import bathtub, cli, presets, scenario

# Fixed before any timing: the relative distance the final paying share of a
# closed-loop run may keep from the closed-form p0 after the 3 h horizon.
# Over 8 random draws from these ranges the distance at 3 h was below 0.002;
# at 2.5 h it was still up to 0.024: the paying share approaches p0 slowly.
P0_REL_TOL = 0.02
# Conservation E - G = delta - delta(0) on records held in memory, and on
# records read back from a CSV written at 9 significant digits.
CONSERVATION_REL_TOL = 1e-9
CSV_CONSERVATION_REL_TOL = 2e-8
# Pooled UE CDF ordinates against the generating exponential CDF pooled the
# same way; the CSV holds 9 significant digits, so F agrees to ~1e-8.
UE_CDF_ABS_TOL = 1e-6
# Mean logit VOT estimate against the generating common VOT [$/h].
LOGIT_VOT_REL_TOL = 1e-4

A1_PREFIX = "demand assumption violated"
STRING_COLUMNS = ("phase1", "phase2")
# Every numeric column must be finite, except the documented omega = inf
# (GP lanes at zero speed).
FINITE_COLUMNS = tuple(c for c in scenario.CSV_COLUMNS if c not in STRING_COLUMNS + ("omega",))

WORKLOADS = ("closed-loop", "compare-peak", "records-io")


class BenchError(RuntimeError):
    """The benchmark cannot measure: the program failed set-up."""


@dataclass(frozen=True)
class Scenario:
    """One generated scenario: a preset plus the exact overrides it gets."""

    name: str
    preset: str
    overrides: tuple[str, ...]
    model: str  # "ue" | "logit"; the estimate model that matches the choice
    vot: float  # generating mean VOT (UE) or common VOT (logit) [$/h]

    def cli_args(self) -> list[str]:
        args = ["--preset", self.preset]
        for item in self.overrides:
            args += ["--set", item]
        return args

    def with_override(self, suffix: str, item: str) -> "Scenario":
        """A copy named ``name + suffix`` whose ``item`` replaces any value for its key."""
        key = item.split("=", 1)[0] + "="
        kept = tuple(o for o in self.overrides if not o.startswith(key))
        return Scenario(self.name + suffix, self.preset, kept + (item,), self.model, self.vot)


def _draw(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.3f}"


def _constant(name: str, rng: random.Random, model: str, vot: str, *extra: str) -> Scenario:
    # HOV in [150, 250] and SOV in [800, 900] veh/h keep all three overload
    # conditions (A1) of the unit corridor strict: e1*D < 2333 < e2*D and
    # (e1 + e2)*D > 4667.  set_up() re-checks each draw with a1_warnings().
    if model == "ue":
        preset, vot_key = "constant", "choice.expected_vot"
    else:
        preset, vot_key = "constant-logit", "choice.logit_vot"
    overrides = (
        f"demand.hov_veh_h={_draw(rng, 150.0, 250.0)}",
        f"demand.sov_veh_h={_draw(rng, 800.0, 900.0)}",
        f"{vot_key}={vot}",
    ) + extra
    return Scenario(name, preset, overrides, model, float(vot))


def generate(workload: str, seed: int) -> list[Scenario]:
    """The scenarios of one workload, a pure function of the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "closed-loop":
        # Alternating UE and logit choice; 3 h lets the paying share settle
        # near p0, so the final share can be checked against the closed form.
        out = []
        for k in range(8):
            model = "ue" if k % 2 == 0 else "logit"
            out.append(_constant(f"cl{k}-{model}", rng, model, _draw(rng, 40.0, 60.0),
                                 "simulation.horizon_h=3"))
        return out
    if workload == "compare-peak":
        # A 1 h trapezoid pulse run to 1.5 h, so the tail after demand ends
        # (toll clamped at zero, coefficients winding up) is simulated too.
        out = []
        for k in range(8):
            out.append(Scenario(
                f"cp{k}", "trapezoid",
                (
                    f"demand.hov_peak_veh_h={_draw(rng, 180.0, 220.0)}",
                    f"demand.sov_peak_veh_h={_draw(rng, 680.0, 720.0)}",
                    "demand.kind=trapezoid",
                    "demand.ramp_up_start_h=0",
                    "demand.ramp_up_end_h=0.1",
                    "demand.ramp_down_start_h=0.9",
                    "demand.ramp_down_end_h=1.0",
                    "simulation.horizon_h=1.5",
                ),
                "ue", 50.0,
            ))
        return out
    if workload == "records-io":
        # Records at every step; VOT fixed at 50 so the estimates have a
        # known target.
        every_step = ("simulation.horizon_h=0.25", "simulation.output_dt_s=0.1")
        return [
            _constant("io-ue", rng, "ue", "50", *every_step),
            _constant("io-logit", rng, "logit", "50", *every_step),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


@dataclass
class Prepared:
    """A scenario with its resolved config and the reference it is checked against."""

    scenario: Scenario
    config: object
    p0: float | None  # closed-form paying share for constant demand

    @property
    def steps(self) -> int:
        """Euler steps of one run (the program's own step-count rule)."""
        cfg = self.config
        return max(1, round(cfg.horizon_h * 3600.0 / cfg.dt_s))


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _prepare(sc: Scenario) -> Prepared:
    cfg = presets.apply_overrides(None, sc.preset, list(sc.overrides))
    p0 = None
    if cfg.demand.kind == "constant":
        if cfg.a1_warnings():
            raise BenchError(f"{sc.name}: generated demand violates A1: {cfg.a1_warnings()}")
        p0 = scenario.constant_equilibrium(cfg).p0
        rc, text = _quiet_cli(["analyze", *sc.cli_args()])
        if rc != 0:
            raise BenchError(f"{sc.name}: analyze exited {rc}: {text.strip()}")
    return Prepared(sc, cfg, p0)


def set_up(workload: str, seed: int) -> tuple[list[Prepared], Prepared | None]:
    """Resolve every scenario of the workload and its analytic reference.

    Constant-demand scenarios must satisfy A1 (else the generator is wrong),
    get their closed-form p0, and go through ``hotlanes analyze`` as a user
    would before a run.  Workloads without CLI operations of their own also
    get a probe for the CLI metrics: their first scenario cut to 0.25 h.
    """
    scenarios = generate(workload, seed)
    probe = None
    if workload != "records-io":
        probe = _prepare(scenarios[0].with_override("-probe", "simulation.horizon_h=0.25"))
    return [_prepare(sc) for sc in scenarios], probe


# ---------------------------------------------------------------- checks


def check_records(rows, rel_tol: float) -> list[str]:
    """Invariants every emitted record must satisfy; returns the violations."""
    if not rows:
        return ["no records"]
    problems = []
    d1_0, d2_0 = rows[0].delta1, rows[0].delta2
    for r in rows:
        for name in FINITE_COLUMNS:
            if not math.isfinite(getattr(r, name)):
                problems.append(f"t={r.t}: {name} not finite")
        if math.isnan(r.omega) or r.omega == -math.inf:
            problems.append(f"t={r.t}: omega={r.omega}")
        if not 0.0 <= r.p <= 1.0:
            problems.append(f"t={r.t}: p={r.p} outside [0, 1]")
        if not r.u >= 0.0:
            problems.append(f"t={r.t}: u={r.u} negative")
        for E, G, d, d0 in ((r.E1, r.G1, r.delta1, d1_0), (r.E2, r.G2, r.delta2, d2_0)):
            scale = max(1.0, abs(E) + abs(G) + abs(d) + abs(d0))
            if abs((E - G) - (d - d0)) > rel_tol * scale:
                problems.append(f"t={r.t}: conservation off by {(E - G) - (d - d0):.3g}")
        if len(problems) > 5:
            break
    return problems


def parse_csv(path: str) -> list[SimpleNamespace]:
    """The benchmark's own reader, independent of ``scenario.read_csv``."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [
            SimpleNamespace(**{k: v if k in STRING_COLUMNS else float(v) for k, v in raw.items()})
            for raw in csv.DictReader(fh)
        ]


def check_roundtrip(reference, back) -> list[str]:
    """``read_csv`` must give back the emitted records at 9 significant digits."""
    if len(reference) != len(back):
        return [f"read {len(back)} rows, emitted {len(reference)}"]
    for ref, got in zip(reference, back):
        for name in scenario.CSV_COLUMNS:
            want = getattr(ref, name)
            if isinstance(want, float):
                want = float(f"{want:.9g}")
            if getattr(got, name) != want:
                return [f"t={ref.t}: {name} read {getattr(got, name)!r}, emitted {want!r}"]
    return []


_VOT_LINE = re.compile(r"common VOT estimate: (\S+) \$/h over (\d+) observations")
CDF_BINS = 40  # the estimate command's default --bins


def expected_cdf_table(rows, vot: float) -> list[tuple[float, float, int]]:
    """The pooled CDF table an exact estimator must print for these rows.

    Each row with a positive finite gap and SOV demand is one point at
    x = u / omega; its ordinate is taken from the generating exponential
    VOT, not from the data, and points are pooled into equal-width bins of
    x as the estimate command documents.  Matching this table means the
    data's non-paying shares recover the exponential(vot) CDF.
    """
    xs = [r.u / r.omega for r in rows if math.isfinite(r.omega) and r.omega > 0 and r.e2_tilde > 0]
    if not xs:
        return []
    lo, hi = min(xs), max(xs)
    if hi == lo:
        return [(lo, 1.0 - math.exp(-lo / vot), len(xs))]
    width = (hi - lo) / CDF_BINS
    sums = [[0.0, 0.0, 0] for _ in range(CDF_BINS)]
    for x in xs:
        acc = sums[min(int((x - lo) / width), CDF_BINS - 1)]
        acc[0] += x
        acc[1] += 1.0 - math.exp(-x / vot)
        acc[2] += 1
    return [(sx / n, sf / n, n) for sx, sf, n in sums if n]


def logit_observations(rows) -> int:
    """Rows that identify a logit VOT: positive finite gap, interior share."""
    return sum(1 for r in rows if math.isfinite(r.omega) and r.omega > 0 and 0 < r.e21_tilde < r.e2_tilde)


def check_estimate(model: str, vot: float, rows, text: str) -> list[str]:
    """The estimate output for ``rows`` recovers the generating VOT."""
    if model == "logit":
        m = _VOT_LINE.search(text)
        if not m:
            return [f"no VOT estimate in output: {text.strip()[:200]}"]
        problems = []
        est, n = float(m.group(1)), int(m.group(2))
        if abs(est - vot) > LOGIT_VOT_REL_TOL * vot:
            problems.append(f"logit VOT estimate {est} != {vot}")
        if n != logit_observations(rows):
            problems.append(f"VOT from {n} observations, {logit_observations(rows)} are estimable")
        return problems
    lines = text.strip().splitlines()
    if not lines or lines[0] != "vot_dollars_per_h,cdf_estimate,count":
        return [f"no CDF table in output: {text.strip()[:200]}"]
    want = expected_cdf_table(rows, vot)
    if len(lines) - 1 != len(want):
        return [f"CDF table has {len(lines) - 1} bins, expected {len(want)}"]
    for line, (x, f, n) in zip(lines[1:], want):
        got_x, got_f, got_n = line.split(",")
        if (int(got_n) != n or abs(float(got_x) - x) > 1e-8 * abs(x)
                or abs(float(got_f) - f) > UE_CDF_ABS_TOL):
            return [f"CDF row {line} vs exponential({vot}) pooled ({x:.9g}, {f:.9g}, {n})"]
    return []


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ------------------------------------------------------------ operations


@dataclass
class OpResult:
    kind: str  # run | compare | cli_run | estimate
    scenario: str
    wall_s: float
    sim_h: float  # simulated hours advanced by the operation
    steps: int  # Euler steps taken by the operation
    problems: list[str] = field(default_factory=list)
    a1_warnings: int = 0
    other_warnings: list[str] = field(default_factory=list)
    csv_sha256: str | None = None
    clamp_steps: int = 0
    dropped_veh: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems


def _timed(kind: str, p: Prepared, runs: int, fn):
    """Run ``fn`` with its warnings captured; time only the call.

    ``runs`` is how many scenario runs of ``p`` the operation performs.
    """
    res = OpResult(kind, p.scenario.name, 0.0, runs * p.config.horizon_h, runs * p.steps)
    value = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:  # an operation that raises is a failed operation
            res.problems.append(f"raised {type(exc).__name__}: {exc}")
        res.wall_s = time.perf_counter() - t0
    for w in caught:
        msg = str(w.message)
        if issubclass(w.category, UserWarning) and msg.startswith(A1_PREFIX):
            res.a1_warnings += 1
        else:
            res.other_warnings.append(f"{w.category.__name__}: {msg}")
    return res, value


class Runner:
    """Performs and checks operations; keeps the per-CSV verdicts."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.digests: dict[str, str] = {}  # scenario name -> first CSV digest
        self.verdicts: dict[str, list[str]] = {}  # CSV digest -> problems
        self.rows: dict[str, list] = {}  # CSV digest -> the rows estimation reads

    def csv_path(self, sc: Scenario) -> str:
        return os.path.join(self.out_dir, f"{sc.name}.csv")

    def run(self, p: Prepared) -> OpResult:
        stats = bathtub.SaturationStats()
        res, records = _timed("run", p, 1,
                              lambda: scenario.run(p.config, stats=stats))
        res.clamp_steps = stats.hot_clamp_steps + stats.gp_clamp_steps
        res.dropped_veh = stats.hot_dropped + stats.gp_dropped
        if records is not None:
            res.problems += check_records(records, CONSERVATION_REL_TOL)
            final_p = records[-1].p
            if abs(final_p - p.p0) > P0_REL_TOL * p.p0:
                res.problems.append(f"final p {final_p:.6g} vs p0 {p.p0:.6g}")
        return res

    def compare(self, p: Prepared) -> OpResult:
        res, cmp_ = _timed("compare", p, 2,
                           lambda: scenario.compare_hov_hot(p.config))
        if cmp_ is not None:
            if not cmp_.delay_saved > 0.0:
                res.problems.append(f"delay_saved {cmp_.delay_saved} not positive")
            if not cmp_.managed_lane_served_gain > 0.0:
                res.problems.append(f"served gain {cmp_.managed_lane_served_gain} not positive")
            for m in (cmp_.hov, cmp_.hot):
                values = (m.total_delay, m.hot.served, m.gp.served, m.max_omega, m.revenue)
                if not all(math.isfinite(v) for v in values):
                    res.problems.append(f"non-finite metrics {values}")
        return res

    def cli_run(self, p: Prepared) -> OpResult:
        sc = p.scenario
        path = self.csv_path(sc)
        argv = ["run", *sc.cli_args(), "--out", path]
        res, out = _timed("cli_run", p, 1, lambda: _quiet_cli(argv))
        if out is None:
            return res
        rc, text = out
        if rc != 0:
            res.problems.append(f"run exited {rc}: {text.strip()[:200]}")
            return res
        digest = res.csv_sha256 = sha256_file(path)
        first = self.digests.setdefault(sc.name, digest)
        if digest != first:
            res.problems.append(f"CSV digest {digest[:12]} differs from {first[:12]} of the same config")
        if digest not in self.verdicts:
            # Identical bytes give identical verdicts, so each distinct CSV
            # is checked once, against a fresh library run of its config.
            rows = parse_csv(path)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                reference = scenario.run(p.config)
            self.verdicts[digest] = (check_records(rows, CSV_CONSERVATION_REL_TOL)
                                     + check_roundtrip(reference, scenario.read_csv(path)))
            self.rows[digest] = [
                SimpleNamespace(u=r.u, omega=r.omega, e2_tilde=r.e2_tilde, e21_tilde=r.e21_tilde)
                for r in rows
            ]
        res.problems += self.verdicts[digest]
        return res

    def estimate(self, p: Prepared) -> OpResult:
        """``hotlanes estimate`` on the CSV the last ``cli_run`` of ``p`` wrote."""
        sc = p.scenario
        argv = ["estimate", "--records", self.csv_path(sc), "--model", sc.model]
        res, out = _timed("estimate", p, 0, lambda: _quiet_cli(argv))
        if out is not None:
            rc, text = out
            rows = self.rows.get(self.digests.get(sc.name))
            if rc != 0:
                res.problems.append(f"estimate exited {rc}: {text.strip()[:200]}")
            elif rows is None:
                res.problems.append("no checked CSV of this scenario to compare with")
            else:
                res.problems += check_estimate(sc.model, sc.vot, rows, text)
        return res
