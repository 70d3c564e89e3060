"""A committed mutation sweep: which one-line faults in the program does Tier-1 catch?

    python3 tools/mutants.py --out mutants.json

Each entry of ``MUTANTS`` is one fault: the file, a text that occurs exactly
once in it, the text that replaces it, and the reason the fault matters (or,
for an equivalent mutant, why no test can tell it from the original).  The
script copies the checkout that holds it to a temporary directory, applies
each mutant there in turn, runs Tier-1 with ``-x`` (without the test of this
list, which every applied mutant fails) and restores the file, and
writes to ``--out`` the killed (Tier-1 fails), survived (Tier-1 passes) and
declared-equivalent mutants, each run's wall time and the first failing test.
Equivalent mutants are listed, not run.  The checkout itself is never
written.  Stdlib only.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Tier-1 but for the check of this list, which any applied mutant fails by construction
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors",
         "--ignore=tests/test_mutants_tool.py"]
LOOP = "src/hotlanes/scenario.py"  # the step loop, held_rates, metrics and iter_csv
ESTIMATION = "src/hotlanes/estimation.py"
PRESETS = "src/hotlanes/presets.py"
ANALYSIS = "src/hotlanes/analysis.py"
NFD = "src/hotlanes/nfd.py"
CHOICE = "src/hotlanes/lane_choice.py"
CONTROLLER = "src/hotlanes/controller.py"
CLI = "src/hotlanes/cli.py"


class Mutant(NamedTuple):
    file: str  # relative to the checkout
    old: str  # occurs exactly once in the file
    new: str
    reason: str
    equivalent: bool = False


MUTANTS = [
    # the two mutants the sweep found equivalent
    Mutant(LOOP, "C if abs(rho2 - rho_c2) <= tol", "C if abs(rho2 - rho_c2) < tol",
           "differs only at |rho2 - rho_c2| == 1e-9 exactly, a density no Euler state lands on",
           equivalent=True),
    Mutant(LOOP, "p = 1.0 if x <= low else", "p = 1.0 if x < low else",
           "at x == low the ramp branch gives 1 - 0 / (high - low) == 1.0, the same share",
           equivalent=True),
    # the GP phase labels read the HOT diagram: caught only when the groups' diagrams differ
    Mutant(LOOP, "critical_density(fd_hot), critical_density(fd_gp)",
           "critical_density(fd_hot), critical_density(fd_hot)",
           "the GP phase labels use the HOT critical density"),
    # the four faults a vector-field oracle is to catch (ROADMAP item 11)
    Mutant(LOOP, "(k1 * lam - k2 * xi), b + dt_ctrl * (k3 * lam - k4 * xi)",
           "(k1 * lam - k4 * xi), b + dt_ctrl * (k3 * lam - k2 * xi)",
           "the gains k2 and k4 swap"),
    Mutant(LOOP, "v2 = (c2 if c2 > v2 else v2) / rho2", "v2 = v2 / rho2",
           "the GP speed loses its flow floor"),
    Mutant(LOOP, "lam = rho1 - rho_c1", "lam = rho2 - rho_c2",
           "the excess density is taken from the GP lanes"),
    Mutant(LOOP, "            if tick:\n                posted =", "            if True:\n                posted =",
           "the toll is re-posted every step, not once per controller tick"),
    # the speeds and the gap
    Mutant(LOOP, "v1 = w1 * (rj1 - rho1)", "v1 = w2 * (rj1 - rho1)",
           "the HOT speed uses the GP wave speed"),
    Mutant(LOOP, "            if v1 > uf1:", "            if v1 > uf2:",
           "the HOT speed is capped at the GP free-flow speed"),
    Mutant(LOOP, "v2 = w2 * (rj2 - rho2)", "v2 = w2 * (rj1 - rho2)",
           "the GP speed uses the HOT jam density"),
    Mutant(LOOP, "elif v1 < v1_least:", "elif v1 < 0.0:",
           "a HOT speed of 0 is no longer the gridlock"),
    Mutant(LOOP, "rho1, rho2 = d1 / L1, d2 / L2", "rho1, rho2 = d1 / L2, d2 / L2",
           "the HOT density divides by the GP lane length"),
    Mutant(LOOP, "1.0 / v2 - 1.0 / v1", "1.0 / v1 - 1.0 / v2",
           "the travel-time gap changes sign"),
    # the toll and the share
    Mutant(LOOP, "u = posted if posted > 0.0 else 0.0", "u = posted",
           "a negative toll is posted"),
    Mutant(LOOP, "posted = ceiling if gap == inf else", "posted = b if gap == inf else",
           "an unbounded gap posts b, not the toll ceiling"),
    Mutant(LOOP, "            if omega < 0.0:\n                p = 0.0",
           "            if omega < 0.0:\n                p = 1.0",
           "every SOV pays while the HOT lanes are slower"),
    Mutant(LOOP, "x = alpha * (u - pi_star * gap)", "x = alpha * (u + pi_star * gap)",
           "the logit vote adds the time saving to the toll"),
    Mutant(LOOP, "exp(-x / vot_mean)", "exp(-x * vot_mean)",
           "the exponential VOT share multiplies by the mean"),
    Mutant(LOOP, "1 if posted < 0.0 else 0, hot_clamped", "1 if u < 0.0 else 0, hot_clamped",
           "toll_clamped reads the clamped toll, which is never negative"),
    # the plant
    Mutant(LOOP, "e21 = p * e2t", "e21 = p * e1t",
           "the paying share splits the HOV rate"),
    Mutant(LOOP, "in1, in2 = e1t + e21, e2t - e21", "in1, in2 = e1t + e21, e2t",
           "paying SOVs enter both lane groups"),
    Mutant(LOOP, "g1 = d1 / D * v1", "g1 = d1 / D * v2",
           "HOT trips complete at the GP speed"),
    Mutant(LOOP, "xi = g1 - in1", "xi = in1 - g1",
           "the residual service rate changes sign"),
    Mutant(LOOP, "G1 += d1  # the overshoot", "G1 += 0.0  # the overshoot",
           "a step clamped at 0 serves its full completion rate"),
    Mutant(LOOP, "stats.gp_dropped += d2 - cap2", "stats.gp_dropped += cap2 - d2",
           "the dropped GP vehicles count negative"),
    # records and the controller's clock
    Mutant(LOOP, "next_record = min(next_record + record_every, last)",
           "next_record = next_record + record_every",
           "the last step is no longer always recorded"),
    Mutant(LOOP, "E1, E2 = d1 - d1_init + G1", "E1, E2 = d1 + G1",
           "the initiated count includes the initial trips"),
    Mutant(LOOP, "dt_ctrl = dt * decim", "dt_ctrl = dt",
           "the coefficients integrate one step per controller tick"),
    Mutant(LOOP, "next_tick += decim", "next_tick += 1",
           "the controller ticks every step under any decimation"),
    # the demand's one interpolation
    Mutant(LOOP, "f, g = (t - a) / (b - a), (b - t) / (b - a)",
           "g, f = (t - a) / (b - a), (b - t) / (b - a)",
           "a ramp runs backwards: f and g swap"),
    Mutant(LOOP, "return h1, s1, bp[i] if i < len(bp) else math.inf",
           "return h1, s1, t if i < len(bp) else math.inf",
           "a flat segment holds only to t, so the loop reads it every step"),
    Mutant(LOOP, "i = bisect.bisect_right(bp, t)", "i = bisect.bisect_left(bp, t)",
           "a time on a knot reads the segment before it"),
    Mutant(LOOP, "tuple(x + 0.0 for x in getattr(self, name))", "tuple(getattr(self, name))",
           "a -0.0 rate is held up to a knot where held_rates reads +0.0"),
    # metrics
    Mutant(LOOP, "delay1 += 0.5 * (y1 + p1) * (t - pt)", "delay1 += y1 * (t - pt)",
           "the managed-lane delay takes a rectangle rule, not the trapezoid"),
    Mutant(LOOP, "last.u * last.e21_tilde * D", "last.u * last.e2_tilde * D",
           "revenue charges every SOV, not the paying ones"),
    Mutant(LOOP, "max_omega = max(max_omega, last.omega)", "max_omega = last.omega",
           "the peak gap is the last gap"),
    Mutant(LOOP, "served1, served2 = last.G1 - first.G1, last.G2", "served1, served2 = last.G1, last.G2",
           "served trips count the completions before the first record"),
    Mutant(LOOP, "if not math.isfinite(total):", "if math.isnan(total):",
           "an infinite delay or revenue is returned, not raised"),
    # iter_csv
    Mutant(LOOP, r'if line.rstrip("\n") != _HEADER[:-2]:', 'if line[:10] != _HEADER[:10]:',
           "a header that differs after its first columns is read"),
    Mutant(LOOP, "label[row[n]], label[row[n + 1]]", "label[row[n]], label[row[n]]",
           "phase2 reads the phase1 cell"),
    Mutant(LOOP, "flag[row[n + 2]], flag[row[n + 3]], flag[row[n + 4]]",
           "flag[row[n + 2]], flag[row[n + 4]], flag[row[n + 3]]",
           "the hot_clamped and gp_clamped cells swap"),
    Mutant(LOOP, 'or "_" in line or " " in line', 'or " " in line',
           "a cell such as 1_5, which float() reads, is accepted"),
    Mutant(LOOP, '                    if row == [""]:  # a blank line\n                        continue',
           '                    if row == [""]:  # a blank line\n                        break',
           "a blank line ends the file"),
    # the two estimators
    Mutant(ESTIMATION, "return x, 1.0 - r.e21_tilde / r.e2_tilde", "return x, r.e21_tilde / r.e2_tilde",
           "the CDF point is the paying share, not the non-paying one"),
    Mutant(ESTIMATION, "x = r.u / r.omega", "x = r.u * r.omega",
           "the CDF abscissa multiplies the toll by the gap"),
    Mutant(ESTIMATION, "- 1.0) / alpha_star) / r.omega", "- 1.0) * alpha_star) / r.omega",
           "the logit estimate multiplies by the scale parameter"),
    Mutant(ESTIMATION, "if not 0.0 < r.e21_tilde < r.e2_tilde:", "if not 0.0 < r.e21_tilde <= r.e2_tilde:",
           "a share of 1 reaches the logarithm of 0"),
    Mutant(ESTIMATION, "if not 0.0 < r.omega < math.inf:", "if not 0.0 <= r.omega < math.inf:",
           "a zero gap passes the record check"),
    # the config stack
    Mutant(PRESETS, "            cp.remove_section(section)", "            pass",
           "a user switch key keeps the preset's keys of its section"),
    Mutant(PRESETS, 'if kind == "constant":', "if False:",
           "a constant rate the stack does not set is missing, not the study base's"),
    # the closed forms, each at its exact boundary
    Mutant(ANALYSIS, "return tr < 0.0 and det > 0.0", "return tr <= 0.0 and det > 0.0",
           "a centre (trace exactly 0) reads as asymptotically stable"),
    Mutant(ANALYSIS, "a1_applicable=rho_c < rho_tot", "a1_applicable=rho_c <= rho_tot",
           "a total density exactly at critical counts as overloaded"),
    Mutant(NFD, "cap + 1e-9 * cap", "cap + 1e-3 * cap",
           "a flow floor up to 0.1% above capacity is accepted"),
    # the step loop reads a -0.0 config value as +0.0
    Mutant(LOOP, "config.initial_hot_trips + 0.0", "config.initial_hot_trips",
           "a -0 initial HOT count writes -0 where an equal config writes 0"),
    Mutant(LOOP, "a, b = ctrl.a + 0.0, ctrl.b + 0.0", "a, b = ctrl.a, ctrl.b",
           "a -0 coefficient writes -0 where an equal config writes 0"),
    # the closed forms and the checks of their inputs
    Mutant(ANALYSIS, "        if self.L1 <= 0:\n", "        if False:\n",
           "a lane length of 0 or below reaches the loop matrix"),
    Mutant(ANALYSIS, "    if not 0.0 <= rho_tot <= 2.0 * rho_j:\n", "    if False:\n",
           "a total density outside [0, 2 rho_j] is characterized"),
    Mutant(ANALYSIS, "        if self.H <= 0:", "        if self.H < 0:",
           "a gap-price sensitivity of 0 divides by zero instead of being rejected"),
    Mutant(ANALYSIS, "p0 = (L1 * capacity(config.fd_hot) - e1 * D)",
           "p0 = (L1 * capacity(config.fd_hot) + e1 * D)",
           "the equilibrium share adds the HOV demand to the managed-lane capacity"),
    Mutant(ANALYSIS, "/ fd.c - 1.0 / config.fd_hot.u_f", "/ fd.c + 1.0 / config.fd_hot.u_f",
           "the gap intercept adds the HOT free-flow pace"),
    Mutant(ANALYSIS, "c.k1 + c.k3 / omega, c.k2 + c.k4 / omega", "c.k1 + c.k4 / omega, c.k2 + c.k3 / omega",
           "the effective gains swap k3 and k4"),
    Mutant(ANALYSIS, "g_c = scale * (2.0 * w * rho_j - rho_tot * w)",
           "g_c = scale * (w * rho_j - rho_tot * w)",
           "the both-congested outflow counts one jam density, not two"),
    # the fundamental diagram
    Mutant(NFD, "    if 0.0 > v:\n", "    if False:\n",
           "a speed past the jam density without a floor is negative"),
    Mutant(NFD, "params.c / rho > v:", "params.c / rho < v:",
           "the flow floor replaces every speed above it"),
    Mutant(NFD, "        return -params.w", "        return params.w",
           "the congested flow slope is +w"),
    Mutant(NFD, "params.rho_j / (params.u_f + params.w)", "params.rho_j / params.u_f",
           "the critical density leaves the wave speed out of its denominator"),
    # each choice model's toll line and its slope in p, and the logit VOT check
    Mutant(CHOICE, "return -self.mean * math.log(p), 0.0", "return self.mean * math.log(p), 0.0",
           "the exponential toll line has the wrong sign"),
    Mutant(CHOICE, "-self.mean / p, 0.0", "self.mean / p, 0.0",
           "the exponential line's slope in p has the wrong sign"),
    Mutant(CHOICE, "self.low + (1.0 - p) * (self.high - self.low)", "self.low + p * (self.high - self.low)",
           "the uniform toll line reads the share's lower tail"),
    Mutant(CHOICE, "0.0, self.low - self.high, 0.0", "0.0, self.high - self.low, 0.0",
           "the uniform line's slope in p has the wrong sign"),
    Mutant(CHOICE, "return self.pi_star, math.log", "return self.alpha_star, math.log",
           "the logit line's gap price is the scale, not the VOT"),
    Mutant(CHOICE, "math.log(1.0 / p - 1.0) / alpha", "math.log(1.0 / p - 1.0) * alpha",
           "the logit line's intercept multiplies by the scale"),
    Mutant(CHOICE, "-1.0 / (alpha * p * (1.0 - p))", "-1.0 / (alpha * p)",
           "the logit intercept's slope in p loses its 1 - p"),
    Mutant(CHOICE, "        if self.pi_star < 0:\n", "        if False:\n",
           "a negative logit VOT is accepted"),
    # the controller's checks
    Mutant(CONTROLLER, "min(self.k1, self.k2, self.k3, self.k4) <= 0", "min(self.k1, self.k2, self.k3) <= 0",
           "a gain k4 of 0 or below is accepted"),
    Mutant(CONTROLLER, "if self.toll_ceiling <= 0:", "if self.toll_ceiling < 0:",
           "a toll ceiling of 0 is accepted"),
    Mutant(CONTROLLER, "self.decimation >= 1", "self.decimation >= 0",
           "a decimation of 0 is accepted, and the controller never ticks"),
    # the command line's exit codes and where a warning goes
    Mutant(CLI, "EXIT_CONFIG = 1", "EXIT_CONFIG = 2",
           "a config error exits as a runtime abort"),
    Mutant(CLI, "EXIT_RUNTIME = 2", "EXIT_RUNTIME = 1",
           "a runtime abort exits as a config error"),
    Mutant(CLI, "EXIT_ESTIMATION = 3", "EXIT_ESTIMATION = 1",
           "an infeasible estimate exits as a config error"),
    Mutant(CLI, "return EXIT_BROKEN_PIPE", "return EXIT_OK",
           "a closed stdout exits 0"),
    Mutant(CLI, 'print(f"warning: {message}", file=sys.stderr)', 'print(f"warning: {message}")',
           "a warning goes to stdout, into what a caller reads as the result"),
]


def apply(text: str, mutant: Mutant) -> str:
    """``text`` with the mutant's one occurrence of ``old`` replaced by ``new``."""
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.file}: {mutant.old!r} occurs {text.count(mutant.old)} times, not once")
    return text.replace(mutant.old, mutant.new)


def first_failure(stdout: str) -> str | None:
    """The test id of the first ``FAILED`` or ``ERROR`` line of a pytest summary."""
    for line in stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    return None


def run_tier1(copy: str) -> tuple[int, str]:
    """Exit code and stdout of Tier-1 with ``-x`` in ``copy``."""
    env = {**os.environ, "PYTHONPATH": os.path.join(copy, "src")}
    proc = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout


def sweep() -> dict:
    """Run each of the ``MUTANTS`` not declared equivalent against Tier-1 in a copy of ``ROOT``."""
    out = {"killed": [], "survived": [], "equivalent": [], "wall_s": 0.0}
    t_start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "checkout")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
        for index, mutant in enumerate(MUTANTS):
            entry = {"index": index, **mutant._asdict()}
            if mutant.equivalent:
                out["equivalent"].append(entry)
                continue
            path = os.path.join(copy, mutant.file)
            with open(path, encoding="utf-8") as fh:
                original = fh.read()
            t0 = time.perf_counter()
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(apply(original, mutant))
                code, stdout = run_tier1(copy)
            finally:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(original)
            entry["seconds"] = round(time.perf_counter() - t0, 1)
            entry["exit"] = code
            entry["first_failure"] = first_failure(stdout)
            out["killed" if code != 0 else "survived"].append(entry)
            print(f"{index:2d} {'killed' if code else 'SURVIVED'} in {entry['seconds']} s: "
                  f"{mutant.reason}", file=sys.stderr)
    out["wall_s"] = round(time.perf_counter() - t_start, 1)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    result = sweep()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"killed {len(result['killed'])}, survived {len(result['survived'])}, "
          f"equivalent {len(result['equivalent'])} in {result['wall_s']} s")
    return 1 if result["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
