"""Command line interface: run scenarios, analyze equilibria, estimate VOT.

Exit codes: 0 success, 1 configuration error (a bad command line is one),
2 runtime abort (managed-lane gridlock, or a state that overflows the
floats), 3 estimation infeasible, 141 (128 + SIGPIPE) when the reader of
stdout has closed it, with nothing printed.
"""

import argparse
import math
import os
import statistics
import sys
import warnings

from . import analysis, estimation
from .bathtub import HotGridlockError, SaturationStats
from .nfd import capacity, critical_density
from .presets import PRESETS, apply_overrides, section_help
from .scenario import (
    ConfigError,
    compare_hov_hot,
    csv_rows,
    iter_csv,
    iter_run,
    metrics,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_ESTIMATION = 3
EXIT_BROKEN_PIPE = 141


def _add_config_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI scenario file")
    sub.add_argument(
        "--preset",
        help=f"named preset used as the base configuration: {', '.join(sorted(PRESETS))}",
    )
    sub.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a single config value (repeatable)",
    )


def _resolve_config(args):
    if not args.config and not args.preset:
        raise ConfigError("provide --config and/or --preset")
    return apply_overrides(args.config, args.preset, args.overrides)


def _num(x: float, decimals: int) -> str:
    return f"{x:.{decimals}f}" if abs(x) < 1e15 else f"{x:.6g}"  # fixed point prints every digit


def _cmd_run(args) -> int:
    config = _resolve_config(args)
    stats = SaturationStats()
    m = metrics(csv_rows(iter_run(config, stats), args.out), config.mean_trip_distance)
    print(f"wrote {m.records} records to {args.out}")
    print(
        f"served: managed {_num(m.hot.served, 1)} veh, gp {_num(m.gp.served, 1)} veh; "
        f"delay: managed {_num(m.hot.total_delay, 2)} veh h, gp {_num(m.gp.total_delay, 2)} veh h"
    )
    print(f"max gap {m.max_omega:.6g} h/km, revenue ${_num(m.revenue, 2)}")
    if stats.any_clamped:
        print(
            f"trip count clamped at 0 or the jam cap: managed {stats.hot_clamp_steps} steps, "
            f"gp {stats.gp_clamp_steps} steps; dropped at the jam cap: managed "
            f"{_num(stats.hot_dropped, 1)} veh, gp {_num(stats.gp_dropped, 1)} veh"
        )
    return EXIT_OK


def _cmd_analyze(args) -> int:
    at_time = args.at_time
    if not math.isfinite(at_time):
        raise ConfigError(f"--at-time must be finite, got {at_time}")
    config = _resolve_config(args)
    rho_c = critical_density(config.fd_hot)
    cap = capacity(config.fd_hot)
    print(f"critical density: {rho_c:.6g} veh/km/lane, capacity: {cap:.6g} veh/h/lane")
    failures = config.a1_warnings()
    for msg in failures:
        print(f"warning: {msg}")
    if config.demand.kind != "constant":
        print("demand profile is time-varying; equilibrium analysis needs constant demand")
        return EXIT_OK
    if failures:
        print("no equilibrium: the overload (A1) conditions above fail")
        return EXIT_OK
    pred = analysis.constant_equilibrium(config)
    print(f"equilibrium paying share p0 = {pred.p0:.6g}")
    if pred.regime != "linear":
        print("no flow floor: gp lanes gridlock in finite time under constant overload")
        print("no gap line to linearize on: the stability analysis needs a flow floor")
        return EXIT_OK
    if not all(map(math.isfinite, (pred.delta2_rate, pred.omega0, pred.omega1))):
        raise ConfigError("no valid linearization at the equilibrium: the gap line is not finite")
    print(
        f"gp queue growth {pred.delta2_rate:.6g} veh/h on the flow floor; "
        f"gap line omega(t) = {pred.omega0:.6g} t + {pred.omega1:.6g}"
    )
    omega = pred.omega0 * at_time + pred.omega1
    if not omega > 0.0:
        raise ConfigError(f"--at-time {at_time:g} gives gap {omega:g}; need a positive gap")
    # at the equilibrium itself: lam = 0 is the diagram's kink, xi = 0 puts the share at p0
    try:
        sides = [(label, analysis.loop_matrix(config, 0.0, 0.0, omega, side))
                 for label, side in (("under-critical", "left"), ("over-critical", "right"))]
    except ValueError as exc:
        raise ConfigError(f"no valid linearization at the equilibrium: {exc}") from None
    for label, sysm in sides:
        eig = ", ".join(f"{z.real:.4g}{z.imag:+.4g}j" for z in sysm.eigenvalues)
        verdict = "stable" if sysm.stable else "unstable"
        print(f"{label} (lam=0, p=p0): H={sysm.H:.6g}, J={sysm.J:.6g}, K1={sysm.K1:.6g}, "
              f"K2={sysm.K2:.6g}, eigenvalues [{eig}] -> {verdict}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    bins, alpha_star = args.bins, args.alpha_star
    if bins < 1:
        raise ConfigError(f"--bins must be at least 1, got {bins}")
    if not (math.isfinite(alpha_star) and alpha_star > 0):
        raise ConfigError(f"--alpha-star must be positive and finite, got {alpha_star}")
    ue = args.model == "ue"
    found = []
    for row, r in enumerate(iter_csv(args.records), 1):
        try:
            found.append(estimation.estimate_cdf_point(r) if ue
                         else estimation.estimate_logit_vot(r, alpha_star))
        except estimation.EstimationError:
            continue
        except ValueError as exc:
            raise ConfigError(f"{args.records}, row {row} (t={r.t:.9g}): {exc}") from None
    if not found:
        need = "positive gap and SOV demand" if ue else "an interior paying share"
        print(f"no estimable observations (need {need})")
        return EXIT_ESTIMATION
    if ue:
        print("vot_dollars_per_h,cdf_estimate,count")
        for x, f_hat, count in estimation.pool_cdf_points(found, num_bins=bins):
            print(f"{x:.9g},{f_hat:.9g},{count}")
        return EXIT_OK
    n = len(found)
    mean = math.fsum(v / n for v in found)  # finite votes give a finite mean, even near 1e308
    spread = statistics.pstdev(found) if n > 1 else 0.0
    print(f"common VOT estimate: {mean:.6g} $/h over {n} observations (sd {spread:.3g})")
    return EXIT_OK


def _cmd_compare(args) -> int:
    config = _resolve_config(args)
    result = compare_hov_hot(config)
    for label, m in (("HOV (no pricing)", result.hov), ("HOT (priced)", result.hot)):
        print(
            f"{label}: total delay {_num(m.total_delay, 2)} veh h, managed served "
            f"{_num(m.hot.served, 1)} veh, gp served {_num(m.gp.served, 1)} veh, "
            f"max gap {m.max_omega:.6g} h/km, revenue ${_num(m.revenue, 2)}"
        )
    print(
        f"pricing saves {_num(result.delay_saved, 2)} veh h of delay, serves "
        f"{_num(result.managed_lane_served_gain, 1)} more trips in the managed lanes, "
        f"peak gap ratio (HOV/HOT) {result.peak_gap_ratio:.3g}"
    )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are config errors (exit 1), subcommands included."""

    def error(self, message):
        raise ConfigError(f"{message}\n{self.format_usage().rstrip()}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hotlanes",
        description="Managed-lane dynamic pricing simulator",
        epilog=section_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write a record CSV")
    _add_config_args(p_run)
    p_run.add_argument("--out", required=True, help="output CSV path")
    p_run.set_defaults(func=_cmd_run)

    p_an = sub.add_parser("analyze", help="equilibrium and stability predictions")
    _add_config_args(p_an)
    p_an.add_argument(
        "--at-time", type=float, default=2.0,
        help="evaluation time [h] for the gap-dependent sensitivities",
    )
    p_an.set_defaults(func=_cmd_analyze)

    p_est = sub.add_parser("estimate", help="recover VOT information from a record CSV")
    p_est.add_argument("--records", required=True, help="CSV produced by the run command")
    p_est.add_argument("--model", choices=("ue", "logit"), required=True)
    p_est.add_argument("--alpha-star", type=float, default=1.0, help="logit scale parameter")
    p_est.add_argument("--bins", type=int, default=40, help="abscissa bins for CDF pooling")
    p_est.set_defaults(func=_cmd_estimate)

    p_cmp = sub.add_parser("compare", help="run HOV and HOT modes and compare metrics")
    _add_config_args(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def _show_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    # the filters in force still decide: an ignored warning prints nothing, and
    # one turned into an error is a config error
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            args = _PARSER.parse_args(argv)
            status = args.func(args)
            sys.stdout.flush()  # a closed pipe raises here, not at interpreter shutdown
            return status
        except BrokenPipeError:  # fd 1 on devnull, so the flush at shutdown cannot fail again
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            return EXIT_BROKEN_PIPE
        except (ConfigError, OSError, Warning) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except (HotGridlockError, OverflowError) as exc:
            print(f"runtime abort: {exc}", file=sys.stderr)
            return EXIT_RUNTIME


_PARSER = build_parser()  # built once per process; main only parses with it

if __name__ == "__main__":
    sys.exit(main())
