"""hotlanes benchmark: closed-loop runs of seeded workloads.

    python3 benchmark/run.py --workload closed-loop --seed 1 --seconds 25 --trace 0

One client, one operation at a time: each starts only after the previous one
finished and was checked.  The workloads (see ``workloads.generate``):

- closed-loop: library ``run()`` of 3 h constant-demand HOT scenarios,
  alternating UE and logit choice.  Plant, choice and controller work.
- compare-peak: ``compare_hov_hot()`` on a 1 h trapezoid pulse run to 1.5 h.
  Half the steps are HOV mode, and it is the only threaded path.
- records-io: the CLI pipeline ``run`` (records at every step) then
  ``estimate``, for UE and for logit.  Record emission and CSV I/O work.

``--trace 0`` runs operations for ``--seconds`` and prints the end-to-end
metrics.  ``--trace 1`` runs a fixed list of operations once untraced and
once traced (see ``tracing.py``) and prints the per-layer metrics; the
difference in wall time is the tracing overhead.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}.  The lines above it give each metric with its sample count and
tail percentile, the fail ratio, the environment, the exact overrides of
every scenario and the CSV digests; the full record, every operation
included, goes to ``benchmark/out/results/``.  Exits 2 without a result
when the checkout holds no ``src/hotlanes``, and 1 when set-up fails.
"""

import argparse
import functools
import hashlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# Side measurements are spread over the window, one round after each
# scenario operation, so their medians see the same machine as run_s does:
# a set-up probe (a fresh interpreter), and on workloads with no CLI
# operations of their own two rounds of the CLI probe.  A short window is
# topped up to these minimum counts afterwards.
MIN_SETUP_PROBES = 7
MIN_CLI_PROBES = 5
CLI_PROBE_ROUNDS = 2
ESTIMATES_PER_PROBE = 3  # the estimate op is short, so it is sampled more
MAIN_KIND = {"closed-loop": "run", "compare-peak": "compare", "records-io": "cli_run"}


def env_stamp() -> dict:
    """Where and on what the numbers were taken."""
    git_sha = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
        if proc.returncode == 0:
            git_sha = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "hotlanes")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            src_hash.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                src_hash.update(fh.read())
    return {
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "load1_start": os.getloadavg()[0],
        "calib_ms_start": calibration_ms(),
    }


def calibration_ms() -> float:
    """Median wall time of a fixed pure-Python loop [ms].

    Inside a virtual machine the load average shows only the guest's own
    processes; a host busy with other guests shows up here instead, as the
    same loop running slower.
    """
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(200_000):
            acc += i * 0.5
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000.0


def measure_setup(workload: str, seed: int) -> float:
    """Wall seconds from starting a fresh interpreter to its set-up being done."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), workload, str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        _, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()[-500:]}")
    return t1 - t0


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def median_of(values: list[float]) -> tuple[float, str, dict]:
    """A timing: its median, with the sample count and the tail percentile."""
    detail = {"n": len(values)}
    t = tail(values)
    if t:
        detail[f"p{t[0]}"] = t[1]
    return statistics.median(values), "s", detail


def operations(workload: str, runner, prepared, probe):
    """One cycle of the workload's operations, and the CLI probe cycle."""
    if workload == "records-io":
        ue, logit = prepared
        cycle = [functools.partial(runner.cli_run, ue), functools.partial(runner.estimate, ue),
                 functools.partial(runner.cli_run, logit), functools.partial(runner.estimate, logit)]
        return cycle, []
    op = runner.run if workload == "closed-loop" else runner.compare
    cycle = [functools.partial(op, p) for p in prepared]
    probe_cycle = [functools.partial(runner.cli_run, probe)]
    probe_cycle += [functools.partial(runner.estimate, probe)] * ESTIMATES_PER_PROBE
    return cycle, probe_cycle


def timed_window(workload, seed, seconds, cycle, probe_cycle):
    """Operations for ``seconds``, with the side measurements interleaved."""
    window, probes, setup_times = [], [], []
    ops = itertools.cycle(cycle)
    deadline = time.perf_counter() + seconds
    while not window or time.perf_counter() < deadline:
        window.append(next(ops)())
        if window[-1].kind == MAIN_KIND[workload]:
            setup_times.append(measure_setup(workload, seed))
            probes += [op() for op in probe_cycle * CLI_PROBE_ROUNDS]
    while len(setup_times) < MIN_SETUP_PROBES:
        setup_times.append(measure_setup(workload, seed))
    while probe_cycle and len(probes) < MIN_CLI_PROBES * len(probe_cycle):
        probes += [op() for op in probe_cycle]
    return window, probes, setup_times


def end_to_end(workload, window, probes, setup_times, rss_mb) -> dict:
    main = [r for r in window if r.kind == MAIN_KIND[workload]]
    cli_runs = [r.wall_s for r in window + probes if r.kind == "cli_run"]
    estimates = [r.wall_s for r in window + probes if r.kind == "estimate"]
    return {
        "sim_h_per_s": (sum(r.sim_h for r in main) / sum(r.wall_s for r in main), "sim_h/s",
                        {"n": len(main), "sim_h": sum(r.sim_h for r in main)}),
        "run_s": median_of([r.wall_s for r in main]),
        "cli_run_s": median_of(cli_runs),
        "estimate_s": median_of(estimates),
        "setup_s": median_of(setup_times),
        "peak_rss_mb": (rss_mb, "MB", {}),
    }


def per_layer(s, traced, overhead_s: float) -> dict:
    """Per-layer metrics from the traced pass; ratios state their base."""
    steps = sum(r.steps for r in traced)

    def per_step(*names):
        return (s.op_calls_of(*names) / steps, "calls/step")

    share = ("lane_choice.ue_share", "lane_choice.logit_share")
    est = ("estimation.estimate_cdf_point", "estimation.estimate_logit_vot")
    attempts = s.calls_of(*est)
    compare_s = s.total_of("scenario.compare_hov_hot")
    return {
        "nfd.speed.calls_per_step": per_step("nfd.speed"),
        "nfd.speed.self_s": (s.self_of("nfd.speed"), "s"),
        "nfd.classify_phase.calls": (s.calls_of("nfd.classify_phase"), "count"),
        "bathtub.step.calls_per_step": per_step("bathtub.step"),
        "bathtub.step.self_s": (s.self_of("bathtub.step"), "s"),
        "bathtub.exit_rate.calls_per_step": per_step("bathtub.exit_rate"),
        "bathtub.exit_rate.self_s": (s.self_of("bathtub.exit_rate"), "s"),
        "bathtub.density.calls_per_step": per_step("bathtub.density"),
        "bathtub.clamp_steps": (sum(r.clamp_steps for r in traced), "count"),
        "bathtub.dropped_veh": (sum(r.dropped_veh for r in traced), "veh"),
        "lane_choice.share.calls_per_step": per_step(*share),
        "lane_choice.share.self_s": (s.self_of(*share), "s"),
        "lane_choice.split_inflow.calls_per_step": per_step("lane_choice.split_inflow"),
        "controller.toll.calls_per_step": per_step("controller.toll"),
        "controller.update.calls_per_step": per_step("controller.update"),
        "controller.update.self_s": (s.self_of("controller.update"), "s"),
        "scenario.run.self_s": (s.self_of("scenario.run"), "s"),
        "scenario.records_per_step": (s.size_of("scenario.run") / steps, "records/step"),
        "scenario.write_csv.s": (s.total_of("scenario.write_csv"), "s"),
        "scenario.write_csv.bytes": (s.size_of("scenario.write_csv"), "B"),
        "scenario.read_csv.s": (s.total_of("scenario.read_csv"), "s"),
        "scenario.read_csv.rows": (s.size_of("scenario.read_csv"), "rows"),
        "scenario.metrics.s": (s.total_of("scenario.metrics"), "s"),
        "scenario.compare.overlap": (s.runs_in_compare_s / compare_s if compare_s else 0.0, "ratio"),
        "scenario.a1_warnings": (sum(r.a1_warnings for r in traced), "count"),
        "analysis.constant_equilibrium.s": (s.total_of("scenario.constant_equilibrium"), "s"),
        "analysis.stability_check.calls": (s.calls_of("analysis.stability_check"), "count"),
        "presets.apply_overrides.s": (s.total_of("presets.apply_overrides"), "s"),
        "cli.self_s": (s.self_of("cli.main"), "s"),
        "estimation.observations": (attempts, "count"),
        "estimation.useful_ratio": ((attempts - s.errors_of(*est)) / attempts if attempts else 0.0, "ratio"),
        "estimation.s": (s.total_of(*est, "estimation.pool_cdf_points"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.steps": (steps, "steps"),
        "trace.spans": (s.spans, "count"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hotlanes", "__init__.py")):
        print(f"error: no hotlanes package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    try:
        return measure(args)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:  # BenchError included
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1


def measure(args) -> int:
    import tracing
    import workloads

    env = env_stamp()
    t0 = time.perf_counter()
    prepared, probe = workloads.set_up(args.workload, args.seed)
    inprocess_setup_s = time.perf_counter() - t0
    measure_setup(args.workload, args.seed)  # fails fast; also warms the file cache

    for sub in ("results", "csv"):
        os.makedirs(os.path.join(OUT_DIR, sub), exist_ok=True)
    runner = workloads.Runner(os.path.join(OUT_DIR, "csv"))
    cycle, probe_cycle = operations(args.workload, runner, prepared, probe)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "inprocess_setup_s": inprocess_setup_s,
              "scenarios": [{"name": p.scenario.name, "preset": p.scenario.preset,
                             "overrides": list(p.scenario.overrides), "p0": p.p0}
                            for p in prepared + ([probe] if probe else [])]}

    if not args.trace:
        window, probes, setup_times = timed_window(
            args.workload, args.seed, args.seconds, cycle, probe_cycle)
        done = window + probes
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(args.workload, window, probes, setup_times, rss_mb)
    else:
        fixed = cycle[:4] if args.workload == "records-io" else cycle[:1] + probe_cycle
        untraced = [op() for op in fixed]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.span("setup"):
                workloads.set_up(args.workload, args.seed)
            traced = []
            for i, op in enumerate(fixed, 1):
                tracer.op = i
                with tracer.span("op"):
                    traced.append(op())
        finally:
            tracer.restore()
        overhead_s = sum(r.wall_s for r in traced) - sum(r.wall_s for r in untraced)
        done = untraced + traced
        metrics = per_layer(tracing.SpanSummary(tracer), traced, overhead_s)
        spans_path = os.path.join(OUT_DIR, f"trace-{args.workload}.spans")
        tracer.write(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)

    failed = sum(not r.ok for r in done)
    env["load1_end"] = os.getloadavg()[0]
    env["calib_ms_end"] = calibration_ms()
    record.update({
        "csv_sha256": runner.digests,
        "attempted": len(done), "failed": failed, "fail_ratio": failed / len(done),
        "a1_warnings": sum(r.a1_warnings for r in done),
        "metrics": {k: {"value": v, "unit": u, **(d[0] if d else {})} for k, (v, u, *d) in metrics.items()},
        "operations": [vars(r) for r in done],
    })
    results_path = os.path.join(
        OUT_DIR, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(done)} operations, "
          f"{failed} failed, {record['a1_warnings']} A1 warnings captured")
    print("env " + json.dumps(env))
    for p in prepared + ([probe] if probe else []):
        print(f"scenario {p.scenario.name}: {' '.join(p.scenario.cli_args())}")
    for name, digest in runner.digests.items():
        print(f"csv_sha256 {name} {digest}")
    for r in [r for r in done if not r.ok][:10]:
        print(f"FAILED {r.kind} {r.scenario}: {'; '.join(r.problems[:3])}")
    print(f"metric fail_ratio {failed / len(done):.6g} ratio attempted={len(done)} failed={failed}")
    for name, (value, unit, *detail) in metrics.items():
        extra = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in (detail[0] if detail else {}).items())
        print(f"metric {name} {value:.6g} {unit} {extra}".rstrip())
    print(f"results {os.path.relpath(results_path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, *_) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
