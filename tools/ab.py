"""Alternating parent/change pairs of ``benchmark/run.py``, summarised as a BENCH file.

    python3 tools/ab.py PARENT_DIR CHANGE_DIR --workload records-io --seed 7 \
        --pairs 10 --seconds 25 --out BENCH_13.json

Each directory is a clean git checkout of one version, with a commit: the
script exits 1, naming the directory, when ``git rev-parse HEAD`` finds none
there, so every output file names both sides by commit.  Pair i runs
``benchmark/run.py`` unchanged in both, the parent first in odd pairs and the
change first in even pairs, so a drift of the host's speed falls on both
sides alike.  The last stdout line of each run is its JSON result.

The output file holds the shas, the line count of each side's
``src/hotlanes/*.py`` (the files the source digest reads), each side's
per-step work counts of the step loop from ``tools/counts.py``, the Python
version, the CPU count, whether the host writes bytecode
(``PYTHONDONTWRITEBYTECODE`` and ``sys.flags.dont_write_bytecode``; without
it every fresh interpreter compiles ``src/`` again, which ``setup_s``
carries), the median wall time of 5 bare ``python -c pass`` starts, every
run, and per (workload, seed) and metric the medians, quartiles, the
number of pairs the change won and ``gain_shown``, the rule a claimed gain
must meet: the change wins at least 9 of 10 pairs, ties counting for neither
side, and its median beats the parent's by more than the parent's
interquartile range.  A metric with a
``bound`` in the parent's ``BENCHMARK.json`` also gets a no-regression
verdict: ``worse`` when the change's median is worse than the parent's by
more than bound x the parent median; else ``unresolved`` when the parent's
quartiles lie further apart than that, unless every change run beats every
parent run; else ``none``.

When ``--out`` exists its runs of other workloads or seeds are kept, and runs
of the same workload and seed are replaced once every pair has run, so one
file can gather several series.  When a run fails the script exits non-zero:
if ``--out`` held no series for that workload and seed, the runs gathered so
far are written with their summary; if it held one, the file is left as it
was.  Stdlib only.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def git_sha(root: str) -> str | None:
    """HEAD of the checkout at ``root``, or None when ``root`` is not a git checkout with a commit."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(os.path.abspath(root))},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def sources(root: str) -> list[tuple[str, bytes]]:
    """Name and bytes of each ``src/hotlanes/*.py`` module of the checkout at ``root``, by name."""
    pkg = os.path.join(root, "src", "hotlanes")
    out = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                out.append((name, fh.read()))
    return out


def src_sha256(root: str) -> str:
    """Digest of the package sources, as ``benchmark/run.py`` computes it."""
    digest = hashlib.sha256()
    for name, data in sources(root):
        digest.update(name.encode())
        digest.update(data)
    return digest.hexdigest()


def src_lines(root: str) -> int:
    """Lines of the package sources that :func:`src_sha256` reads, counted as ``wc -l`` does."""
    return sum(data.count(b"\n") for _, data in sources(root))


def bare_start_s() -> float:
    """Median wall time [s] of 5 bare ``python -c pass`` runs, one at a time."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def step_counts(root: str) -> dict:
    """``tools/counts.py``'s counts of the step loop of the checkout at ``root``, in a fresh interpreter."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "counts.py")
    proc = subprocess.run([sys.executable, script, "--root", root],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


class RunFailed(RuntimeError):
    """A ``benchmark/run.py`` run exited non-zero or printed no JSON result."""


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result that one ``benchmark/run.py`` run in ``root`` prints last."""
    cmd = [sys.executable, os.path.join("benchmark", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{root}: {' '.join(cmd)} exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-500:]}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise RunFailed(f"{root}: {' '.join(cmd)} printed no JSON result: {lines[-1][:500]}") from None


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def regression(parent: list[float], change: list[float], way: str, bound: float) -> str:
    """``worse``, ``unresolved`` or ``none``: the change against the parent under ``bound``."""
    p_stats = quartiles(parent)
    allowed = bound * abs(p_stats["median"])
    worse_by = quartiles(change)["median"] - p_stats["median"]
    if (worse_by if way == "lower" else -worse_by) > allowed:
        return "worse"
    beats_all = max(change) < min(parent) if way == "lower" else min(change) > max(parent)
    if p_stats["q3"] - p_stats["q1"] > allowed and not beats_all:
        return "unresolved"
    return "none"


def summarise(runs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per metric: both sides' quartiles, the change's wins, the median ratio, whether
    a gain is shown and, for a metric in ``bounds``, the no-regression verdict."""
    by_pair = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
    pairs = [p for _, p in sorted(by_pair.items()) if len(p) == 2]
    out = {}
    for name in sorted(pairs[0]["parent"]["metrics"]) if pairs else []:
        unit = pairs[0]["parent"]["metrics"][name]["unit"]
        way = better.get(name, "higher" if unit.endswith("/s") else "lower")
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        wins = sum((c > q) if way == "higher" else (c < q) for q, c in zip(parent, change))
        p_stats, c_stats = quartiles(parent), quartiles(change)
        iqr = p_stats["q3"] - p_stats["q1"]
        gap = c_stats["median"] - p_stats["median"]
        out[name] = {
            "unit": unit, "better": way, "parent": p_stats, "change": c_stats,
            "change_wins": wins, "pairs": len(pairs),
            "change_over_parent_median": c_stats["median"] / p_stats["median"],
            "median_gap_over_parent_iqr": abs(gap) / iqr if iqr else None,
            "gain_shown": 10 * wins >= 9 * len(pairs)
                          and (gap if way == "higher" else -gap) > iqr,
        }
        if bounds and name in bounds:
            out[name]["regression"] = regression(parent, change, way, bounds[name])
    for key, field in (("failed_operations", "failed"), ("attempted_operations", "attempted")):
        out[key] = {side: sum(p[side][field] for p in pairs) for side in ("parent", "change")}
    out["incorrect_runs"] = {side: sum(not p[side]["correct"] for p in pairs)
                             for side in ("parent", "change")}
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--what", help="what the change is, stored in the output file")
    args = ap.parse_args(argv)

    sides = {"parent": args.parent_dir, "change": args.change_dir}
    shas = {side: git_sha(root) for side, root in sides.items()}
    for side, root in sides.items():
        if shas[side] is None:
            print(f"{root}: the {side} side has no git commit", file=sys.stderr)
            return 1
    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc.update({
        "what": args.what or doc.get("what", ""),
        "command": "python3 benchmark/run.py --workload WORKLOAD --seed SEED --seconds SECONDS",
        "order": "odd pairs run the parent first, even pairs the change first",
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "parent_src_sha256": src_sha256(args.parent_dir),
        "change_src_sha256": src_sha256(args.change_dir),
        "parent_src_lines": src_lines(args.parent_dir),
        "change_src_lines": src_lines(args.change_dir),
        "parent_counts": step_counts(args.parent_dir),
        "change_counts": step_counts(args.change_dir),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "dont_write_bytecode": sys.flags.dont_write_bytecode,
        "bare_start_s": bare_start_s(),
    })
    with open(os.path.join(args.parent_dir, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end if "bound" in m}

    key = (args.workload, args.seed)
    kept = [r for r in doc.get("runs", []) if (r["workload"], r["seed"]) != key]
    had_series = len(kept) < len(doc.get("runs", []))
    new = []
    failure = None
    try:
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                result = run_once(sides[side], args.workload, args.seed, args.seconds)
                new.append({"pair": pair, "side": side, "workload": args.workload,
                            "seed": args.seed, "seconds": args.seconds, "result": result})
                print(f"pair {pair} {side}: {json.dumps(result['metrics'])}", file=sys.stderr)
    except RunFailed as exc:
        failure = str(exc)
    if failure and had_series:
        print(f"run failed, {args.out} is left as it was: {failure}", file=sys.stderr)
        return 1
    runs = doc["runs"] = kept + new

    series = {}
    for r in runs:
        series.setdefault((r["workload"], r["seed"]), []).append(r)
    doc["summary"] = {f"{w} seed {s}": summarise(rs, better, bounds)
                      for (w, s), rs in series.items()}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    if failure:
        print(f"run failed, {args.out} holds the runs before it: {failure}", file=sys.stderr)
        return 1
    print(json.dumps(doc["summary"][f"{args.workload} seed {args.seed}"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
