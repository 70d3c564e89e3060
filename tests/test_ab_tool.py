"""``tools/ab.py``: the summary of paired benchmark runs, and a series cut by a failed run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from hotlanes.presets import PRESETS

ROOT = Path(__file__).resolve().parent.parent
_PATH = ROOT / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab_tool", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

BETTER = {"run_s": "lower", "sim_h_per_s": "higher"}


def result(run_s, sim_h_per_s, correct=True, failed=0, attempted=10):
    return {
        "metrics": {"run_s": {"value": run_s, "unit": "s"},
                    "sim_h_per_s": {"value": sim_h_per_s, "unit": "sim_h/s"}},
        "correct": correct, "failed": failed, "attempted": attempted,
    }


def pair(n, parent, change):
    return [{"pair": n, "side": "parent", "result": parent},
            {"pair": n, "side": "change", "result": change}]


def test_wins_follow_each_metrics_better():
    runs = (pair(1, result(2.0, 10.0), result(1.0, 11.0))   # change wins both
            + pair(2, result(2.0, 10.0), result(3.0, 9.0))  # parent wins both
            + pair(3, result(2.0, 10.0), result(1.5, 9.5)))  # change wins run_s only
    out = ab.summarise(runs, BETTER)
    assert out["run_s"]["better"] == "lower" and out["run_s"]["change_wins"] == 2
    assert out["sim_h_per_s"]["better"] == "higher" and out["sim_h_per_s"]["change_wins"] == 1
    assert out["run_s"]["pairs"] == 3


def test_unlisted_metric_takes_its_way_from_the_unit():
    out = ab.summarise(pair(1, result(2.0, 10.0), result(1.0, 11.0)), {})
    assert out["run_s"]["better"] == "lower"
    assert out["sim_h_per_s"]["better"] == "higher"


def test_quartiles_of_one_run():
    assert ab.quartiles([4.0]) == {"median": 4.0, "q1": 4.0, "q3": 4.0, "n": 1}


def test_quartiles_of_several_runs():
    q = ab.quartiles([5.0, 1.0, 3.0, 2.0, 4.0])
    assert q == {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    q = ab.quartiles([1.0, 3.0])
    assert q["median"] == 2.0 and q["q1"] == 1.5 and q["q3"] == 2.5 and q["n"] == 2


def test_gap_over_iqr():
    runs = []
    for n, parent_s in enumerate((1.0, 2.0, 3.0), 1):
        runs += pair(n, result(parent_s, 5.0), result(0.5, 6.0))
    out = ab.summarise(runs, BETTER)
    # parent run_s quartiles 1.5, 2, 2.5: the medians differ by 1.5 IQRs
    assert out["run_s"]["median_gap_over_parent_iqr"] == pytest.approx(1.5)
    assert out["run_s"]["change_over_parent_median"] == pytest.approx(0.25)
    # every parent sim_h_per_s is 5.0: the IQR is 0, and the ratio is null
    assert out["sim_h_per_s"]["median_gap_over_parent_iqr"] is None


def test_unpaired_runs_are_dropped():
    runs = pair(1, result(2.0, 10.0), result(1.0, 11.0))
    runs.append({"pair": 2, "side": "parent", "result": result(100.0, 1.0)})
    out = ab.summarise(runs, BETTER)
    assert out["run_s"]["pairs"] == 1
    assert out["run_s"]["parent"]["median"] == 2.0


def test_incorrect_runs_and_failed_operations_are_counted():
    runs = (pair(1, result(2.0, 10.0, correct=False, failed=1), result(1.0, 11.0))
            + pair(2, result(2.0, 10.0), result(1.0, 11.0, correct=False, failed=3)))
    out = ab.summarise(runs, BETTER)
    assert out["incorrect_runs"] == {"parent": 1, "change": 1}
    assert out["failed_operations"] == {"parent": 1, "change": 3}
    assert out["attempted_operations"] == {"parent": 20, "change": 20}


def test_no_pairs_summarise_to_counts_only():
    out = ab.summarise([{"pair": 1, "side": "parent", "result": result(1.0, 1.0)}], BETTER)
    assert set(out) == {"failed_operations", "attempted_operations", "incorrect_runs"}


def commit(root):
    """Make ``root`` a git repository whose one commit holds the files in it."""
    git = ["git", "-c", "user.name=ab", "-c", "user.email=ab@example.invalid"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "--allow-empty", "-m", "checkout"]):
        subprocess.run([*git, *args], cwd=root, check=True, capture_output=True)


def checkouts(tmp_path):
    """Two committed checkouts without a package, the parent's with a BENCHMARK.json."""
    dirs = {}
    for side in ("parent", "change"):
        root = tmp_path / side
        (root / "src" / "hotlanes").mkdir(parents=True)
        dirs[side] = str(root)
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "run_s", "better": "lower"},
                        {"name": "sim_h_per_s", "better": "higher"}]}))
    for root in dirs.values():
        commit(root)
    return dirs


def fake_runs(monkeypatch, dirs, fail_at=None):
    """Replace ``run_once``: the change runs in 1 s, the parent in 2 s; run ``fail_at`` fails.

    The bare interpreter probe reads 0.05 s without starting one, and the step
    counts of a checkout are ``{"root": root}``.
    """
    calls = []
    monkeypatch.setattr(ab, "bare_start_s", lambda: 0.05)
    monkeypatch.setattr(ab, "parallel_ratio", lambda: 1.0)
    monkeypatch.setattr(ab, "step_counts", lambda root: {"root": root})

    def fake_run_once(root, workload, seed, seconds):
        calls.append(root)
        if len(calls) == fail_at:
            raise ab.RunFailed(f"{root}: exited 1")
        return result(1.0 if root == dirs["change"] else 2.0, 10.0)

    monkeypatch.setattr(ab, "run_once", fake_run_once)


def run_main(dirs, out, workload, pairs):
    return ab.main([dirs["parent"], dirs["change"], "--workload", workload,
                    "--pairs", str(pairs), "--out", str(out)])


@pytest.mark.parametrize("side", ["parent", "change"])
@pytest.mark.parametrize("state", ["no repository", "no commit"])
def test_a_side_without_a_commit_is_refused(tmp_path, monkeypatch, capsys, side, state):
    dirs = checkouts(tmp_path)
    bare = tmp_path / "bare"
    (bare / "src" / "hotlanes").mkdir(parents=True)
    if state == "no commit":
        subprocess.run(["git", "init", "-q"], cwd=bare, check=True)
    dirs[side] = str(bare)
    fake_runs(monkeypatch, dirs)
    out = tmp_path / "BENCH.json"
    assert run_main(dirs, out, "closed-loop", 1) == 1
    assert capsys.readouterr().err == f"{bare}: the {side} side has no git commit\n"
    assert not out.exists()


def test_header_names_each_side_by_its_commit(tmp_path, monkeypatch):
    dirs = checkouts(tmp_path)
    fake_runs(monkeypatch, dirs)
    out = tmp_path / "BENCH.json"
    assert run_main(dirs, out, "closed-loop", 1) == 0
    doc = json.loads(out.read_text())
    for side in ("parent", "change"):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=dirs[side], check=True,
                              capture_output=True, text=True).stdout.strip()
        assert doc[f"{side}_sha"] == head and len(head) == 40


def test_failed_run_keeps_the_runs_before_it(tmp_path, monkeypatch, capsys):
    dirs = checkouts(tmp_path)
    fake_runs(monkeypatch, dirs, fail_at=3)  # the first run of pair 2
    out = tmp_path / "BENCH.json"
    assert run_main(dirs, out, "closed-loop", 3) == 1
    assert "run failed" in capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert [(r["pair"], r["side"]) for r in doc["runs"]] == [(1, "parent"), (1, "change")]
    summary = doc["summary"]["closed-loop seed 7"]
    assert summary["run_s"]["pairs"] == 1 and summary["run_s"]["change_wins"] == 1


def test_failed_rerun_leaves_a_stored_series_as_it_was(tmp_path, monkeypatch, capsys):
    dirs = checkouts(tmp_path)
    out = tmp_path / "BENCH.json"
    fake_runs(monkeypatch, dirs)
    assert run_main(dirs, out, "closed-loop", 10) == 0
    assert run_main(dirs, out, "records-io", 2) == 0
    before = out.read_bytes()
    fake_runs(monkeypatch, dirs, fail_at=3)
    assert run_main(dirs, out, "closed-loop", 10) == 1
    assert "left as it was" in capsys.readouterr().err
    assert out.read_bytes() == before
    doc = json.loads(before)
    assert doc["summary"]["closed-loop seed 7"]["run_s"]["pairs"] == 10


def test_rerun_replaces_its_series_and_keeps_the_others(tmp_path, monkeypatch):
    dirs = checkouts(tmp_path)
    out = tmp_path / "BENCH.json"
    fake_runs(monkeypatch, dirs)
    assert run_main(dirs, out, "closed-loop", 10) == 0
    assert run_main(dirs, out, "records-io", 2) == 0
    assert run_main(dirs, out, "closed-loop", 3) == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["closed-loop seed 7"]["run_s"]["pairs"] == 3
    assert doc["summary"]["records-io seed 7"]["run_s"]["pairs"] == 2
    assert len(doc["runs"]) == 2 * (3 + 2)


def series(parent_runs, change_runs):
    """Pairs of ``run_s`` values; ``sim_h_per_s`` is held at 10 on both sides."""
    runs = []
    for n, (p, c) in enumerate(zip(parent_runs, change_runs), 1):
        runs += pair(n, result(p, 10.0), result(c, 10.0))
    return runs


def verdict(parent_runs, change_runs, bound=0.25):
    return ab.summarise(series(parent_runs, change_runs), BETTER, {"run_s": bound})["run_s"]


def test_regression_worse_when_the_median_moves_past_the_bound():
    # parent median 1.0, change median 1.3: worse by 30% of the parent median, bound 25%
    assert verdict([0.99, 1.0, 1.01], [1.29, 1.3, 1.31])["regression"] == "worse"
    # the same gap for a higher-is-better metric is worse the other way round
    runs = []
    for n, (p, c) in enumerate(zip([10.0, 10.1, 9.9], [7.0, 7.1, 6.9]), 1):
        runs += pair(n, result(1.0, p), result(1.0, c))
    out = ab.summarise(runs, BETTER, {"sim_h_per_s": 0.25, "run_s": 0.25})
    assert out["sim_h_per_s"]["regression"] == "worse"
    assert out["run_s"]["regression"] == "none"


def test_regression_unresolved_when_the_parent_spreads_wider_than_the_bound():
    # parent quartiles 0.75 and 1.25: an IQR of 0.5 against an allowed 0.25
    parent, change = [0.5, 1.0, 1.5], [0.9, 1.1, 1.0]
    assert verdict(parent, change)["regression"] == "unresolved"
    # unless every change run beats every parent run
    assert verdict(parent, [0.1, 0.2, 0.3])["regression"] == "none"


def test_regression_none_within_the_bound():
    assert verdict([0.99, 1.0, 1.01], [1.1, 1.2, 1.15])["regression"] == "none"
    assert verdict([0.99, 1.0, 1.01], [0.5, 0.6, 0.55])["regression"] == "none"
    # a metric without a bound gets no verdict
    assert "regression" not in ab.summarise(series([1.0], [2.0]), BETTER)["run_s"]


def test_gain_shown_needs_nine_wins_in_ten_and_a_gap_past_the_parent_iqr():
    parent = [2.0, 2.1, 2.2, 2.3, 2.4] * 2  # quartiles 2.1 and 2.3

    def shown(change):
        return ab.summarise(series(parent, change), BETTER)["run_s"]["gain_shown"]

    assert shown([1.0] * 10)
    # a tie counts for neither side: 9 wins in 10 pairs still meet the rule, 8 do not
    assert shown([1.0] * 9 + [parent[9]])
    assert not shown([1.0] * 8 + [3.0] * 2)
    # every pair won, but the medians differ by 0.1, inside the parent's IQR of 0.2
    assert not shown([p - 0.1 for p in parent])
    # sim_h_per_s ties in every pair
    assert not ab.summarise(series(parent, [1.0] * 10), BETTER)["sim_h_per_s"]["gain_shown"]


def test_main_reads_the_bounds_next_to_better(tmp_path, monkeypatch):
    dirs = checkouts(tmp_path)
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.25},
                        {"name": "sim_h_per_s", "better": "higher"}]}))
    fake_runs(monkeypatch, dirs)  # the change runs in 1 s, the parent in 2 s
    out = tmp_path / "BENCH.json"
    assert run_main(dirs, out, "closed-loop", 3) == 0
    summary = json.loads(out.read_text())["summary"]["closed-loop seed 7"]
    assert summary["run_s"]["regression"] == "none"
    assert "regression" not in summary["sim_h_per_s"]


def test_header_stamps_bytecode_writing_and_the_bare_start(tmp_path, monkeypatch):
    real_probe, real_run = ab.bare_start_s, ab.subprocess.run
    dirs = checkouts(tmp_path)
    fake_runs(monkeypatch, dirs)
    monkeypatch.setattr(ab, "bare_start_s", real_probe)
    starts = []

    def counting_run(cmd, **kwargs):
        if cmd[1:] == ["-c", "pass"]:
            starts.append(cmd[0])
        return real_run(cmd, **kwargs)

    monkeypatch.setattr(ab.subprocess, "run", counting_run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    out = tmp_path / "BENCH.json"
    assert run_main(dirs, out, "closed-loop", 1) == 0
    doc = json.loads(out.read_text())
    assert doc["PYTHONDONTWRITEBYTECODE"] == "1"
    assert doc["dont_write_bytecode"] == sys.flags.dont_write_bytecode
    assert starts == [sys.executable] * 5
    assert 0.0 < doc["bare_start_s"] < 60.0


def test_header_stamps_the_parallel_headroom(tmp_path, monkeypatch):
    real_probe, real_popen = ab.parallel_ratio, ab.subprocess.Popen
    dirs = checkouts(tmp_path)
    fake_runs(monkeypatch, dirs)
    monkeypatch.setattr(ab, "parallel_ratio", real_probe)
    monkeypatch.setattr(ab, "SPIN", "for _ in range(30_000): pass")  # keep the probe short here
    children = []

    def counting_popen(cmd, *args, **kwargs):
        if cmd[1:2] == ["-c"]:
            children.append(cmd)
        return real_popen(cmd, *args, **kwargs)

    monkeypatch.setattr(ab.subprocess, "Popen", counting_popen)
    out = tmp_path / "BENCH.json"
    assert run_main(dirs, out, "closed-loop", 1) == 0
    doc = json.loads(out.read_text())
    # 3 tries, each one child alone and then two at once
    assert children == [[sys.executable, "-c", "for _ in range(30_000): pass"]] * 9
    assert 0.0 < doc["parallel_ratio"] < 60.0


def test_a_failed_spin_child_stops_the_probe(monkeypatch):
    monkeypatch.setattr(ab, "SPIN", "raise SystemExit(3)")
    with pytest.raises(RuntimeError, match="child failed"):
        ab.parallel_ratio()


def test_header_counts_the_source_lines_of_each_side(tmp_path, monkeypatch):
    dirs = checkouts(tmp_path)
    parent, change = (Path(dirs[side]) / "src" / "hotlanes" for side in ("parent", "change"))
    (parent / "a.py").write_text("x = 1\ny = 2\n")
    (parent / "b.py").write_text('"""Doc."""\n\nz = 3\n')
    (parent / "notes.txt").write_text("not\na\nmodule\n")  # src_sha256 skips it, and so does the count
    (change / "a.py").write_text("x = 1\n")
    fake_runs(monkeypatch, dirs)
    out = tmp_path / "BENCH.json"
    assert run_main(dirs, out, "closed-loop", 1) == 0
    doc = json.loads(out.read_text())
    assert (doc["parent_src_lines"], doc["change_src_lines"]) == (5, 1)
    assert ab.src_lines(str(ROOT)) == sum(
        path.read_bytes().count(b"\n") for path in (ROOT / "src" / "hotlanes").glob("*.py"))


def test_header_carries_the_step_counts_of_each_side(tmp_path, monkeypatch):
    dirs = checkouts(tmp_path)
    fake_runs(monkeypatch, dirs)
    out = tmp_path / "BENCH.json"
    assert run_main(dirs, out, "closed-loop", 1) == 0
    doc = json.loads(out.read_text())
    assert doc["parent_counts"] == {"root": dirs["parent"]}
    assert doc["change_counts"] == {"root": dirs["change"]}


def test_step_counts_are_the_same_in_two_processes():
    first, second = ab.step_counts(str(ROOT)), ab.step_counts(str(ROOT))
    assert first == second
    assert list(first["per_step"]) == list(PRESETS)
    for counts in first["per_step"].values():
        assert counts["steps"] == 1800  # the loop ran 0.05 h at the presets' 0.1 s step
        assert counts["bytecodes"] > 100 and counts["python_calls"] > 0
        assert counts["c_calls"] == sum(counts["c_calls_by_name"].values()) / counts["steps"]
