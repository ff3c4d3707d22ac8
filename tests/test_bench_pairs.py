"""Aggregation of tools/bench_pairs.py on canned benchmark output; no
benchmark runs here."""

import importlib.util
import json
import os
import statistics

import pytest

PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result(steps, setup, correct=True):
    return {"correct": correct, "attempted": 8, "failed": 0, "metrics": {
        "steps_per_s": {"value": steps, "unit": "steps/s"},
        "setup_s": {"value": setup, "unit": "s"}}}


def test_parse_output_reads_the_machine_line_and_the_last_line():
    machine = {"nproc": 2, "cpu": "test cpu"}
    stdout = "\n".join([
        "machine " + json.dumps(machine),
        "rounds 3 untraced, 30.1 s measured, steps/s per round: 1.0 2.0 3.0",
        "steps_per_s 5000.0 steps/s",
        json.dumps(result(5000.0, 0.12)),
    ]) + "\n"
    assert bench_pairs.parse_output(stdout) == (machine, result(5000.0, 0.12))


def test_summarize_pairs():
    parent = [100.0, 104.0, 98.0, 101.0, 103.0]
    change = [110.0, 104.0, 97.0, 112.0, 111.0]
    setup_parent = [0.12, 0.11, 0.13, 0.12, 0.12]
    setup_change = [0.11, 0.12, 0.12, 0.12, 0.10]
    runs = []
    for k in range(5):
        runs.append({"pair": k, "side": "parent", "result": result(parent[k], setup_parent[k])})
        runs.append({"pair": k, "side": "change", "result": result(change[k], setup_change[k])})
    # A pair with one side only (an interrupted run) is left out.
    runs.append({"pair": 5, "side": "parent", "result": result(1.0, 9.0)})
    summary = bench_pairs.summarize(runs, {"steps_per_s": "higher", "setup_s": "lower"})

    steps = summary["steps_per_s"]
    assert steps["pairs"] == 5
    q1, median, q3 = statistics.quantiles(parent, n=4)
    assert steps["parent"] == {"median": median, "q1": q1, "q3": q3, "values": parent}
    assert steps["change"]["median"] == statistics.median(change)
    assert steps["change_wins"] == 3  # one tie (104) and one loss
    assert steps["parent_spread"] == pytest.approx((q3 - q1) / median)
    # Lower is better for setup_s: three wins, one tie and one loss.
    assert summary["setup_s"]["change_wins"] == 3


def test_quartiles_of_one_value():
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_both_sides_are_copies_made_the_same_way(tmp_path):
    # The parent is the commit's files; the change is the tracked files as
    # they are in the working tree: an edit counts, an untracked file and a
    # deleted tracked file do not.
    import subprocess

    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "a.py").write_text("A = 1\n")
    (repo / "gone.txt").write_text("tracked, then deleted\n")

    def git(*args):
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    (repo / "src" / "a.py").write_text("A = 2\n")
    (repo / "untracked.py").write_text("B = 1\n")
    (repo / "gone.txt").unlink()

    sides = {}
    for side, data in (("parent", bench_pairs.archive(str(repo), "HEAD")),
                       ("change", bench_pairs.working_tree(str(repo)))):
        dest = tmp_path / side
        bench_pairs.extract(data, str(dest))
        sides[side] = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert sides == {"parent": ["gone.txt", "src/a.py"], "change": ["src/a.py"]}
    assert (tmp_path / "parent" / "src" / "a.py").read_text() == "A = 1\n"
    assert (tmp_path / "change" / "src" / "a.py").read_text() == "A = 2\n"
