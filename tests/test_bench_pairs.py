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


def test_arm_line_is_kept_and_summarized_per_side():
    stdout = "\n".join([
        "machine {}",
        "us/step per arm: sgd-cycling 8.31 sgd-iid 8.29 adam-adaptive 14.02 adam-fixed 13.97",
        "fail_frac 0.0 ratio (0 of 8 trials)",
        json.dumps(result(5000.0, 0.12)),
    ]) + "\n"
    assert bench_pairs.parse_arms(stdout) == {
        "sgd-cycling": 8.31, "sgd-iid": 8.29, "adam-adaptive": 14.02, "adam-fixed": 13.97}
    assert bench_pairs.parse_arms("machine {}\n" + json.dumps(result(1.0, 1.0))) == {}

    parent = {"sgd": [8.3, 8.4, 8.2], "rnn": [50.0, 51.0, 49.0]}
    change = {"sgd": [7.4, 8.5, 7.3], "rnn": [50.0, 50.5, 49.5]}
    runs = []
    for k in range(3):
        for side, arms in (("parent", parent), ("change", change)):
            runs.append({"pair": k, "side": side, "result": result(100.0, 0.1),
                         "arms": {arm: us[k] for arm, us in arms.items()}})
    # A run of an older record, without arms, is summarized on its metrics.
    runs.append({"pair": 3, "side": "parent", "result": result(100.0, 0.1)})
    summary = bench_pairs.summarize(runs, {"steps_per_s": "higher"})

    assert list(summary) == ["steps_per_s", "arm_us_per_step.rnn", "arm_us_per_step.sgd"]
    sgd = summary["arm_us_per_step.sgd"]
    assert sgd["better"] == "lower" and sgd["pairs"] == 3
    assert sgd["parent"]["median"] == 8.3 and sgd["change"]["median"] == 7.4
    assert sgd["parent"]["values"] == parent["sgd"] and sgd["change"]["values"] == change["sgd"]
    assert sgd["change_wins"] == 2
    assert summary["arm_us_per_step.rnn"]["change_wins"] == 1  # a tie, a win and a loss
    # An arm that a paired run did not time is left out.
    assert bench_pairs.summarize(runs[:-1] + [runs[-1] | {"pair": 0, "side": "change"}],
                                 {"steps_per_s": "higher"}).keys() == {"steps_per_s"}


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


def paired(parent, change, name="steps_per_s", better="higher", bound=0.15):
    """The summary entry of one metric over canned pairs of values."""
    runs = []
    for k, (p, c) in enumerate(zip(parent, change)):
        for side, value in (("parent", p), ("change", c)):
            runs.append({"pair": k, "side": side, "result": {"correct": True, "metrics": {
                name: {"value": value, "unit": "x"}}}})
    return bench_pairs.summarize(runs, {name: better}, {name: bound})[name]


STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0, 100.5]


@pytest.mark.parametrize("parent, change, better, want", [
    # 10/10 wins by 8%, far beyond the parent's quartile spread (1.5%).
    (STEADY, [v * 1.08 for v in STEADY], "higher", "gain"),
    # 9/10 wins are enough; lower is better for a time.
    (STEADY, [v * 0.9 for v in STEADY[:9]] + [STEADY[9] * 1.01], "lower", "gain"),
    # 8/10 wins are not, and the median moved less than the bound.
    (STEADY, [v * 1.05 for v in STEADY[:8]] + [v * 0.99 for v in STEADY[8:]], "higher", "unchanged"),
    # 10/10 wins within the parent's spread: no gain.
    (STEADY, [v + 0.01 for v in STEADY], "higher", "unchanged"),
    # Worse by 20% with a 15% bound.
    (STEADY, [v * 0.8 for v in STEADY], "higher", "regression"),
    (STEADY, [v * 1.2 for v in STEADY], "lower", "regression"),
    # Worse by 10%, inside the bound.
    (STEADY, [v * 0.9 for v in STEADY], "higher", "unchanged"),
    # A parent spread wider than the bound says nothing, even at 10/10.
    ([50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0],
     [200.0] * 10, "higher", "unresolved"),
])
def test_verdict_of_canned_pairs(parent, change, better, want):
    entry = paired(parent, change, better=better)
    assert entry["verdict"] == want
    assert bench_pairs.verdict(entry, 0.15) == want


def test_verdict_only_for_metrics_with_a_bound():
    runs = [{"pair": 0, "side": side, "result": result(100.0, 0.1)} for side in ("parent", "change")]
    summary = bench_pairs.summarize(runs, {"steps_per_s": "higher", "setup_s": "lower"}, {"setup_s": 0.25})
    assert "verdict" not in summary["steps_per_s"] and summary["setup_s"]["verdict"] == "unchanged"
    assert "verdict" not in bench_pairs.summarize(runs, {"steps_per_s": "higher"})["steps_per_s"]
