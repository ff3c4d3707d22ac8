"""Alternating parent/change pairs of the benchmark, kept as a JSON record.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD~1 --workload rnn_dense \\
        --pairs 10 --first-seed 11 --out BENCH_6.json

Both sides run from fresh copies made the same way, side by side in one
temporary directory: each is a tar archive extracted there. The parent's is
`git archive` of the commit `--parent`; the change's holds the files git
tracks, as they are in this working tree (so uncommitted edits count, and
untracked files do not). Where a tree sits can move its timings, so
neither side runs from the repository itself. Each side runs
`perfbench/run.py` from its own tree (which imports dynlearn from that
tree's `src/`), one run at a time, and the side that runs first alternates
from pair to pair. Pair k runs workload seed first_seed + k on both sides,
for `run_seconds` of BENCHMARK.json unless `--seconds` is given.

The output file holds the machine line, every run's result JSON and
`us/step per arm` line and, per workload, for each end-to-end metric and
each arm's us/step (`arm_us_per_step.<arm>`, lower is better): each
side's median and quartiles (`statistics.quantiles(values, n=4)`, as
`perfbench/spread.py`), the parent's quartile spread as a share of its
median, and the number of pairs the change won (ties count for neither
side). The arms show which parts of a workload moved. Each end-to-end
metric also gets a `verdict` (see `verdict`) against its bound in
BENCHMARK.json. `--workload` may be given more than once.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
ARM_LINE = "us/step per arm: "
ARM_PREFIX = "arm_us_per_step."


def parse_output(stdout: str):
    """(machine, result) from the standard output of perfbench/run.py: the
    JSON after the `machine ` prefix, and the JSON of the last line."""
    lines = stdout.strip().splitlines()
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), None)
    return machine, json.loads(lines[-1])


def parse_arms(stdout: str):
    """{arm: us/step} of the `us/step per arm: <arm> <us> ...` line of
    perfbench/run.py ({} without one)."""
    for line in stdout.splitlines():
        if line.startswith(ARM_LINE):
            words = line[len(ARM_LINE):].split()
            return {arm: float(us) for arm, us in zip(words[::2], words[1::2])}
    return {}


def quartiles(values):
    """(q1, median, q3); one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def run_values(run):
    """{name: value} of one run: its end-to-end metrics, and its us/step
    per arm (key "arms", optional) named ARM_PREFIX + arm."""
    values = {name: metric["value"] for name, metric in run["result"]["metrics"].items()}
    values.update((ARM_PREFIX + arm, us) for arm, us in run.get("arms", {}).items())
    return values


def verdict(entry, bound):
    """What the summary entry of a metric with this BENCHMARK.json bound
    (a share of the parent's median) shows, in the first of these that
    holds: "unresolved" when the parent's quartile spread, as a share of
    its median, is wider than the bound; "gain" when the change wins at
    least 9/10 of the pairs and its median is better by more than the
    parent's quartile spread; "regression" when its median is worse by
    more than the bound; else "unchanged"."""
    parent, change = entry["parent"], entry["change"]
    if entry["parent_spread"] > bound:
        return "unresolved"
    sign = 1.0 if entry["better"] == "higher" else -1.0
    better_by = sign * (change["median"] - parent["median"])
    if 10 * entry["change_wins"] >= 9 * entry["pairs"] and better_by > parent["q3"] - parent["q1"]:
        return "gain"
    if -better_by > bound * abs(parent["median"]):
        return "regression"
    return "unchanged"


def summarize(runs, metrics, bounds=None):
    """Per-metric summary of paired runs.

    runs: dicts with keys pair, side ("parent" or "change"), result (the
    result JSON of run.py) and, optionally, arms ({arm: us/step}).
    metrics: {name: "higher" or "lower"}, the direction in which the metric
    is better. Each arm that every paired run timed is summarized too, as
    the metric ARM_PREFIX + arm, lower being better. bounds: {name: bound}
    of the metrics that get a `verdict`.
    """
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run_values(run)
    pairs = [sides for _, sides in sorted(by_pair.items()) if len(sides) == 2]
    timed = [set(sides[side]) for sides in pairs for side in SIDES]
    arms = sorted(name for name in set.intersection(*timed) if name.startswith(ARM_PREFIX)) if timed else []
    metrics = {**metrics, **dict.fromkeys(arms, "lower")}
    out = {}
    for name, better in metrics.items():
        entry = {"better": better, "pairs": len(pairs)}
        for side in SIDES:
            values = [sides[side][name] for sides in pairs]
            q1, median, q3 = quartiles(values)
            entry[side] = {"median": median, "q1": q1, "q3": q3, "values": values}
        sign = 1.0 if better == "higher" else -1.0
        entry["change_wins"] = sum(
            sign * (sides["change"][name] - sides["parent"][name]) > 0 for sides in pairs)
        parent = entry["parent"]
        entry["parent_spread"] = (parent["q3"] - parent["q1"]) / parent["median"]
        if bounds and name in bounds:
            entry["verdict"] = verdict(entry, bounds[name])
        out[name] = entry
    return out


def archive(root, rev):
    """A tar archive of the files of commit rev of the repository root."""
    return subprocess.run(["git", "-C", root, "archive", "--format=tar", rev],
                          capture_output=True, check=True).stdout


def working_tree(root):
    """A tar archive of the files git tracks in root, as they are in the
    working tree; a tracked file deleted from it is left out."""
    names = subprocess.run(["git", "-C", root, "ls-files", "-z"],
                           capture_output=True, check=True).stdout.split(b"\0")
    out = io.BytesIO()
    with tarfile.open(fileobj=out, mode="w") as tar:
        for name in map(os.fsdecode, filter(None, names)):
            path = os.path.join(root, name)
            if os.path.lexists(path):
                tar.add(path, arcname=name, recursive=False)
    return out.getvalue()


def extract(data, dest):
    """The files of the tar archive data, written under dest."""
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=20 * seconds + 300, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return (*parse_output(proc.stdout), parse_arms(proc.stdout))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    def rev_parse(rev):
        return subprocess.run(["git", "-C", ROOT, "rev-parse", rev],
                              capture_output=True, text=True, check=True).stdout.strip()

    parent_rev = rev_parse(args.parent)

    record = {"parent": parent_rev, "change": f"working tree on {rev_parse('HEAD')}",
              "seconds": seconds, "machine": None, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        extract(archive(ROOT, parent_rev), trees["parent"])
        extract(working_tree(ROOT), trees["change"])
        for workload in args.workload:
            runs = []
            for k in range(args.pairs):
                seed = args.first_seed + k
                for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                    machine, result, arms = run_once(trees[side], workload, seed, seconds)
                    record["machine"] = record["machine"] or machine
                    runs.append({"pair": k, "seed": seed, "side": side, "result": result, "arms": arms})
                    value = result["metrics"]["steps_per_s"]["value"]
                    print(f"{workload} pair {k} seed {seed} {side}: steps_per_s {value:.6g} "
                          f"correct {result['correct']}", flush=True)
            summary = summarize(runs, metrics, bounds)
            record["workloads"][workload] = {"runs": runs, "summary": summary}
            for name, s in summary.items():
                print(f"{workload} {name}: parent {s['parent']['median']:.6g} "
                      f"[{s['parent']['q1']:.6g}, {s['parent']['q3']:.6g}] -> change "
                      f"{s['change']['median']:.6g} [{s['change']['q1']:.6g}, "
                      f"{s['change']['q3']:.6g}], change better in {s['change_wins']}/{s['pairs']}"
                      + (f", {s['verdict']}" if "verdict" in s else ""), flush=True)
            with open(args.out, "w") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")


if __name__ == "__main__":
    main()
