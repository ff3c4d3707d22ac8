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

The output file holds the machine line, every run's result JSON and, per
workload and end-to-end metric, each side's median and quartiles
(`statistics.quantiles(values, n=4)`, as `perfbench/spread.py`), the
parent's quartile spread as a share of its median, and the number of pairs
the change won (ties count for neither side). `--workload` may be given
more than once.
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


def parse_output(stdout: str):
    """(machine, result) from the standard output of perfbench/run.py: the
    JSON after the `machine ` prefix, and the JSON of the last line."""
    lines = stdout.strip().splitlines()
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), None)
    return machine, json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3); one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summarize(runs, metrics):
    """Per-metric summary of paired runs.

    runs: dicts with keys pair, side ("parent" or "change") and result (the
    result JSON of run.py). metrics: {name: "higher" or "lower"}, the
    direction in which the metric is better.
    """
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
    pairs = [sides for _, sides in sorted(by_pair.items()) if len(sides) == 2]
    out = {}
    for name, better in metrics.items():
        entry = {"better": better, "pairs": len(pairs)}
        for side in SIDES:
            values = [sides[side][name]["value"] for sides in pairs]
            q1, median, q3 = quartiles(values)
            entry[side] = {"median": median, "q1": q1, "q3": q3, "values": values}
        sign = 1.0 if better == "higher" else -1.0
        entry["change_wins"] = sum(
            sign * (sides["change"][name]["value"] - sides["parent"][name]["value"]) > 0
            for sides in pairs)
        parent = entry["parent"]
        entry["parent_spread"] = (parent["q3"] - parent["q1"]) / parent["median"]
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
    return parse_output(proc.stdout)


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
                    machine, result = run_once(trees[side], workload, seed, seconds)
                    record["machine"] = record["machine"] or machine
                    runs.append({"pair": k, "seed": seed, "side": side, "result": result})
                    value = result["metrics"]["steps_per_s"]["value"]
                    print(f"{workload} pair {k} seed {seed} {side}: steps_per_s {value:.6g} "
                          f"correct {result['correct']}", flush=True)
            summary = summarize(runs, metrics)
            record["workloads"][workload] = {"runs": runs, "summary": summary}
            for name, s in summary.items():
                print(f"{workload} {name}: parent {s['parent']['median']:.6g} "
                      f"[{s['parent']['q1']:.6g}, {s['parent']['q3']:.6g}] -> change "
                      f"{s['change']['median']:.6g} [{s['change']['q1']:.6g}, "
                      f"{s['change']['q3']:.6g}], change better in {s['change_wins']}/{s['pairs']}",
                      flush=True)
            with open(args.out, "w") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")


if __name__ == "__main__":
    main()
