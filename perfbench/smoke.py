"""Fast check of the benchmark itself (about half a minute).

Runs run.py at the smoke profile's tiny horizons on all three workloads,
untraced and traced, and checks that:

- every run exits 0, reports correct results and no failed trial;
- the metric names and units are exactly those of BENCHMARK.json;
- counts repeat exactly between two traced runs of the same seed;
- rankone does no work on small_state and tbptt_chain, and rtrl_step is
  never called on tbptt_chain;
- run.py exits non-zero without a result where the library is missing.

    python3 perfbench/smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("small_state", "rnn_dense", "tbptt_chain")


def run(workload, trace, cwd=ROOT, seed=7):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--profile", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


def result_of(proc, label):
    if proc.returncode != 0:
        raise SystemExit(f"{label}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit(f"{label}: unexpected keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"{label}: incorrect result\n{proc.stderr}")
    return result["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            metrics = result_of(run(workload, trace), label)
            units = {name: m["unit"] for name, m in metrics.items()}
            if units != expected[trace]:
                raise SystemExit(f"{label}: metrics differ from BENCHMARK.json: "
                                 f"{sorted(set(units) ^ set(expected[trace]))}")
            if trace == 1:
                again = result_of(run(workload, 1), label + " (repeat)")
                for name, m in metrics.items():
                    if m["unit"] == "count" and m["value"] != again[name]["value"]:
                        raise SystemExit(f"{label}: count {name} did not repeat")
                quiet = ["rankone.reductions"] if workload != "rnn_dense" else []
                quiet += ["rtrl.steps"] if workload == "tbptt_chain" else []
                for name in quiet:
                    if metrics[name]["value"] != 0:
                        raise SystemExit(f"{label}: {name} is {metrics[name]['value']}, expected 0")
            print(f"ok  {label}", flush=True)

    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run("small_state", 0, cwd=bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        raise SystemExit("run.py without the library did not fail cleanly")
    print("ok  fails without the library")


if __name__ == "__main__":
    main()
